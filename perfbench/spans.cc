#include "spans.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

namespace perfbench
{

SpanRecorder::Scope::Scope(SpanRecorder &rec, const char *name)
    : rec_(rec), index_(rec.spans_.size())
{
    Span s;
    s.name = name;
    s.job = rec.job_;
    s.parent = rec.open_.empty()
                   ? -1
                   : static_cast<std::int64_t>(rec.open_.back());
    rec.spans_.push_back(s);
    rec.open_.push_back(index_);
    // Stamp last, so the recorder's own bookkeeping stays outside.
    rec.spans_[index_].start = Clock::now();
}

SpanRecorder::Scope::~Scope()
{
    rec_.spans_[index_].end = Clock::now();
    rec_.open_.pop_back();
}

std::vector<double>
SpanRecorder::durationsMs(const char *name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0)
            out.push_back(s.ms());
    return out;
}

double
SpanRecorder::totalMs(const char *name) const
{
    double t = 0.0;
    for (double ms : durationsMs(name))
        t += ms;
    return t;
}

std::vector<double>
SpanRecorder::selfMs() const
{
    // Children nest strictly inside their parent (scopes close in LIFO
    // order), so the covered part of a parent is the sum of its direct
    // children's durations.
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].ms();
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.ms();
    return self;
}

bool
SpanRecorder::writeJson(const std::string &path,
                        const std::string &workload,
                        std::uint64_t seed) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const std::vector<double> self = selfMs();
    const Clock::time_point t0 =
        spans_.empty() ? Clock::time_point{} : spans_.front().start;
    const auto ns = [&](Clock::time_point t) {
        return static_cast<long long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0)
                .count());
    };
    os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
       << ", \"spans\": [";
    char buf[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf, "%.6f", self[i]);
        os << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"job\": "
           << s.job << ", \"name\": \"" << s.name << "\", \"parent\": "
           << s.parent << ", \"start_ns\": " << ns(s.start)
           << ", \"end_ns\": " << ns(s.end) << ", \"self_ms\": " << buf
           << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

std::string
SpanRecorder::summary() const
{
    struct Row
    {
        std::uint64_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Row> rows;
    const std::vector<double> self = selfMs();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Row &r = rows[spans_[i].name];
        ++r.count;
        r.total += spans_[i].ms();
        r.self += self[i];
    }
    std::string out;
    char line[160];
    std::snprintf(line, sizeof line, "%-26s %8s %12s %12s\n", "span",
                  "count", "total_ms", "self_ms");
    out += line;
    for (const auto &[name, r] : rows) {
        std::snprintf(line, sizeof line, "%-26s %8llu %12.3f %12.3f\n",
                      name.c_str(), static_cast<unsigned long long>(r.count),
                      r.total, r.self);
        out += line;
    }
    return out;
}

} // namespace perfbench
