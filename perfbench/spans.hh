/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one call into a simulator layer, recorded by the benchmark
 * around the public function it calls: name, start, end, the span that
 * was open when it started (its parent) and the job it belongs to (a
 * launch, a crash point or a model-checker verdict). Spans stay in
 * memory until the run ends; writeJson() then dumps them with their self
 * time (duration minus the time covered by direct children).
 */

#ifndef SBRP_PERFBENCH_SPANS_HH
#define SBRP_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

struct Span
{
    const char *name = "";      ///< A string literal (never freed).
    std::uint64_t job = 0;
    std::int64_t parent = -1;   ///< Index into spans(); -1 = root.
    Clock::time_point start;
    Clock::time_point end;

    double ms() const
    {
        return std::chrono::duration<double, std::milli>(end - start)
            .count();
    }
};

class SpanRecorder
{
  public:
    /** Closes its span on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        std::size_t index_;
    };

    /** Starts a new job: spans opened from now on carry its id. */
    void beginJob() { ++job_; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (ms) of every closed span called `name`. */
    std::vector<double> durationsMs(const char *name) const;

    /** Σ durations (ms) of spans called `name`. */
    double totalMs(const char *name) const;

    /** Per-span self time (ms), index-aligned with spans(). */
    std::vector<double> selfMs() const;

    /** Writes every span as JSON to `path`; false on I/O failure. */
    bool writeJson(const std::string &path, const std::string &workload,
                   std::uint64_t seed) const;

    /** Per-name count / total / self-time table, one line per name. */
    std::string summary() const;

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::uint64_t job_ = 0;
};

} // namespace perfbench

#endif // SBRP_PERFBENCH_SPANS_HH
