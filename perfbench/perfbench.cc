/**
 * @file
 * perfbench — the repository benchmark.
 *
 * Runs one named workload as a closed loop with one client (each job
 * starts when the previous one ends), in one process on one thread,
 * for at least `--seconds` seconds of whole rounds. A round is one pass
 * over the workload's fixed job list, so every round simulates exactly
 * the same cycles and every count metric can be checked for exact
 * repetition. The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}; `--trace 0` reports the
 * end-to-end metrics, `--trace 1` the per-layer ones. Human-readable
 * detail goes to stderr. perfbench/NOTES.md explains every workload and
 * metric; perfbench/run.py builds this binary and runs it.
 *
 * Usage:
 *   perfbench --workload <launch_pb_bound|launch_unbuffered|campaign|
 *                         mc_sweep>
 *             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
 *             [--launches app/model/design,...]
 *
 * `--launches` replaces a launch workload's job list (the self-test
 * uses it to prove that a failed verify() is counted).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.hh"
#include "apps/registry.hh"
#include "common/config.hh"
#include "common/schema_versions.hh"
#include "crashtest/campaign.hh"
#include "crashtest/scenario.hh"
#include "formal/checker.hh"
#include "formal/litmus_corpus.hh"
#include "formal/trace.hh"
#include "gpu/cycle_ledger.hh"
#include "gpu/gpu_system.hh"
#include "mc/explorer.hh"
#include "mem/nvm_device.hh"
#include "obs/provenance.hh"
#include "spans.hh"
#include "svc/journal.hh"
#include "svc/manifest.hh"
#include "svc/merge.hh"
#include "svc/worker.hh"

using namespace sbrp;
using perfbench::Clock;
using perfbench::SpanRecorder;

namespace
{

double
msSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t)
        .count();
}

/** Nearest-rank percentile: always one of the samples. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** A span that is only recorded when a recorder is attached. */
class MaybeSpan
{
  public:
    MaybeSpan(SpanRecorder *rec, const char *name)
    {
        if (rec)
            scope_.emplace(*rec, name);
    }

  private:
    std::optional<SpanRecorder::Scope> scope_;
};

// ---------------------------------------------------------------------
// Options and output
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    std::string launches;   ///< Overrides a launch workload's job list.
};

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"sim_mcycles_per_s", "Mcycles/s"},
    {"crash_points_per_s", "1/s"},
    {"crash_point_ms_p50", "ms"},
    {"crash_point_ms_p99", "ms"},
    {"mc_verdicts_per_s", "1/s"},
    {"sim_kcycles", "kcycles"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"gpu.launch_ms", "ms"},
    {"gpu.host_ns_per_sim_cycle", "ns"},
    {"gpu.host_ns_per_instruction", "ns"},
    {"sm.instructions", "count"},
    {"sm.model_retries", "count"},
    {"sm.evict_veto", "count"},
    {"persist.retries_per_commit", "ratio"},
    {"ledger.edm_stall_share", "ratio"},
    {"ledger.fence_drain_share", "ratio"},
    {"l1.read_hit_ratio", "ratio"},
    {"fabric.l2_read_hit_ratio", "ratio"},
    {"fabric.persist_writes", "count"},
    {"nvm.commits", "count"},
    {"apps.setup_ms", "ms"},
    {"apps.verify_recovered_ms", "ms"},
    {"crashtest.probe_ms", "ms"},
    {"mem.restore_ms", "ms"},
    {"crashtest.crash_run_ms", "ms"},
    {"crashtest.recovery_run_ms", "ms"},
    {"formal.pmo_check_ms", "ms"},
    {"crashtest.points_enumerated", "count"},
    {"svc.plan_ms", "ms"},
    {"svc.journal_append_ms", "ms"},
    {"svc.merge_ms", "ms"},
    {"mc.explore_ms", "ms"},
    {"mc.run_schedule_ms", "ms"},
    {"mc.schedules_explored", "count"},
    {"mc.alternatives_pruned", "count"},
    {"mc.prune_ratio", "ratio"},
    {"mc.schedules_per_s", "1/s"},
    {"tracing.overhead_pct", "%"},
    {"error_rate", "ratio"},
};

struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Metric values by name; a per-layer metric whose layer does not
        run on the workload is absent and printed as 0. */
    std::map<std::string, double> values;

    /** Counts one operation; prints the reason when it failed. */
    void
    judge(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        if (++failed <= 20)
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
};

void
printResult(const Result &r, bool trace)
{
    std::string out = "{\"correct\": ";
    out += r.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const MetricDef &m) {
        auto it = r.values.find(m.name);
        double v = it == r.values.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0.0;
        char num[40];
        std::snprintf(num, sizeof num, "%.17g", v);
        out += first ? "" : ", ";
        out += "\"" + std::string(m.name) + "\": {\"value\": " + num +
               ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    };
    if (trace) {
        for (const MetricDef &m : kPerLayer)
            emit(m);
    } else {
        for (const MetricDef &m : kEndToEnd)
            emit(m);
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

/**
 * Set-up times sampled before every round (at least once, and until
 * 5 ms have passed), so that their median covers the same stretch of a
 * drifting shared host as the rounds do, not only the run's start.
 */
struct SetupSamples
{
    std::function<void()> setup;
    std::vector<double> seconds;

    explicit SetupSamples(std::function<void()> f) : setup(std::move(f)) {}

    void
    sample()
    {
        double spent = 0.0;
        do {
            const auto t0 = Clock::now();
            setup();
            seconds.push_back(msSince(t0) / 1e3);
            spent += seconds.back();
        } while (spent < 5e-3);
    }
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB -> MiB
}

// ---------------------------------------------------------------------
// Simulated counters (exact: they must repeat bit for bit)
// ---------------------------------------------------------------------

struct SimCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t modelRetries = 0;
    std::uint64_t evictVeto = 0;
    std::uint64_t l1ReadHits = 0;
    std::uint64_t l1ReadMisses = 0;
    std::uint64_t l2ReadHits = 0;
    std::uint64_t l2ReadMisses = 0;
    std::uint64_t persistWrites = 0;
    std::uint64_t nvmCommits = 0;
    std::uint64_t edmStall = 0;
    std::uint64_t fenceDrain = 0;
    std::uint64_t warpCycles = 0;

    bool operator==(const SimCounts &) const = default;

    SimCounts &
    operator+=(const SimCounts &o)
    {
        cycles += o.cycles;
        instructions += o.instructions;
        modelRetries += o.modelRetries;
        evictVeto += o.evictVeto;
        l1ReadHits += o.l1ReadHits;
        l1ReadMisses += o.l1ReadMisses;
        l2ReadHits += o.l2ReadHits;
        l2ReadMisses += o.l2ReadMisses;
        persistWrites += o.persistWrites;
        nvmCommits += o.nvmCommits;
        edmStall += o.edmStall;
        fenceDrain += o.fenceDrain;
        warpCycles += o.warpCycles;
        return *this;
    }
};

/** Reads one finished launch's counters from its public stats. */
SimCounts
countsOf(GpuSystem &gpu, Cycle cycles, std::uint64_t nvm_commits)
{
    SimCounts c;
    c.cycles = cycles;
    c.nvmCommits = nvm_commits;
    for (const StatGroup *g : gpu.stats().groups()) {
        const std::string &n = g->name();
        if (n == "fabric") {
            c.l2ReadHits += g->value("l2_read_hits");
            c.l2ReadMisses += g->value("l2_read_misses");
            c.persistWrites += g->value("persist_writes");
        } else if (n.size() > 3 && n.ends_with(".l1")) {
            c.l1ReadHits += g->value("read_hits");
            c.l1ReadMisses += g->value("read_misses");
        } else if (n.starts_with("sm") &&
                   n.find('.') == std::string::npos) {
            c.instructions += g->value("instructions");
            c.modelRetries += g->value("model_retries");
            c.evictVeto += g->value("evict_veto");
        }
    }
    const GpuSystem::CycleBreakdown bd = gpu.cycleBreakdown();
    c.edmStall = bd.cycles[static_cast<std::size_t>(CycleCat::EdmStall)];
    c.fenceDrain =
        bd.cycles[static_cast<std::size_t>(CycleCat::FenceDrain)];
    c.warpCycles = bd.warpCycles();
    return c;
}

/**
 * The per-layer metrics the simulator's own counters give: `round` is
 * one round's counts, `traced` the counts of every traced launch, whose
 * `gpu.launch` spans `rec` holds.
 */
void
addSimLayerMetrics(Result &r, const SimCounts &round,
                   const SimCounts &traced, const SpanRecorder &rec)
{
    const double launch_ns = rec.totalMs("gpu.launch") * 1e6;
    auto &v = r.values;
    v["gpu.launch_ms"] = median(rec.durationsMs("gpu.launch"));
    v["gpu.host_ns_per_sim_cycle"] =
        ratio(launch_ns, static_cast<double>(traced.cycles));
    v["gpu.host_ns_per_instruction"] =
        ratio(launch_ns, static_cast<double>(traced.instructions));
    v["sm.instructions"] = static_cast<double>(round.instructions);
    v["sm.model_retries"] = static_cast<double>(round.modelRetries);
    v["sm.evict_veto"] = static_cast<double>(round.evictVeto);
    v["persist.retries_per_commit"] =
        ratio(static_cast<double>(round.modelRetries),
              static_cast<double>(round.nvmCommits));
    v["ledger.edm_stall_share"] =
        ratio(static_cast<double>(round.edmStall),
              static_cast<double>(round.warpCycles));
    v["ledger.fence_drain_share"] =
        ratio(static_cast<double>(round.fenceDrain),
              static_cast<double>(round.warpCycles));
    v["l1.read_hit_ratio"] =
        ratio(static_cast<double>(round.l1ReadHits),
              static_cast<double>(round.l1ReadHits + round.l1ReadMisses));
    v["fabric.l2_read_hit_ratio"] =
        ratio(static_cast<double>(round.l2ReadHits),
              static_cast<double>(round.l2ReadHits + round.l2ReadMisses));
    v["fabric.persist_writes"] = static_cast<double>(round.persistWrites);
    v["nvm.commits"] = static_cast<double>(round.nvmCommits);
}

/** Whole rounds a timed run makes at least (untraced), so that every
    median below has one slow round to discard. */
constexpr std::uint64_t kMinRounds = 3;

/**
 * Host times of a fixed job list over repeated rounds. Throughputs use
 * the median round, so a transient slowdown of a shared host moves one
 * round, not the result.
 */
struct RoundTimes
{
    std::vector<std::vector<double>> jobMs;   ///< [round][job]
    std::vector<double> wallMs;               ///< Per-round wall time.

    void
    startRound()
    {
        jobMs.emplace_back();
        wallMs.push_back(0.0);
    }

    void addJob(double ms) { jobMs.back().push_back(ms); }
    void addWall(double ms) { wallMs.back() += ms; }
    std::size_t rounds() const { return wallMs.size(); }

    /** Each job's median host time over the rounds. */
    std::vector<double>
    perJobMedianMs() const
    {
        std::vector<double> out;
        for (std::size_t j = 0; !jobMs.empty() && j < jobMs[0].size();
             ++j) {
            std::vector<double> v;
            for (const std::vector<double> &round : jobMs)
                v.push_back(round[j]);
            out.push_back(median(v));
        }
        return out;
    }
};

/** Job times a p99 needs so that ten of them lie beyond it. */
constexpr std::size_t kTailSamples = 1000;

/**
 * The job-level end-to-end metrics (NOTES.md, "Metrics"): jobs of one
 * round per second of the median round, and percentiles over every job
 * time of every round. With fewer than kTailSamples job times no
 * percentile has ten samples beyond it; each job's median over the
 * rounds then stands in for its samples, so one slow launch does not
 * set the tail.
 */
void
addJobMetrics(Result &r, const RoundTimes &t)
{
    std::vector<double> all;
    for (const std::vector<double> &round : t.jobMs)
        all.insert(all.end(), round.begin(), round.end());
    const std::size_t samples = all.size();
    if (samples < kTailSamples)
        all = t.perJobMedianMs();
    const double per_s =
        ratio(static_cast<double>(t.jobMs.front().size()),
              median(t.wallMs) / 1e3);
    r.values["crash_points_per_s"] = per_s;
    r.values["mc_verdicts_per_s"] = per_s;
    r.values["crash_point_ms_p50"] = percentile(all, 0.50);
    r.values["crash_point_ms_p99"] = percentile(all, 0.99);
    std::string walls;
    for (double w : t.wallMs)
        walls += " " + std::to_string(static_cast<long>(w));
    std::fprintf(stderr, "perfbench: round wall ms:%s\n", walls.c_str());
    std::fprintf(stderr, "perfbench: %zu job times (%zu rounds)%s\n",
                 samples, t.rounds(),
                 samples < kTailSamples ? ", percentiles over per-job "
                                          "medians" : "");
}

/** Keeps a timed loop going: at least `seconds`, and (untraced) at
    least kMinRounds whole rounds. */
bool
keepGoing(const Options &o, Clock::time_point start, std::uint64_t rounds)
{
    return msSince(start) < o.seconds * 1e3 ||
           (!o.trace && rounds < kMinRounds);
}

// ---------------------------------------------------------------------
// Launch workloads: bench-scale crash-free launches
// ---------------------------------------------------------------------

struct LaunchSpec
{
    std::string label;   ///< "app/model/design"
    std::string app;
    ModelKind model = ModelKind::Sbrp;
    SystemDesign design = SystemDesign::PmNear;
};

bool
parseLaunch(const std::string &text, LaunchSpec *out)
{
    const auto a = text.find('/');
    const auto b = text.find('/', a == std::string::npos ? a : a + 1);
    if (a == std::string::npos || b == std::string::npos)
        return false;
    out->label = text;
    out->app = resolveAppName(text.substr(0, a));
    return !out->app.empty() &&
           modelKindFromString(text.substr(a + 1, b - a - 1),
                               &out->model) &&
           systemDesignFromString(text.substr(b + 1), &out->design);
}

bool
parseLaunchList(const std::string &csv, std::vector<LaunchSpec> *out)
{
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        const auto comma = std::min(csv.find(',', pos), csv.size());
        LaunchSpec s;
        if (!parseLaunch(csv.substr(pos, comma - pos), &s))
            return false;
        out->push_back(s);
        pos = comma + 1;
    }
    return !out->empty();
}

std::vector<LaunchSpec>
workloadLaunches(const std::string &workload)
{
    std::string csv;
    if (workload == "launch_pb_bound") {
        csv = "Scan/sbrp/near,HM/sbrp/near,gpKVS/sbrp/far";
    } else {
        for (const char *combo : {"epoch/near", "gpm/far", "barrier/far"})
            for (const char *app : {"gpKVS", "HM", "SRAD", "Red", "MQ",
                                    "Scan"})
                csv += std::string(csv.empty() ? "" : ",") + app + "/" +
                       combo;
    }
    std::vector<LaunchSpec> out;
    parseLaunchList(csv, &out);
    return out;
}

/** Everything one launch needs, built before the timed launch. */
struct LaunchJob
{
    std::unique_ptr<PmApp> app;
    NvmDevice nvm;                      ///< Outlives gpu (declared first).
    std::unique_ptr<GpuSystem> gpu;
    std::optional<KernelProgram> kernel;
};

std::unique_ptr<LaunchJob>
setUpLaunch(const LaunchSpec &s, std::uint64_t seed)
{
    auto job = std::make_unique<LaunchJob>();
    job->app = makeRegisteredApp(s.app, s.model, true, seed);
    job->app->setupNvm(job->nvm);
    job->gpu = std::make_unique<GpuSystem>(
        SystemConfig::paperDefault(s.model, s.design), job->nvm);
    job->app->setupGpu(*job->gpu);
    job->kernel.emplace(job->app->forward());
    return job;
}

struct LaunchOutcome
{
    SimCounts counts;
    bool verified = false;
    double launchMs = 0.0;   ///< Host time inside GpuSystem::launch.
    double jobMs = 0.0;      ///< Set-up + launch + verify + teardown.
};

LaunchOutcome
runLaunchJob(const LaunchSpec &spec, std::uint64_t seed, SpanRecorder *rec)
{
    LaunchOutcome out;
    const auto t0 = Clock::now();
    {
        MaybeSpan root(rec, "launch.job");
        std::unique_ptr<LaunchJob> j;
        {
            MaybeSpan s(rec, "apps.setup");
            j = setUpLaunch(spec, seed);
        }
        const std::uint64_t commits0 = j->nvm.commitCount();
        GpuSystem::LaunchResult res;
        {
            MaybeSpan s(rec, "gpu.launch");
            const auto l0 = Clock::now();
            res = j->gpu->launch(*j->kernel);
            out.launchMs = msSince(l0);
        }
        {
            MaybeSpan s(rec, "apps.verify");
            out.verified = j->app->verify(j->nvm);
        }
        out.counts = countsOf(*j->gpu, res.cycles,
                              j->nvm.commitCount() - commits0);
    }   // Teardown belongs to the job.
    out.jobMs = msSince(t0);
    return out;
}

Result
launchWorkload(const Options &o, const std::vector<LaunchSpec> &specs,
               SpanRecorder &rec)
{
    Result r;
    SetupSamples setup{[&] {
        for (const LaunchSpec &s : specs)
            setUpLaunch(s, o.seed);
    }};

    std::vector<SimCounts> first(specs.size());
    SimCounts round, traced;
    RoundTimes jobs;
    std::vector<double> launch_ms;   ///< Per round: time inside launch.
    double untraced_ms = 0.0, traced_ms = 0.0;
    std::uint64_t rounds = 0;
    const auto start = Clock::now();
    do {
        if (!o.trace)
            setup.sample();
        jobs.startRound();
        launch_ms.push_back(0.0);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const LaunchOutcome u = runLaunchJob(specs[i], o.seed, nullptr);
            bool ok = u.verified;
            std::string why = u.verified ? "" : " verify()";
            if (rounds == 0) {
                first[i] = u.counts;
                round += u.counts;
            } else if (!(u.counts == first[i])) {
                ok = false;
                why += " counts differ from round 1";
            }
            if (o.trace) {
                rec.beginJob();
                const LaunchOutcome t = runLaunchJob(specs[i], o.seed, &rec);
                if (!(t.counts == u.counts) || !t.verified) {
                    ok = false;
                    why += " traced run differs";
                }
                traced += t.counts;
                traced_ms += t.jobMs;
                untraced_ms += u.jobMs;
            }
            r.judge(ok, "launch " + specs[i].label + ":" + why);
            jobs.addJob(u.jobMs);
            jobs.addWall(u.jobMs);
            launch_ms.back() += u.launchMs;
        }
        ++rounds;
    } while (keepGoing(o, start, rounds));

    const std::vector<double> job_ms = jobs.perJobMedianMs();
    for (std::size_t i = 0; i < specs.size(); ++i)
        std::fprintf(stderr, "  %-20s %10llu cycles %12llu instructions "
                     "%10.1f ms\n", specs[i].label.c_str(),
                     static_cast<unsigned long long>(first[i].cycles),
                     static_cast<unsigned long long>(first[i].instructions),
                     job_ms[i]);

    r.values["sim_mcycles_per_s"] =
        ratio(static_cast<double>(round.cycles) / 1e6,
              median(launch_ms) / 1e3);
    r.values["sim_kcycles"] = static_cast<double>(round.cycles) / 1e3;
    r.values["setup_s"] = median(setup.seconds);
    addJobMetrics(r, jobs);
    if (o.trace) {
        addSimLayerMetrics(r, round, traced, rec);
        r.values["apps.setup_ms"] = median(rec.durationsMs("apps.setup"));
        r.values["tracing.overhead_pct"] =
            100.0 * (ratio(traced_ms, untraced_ms) - 1.0);
    }
    return r;
}

// ---------------------------------------------------------------------
// Campaign workload: planned, sharded, journaled, merged
// ---------------------------------------------------------------------

struct CampaignSpec
{
    const char *label;
    const char *app;
    ModelKind model;
    SystemDesign design;
};

const CampaignSpec kCampaigns[] = {
    {"HM-sbrp-near", "HM", ModelKind::Sbrp, SystemDesign::PmNear},
    {"gpKVS-epoch-near", "gpKVS", ModelKind::Epoch, SystemDesign::PmNear},
};

constexpr unsigned kShards = 2;

CrashScenario
scenarioOf(const CampaignSpec &c, std::uint64_t seed)
{
    CrashScenario s;
    s.app = c.app;
    s.cfg = SystemConfig::testDefault(c.model, c.design);
    s.benchScale = false;
    s.seed = seed;
    return s;
}

CampaignConfig
campaignConfigOf(const CrashScenario &s)
{
    CampaignConfig cc;
    cc.scenario = s;
    cc.jobs = 1;
    return cc;
}

/** Equal on every deterministic verdict field (not wall time). */
bool
sameVerdict(const CrashVerdict &a, const CrashVerdict &b)
{
    return a.crashAt == b.crashAt && a.kind == b.kind &&
           a.executed == b.executed && a.crashed == b.crashed &&
           a.pmoViolations == b.pmoViolations &&
           a.recoveredOk == b.recoveredOk &&
           a.persistFaults == b.persistFaults &&
           a.ledgerCycles == b.ledgerCycles &&
           a.ledgerWarpActive == b.ledgerWarpActive;
}

void
addLedger(CrashVerdict &v, const GpuSystem &gpu)
{
    const GpuSystem::CycleBreakdown bd = gpu.cycleBreakdown();
    for (std::size_t c = 0; c < kNumCycleCats; ++c)
        v.ledgerCycles[c] += bd.cycles[c];
    v.ledgerWarpActive += bd.warpActiveCycles;
}

struct ReplicaOutcome
{
    CrashVerdict verdict;
    SimCounts counts;
    double ms = 0.0;
};

/**
 * ScenarioRunner::runCrashAt rebuilt from public calls, one span per
 * phase: restore the image, crash the forward launch with an
 * ExecutionTrace attached, check PMO, recover on a fresh GpuSystem,
 * verify the recovered image.
 */
ReplicaOutcome
replicaCrashAt(PmApp &app, const NvmDevice &golden, NvmDevice &live,
               const SystemConfig &cfg, const CrashPoint &p,
               SpanRecorder &rec)
{
    ReplicaOutcome out;
    CrashVerdict &v = out.verdict;
    v.crashAt = p.cycle;
    v.kind = p.kind;
    v.executed = true;
    const auto t0 = Clock::now();
    {
        SpanRecorder::Scope root(rec, "crashtest.point");
        {
            SpanRecorder::Scope s(rec, "mem.restore");
            live.restoreImageFrom(golden);
        }
        ExecutionTrace trace;
        {
            SpanRecorder::Scope s(rec, "crashtest.crash_run");
            GpuSystem gpu(cfg, live, &trace);
            app.setupGpu(gpu);
            const KernelProgram kernel = app.forward();
            const std::uint64_t c0 = live.commitCount();
            GpuSystem::LaunchResult res;
            {
                SpanRecorder::Scope l(rec, "gpu.launch");
                res = gpu.launch(kernel, p.cycle);
            }
            v.crashed = res.crashed;
            v.persistFaults = gpu.fabric().persistFaults().size();
            addLedger(v, gpu);
            out.counts += countsOf(gpu, res.cycles, live.commitCount() - c0);
        }
        {
            SpanRecorder::Scope s(rec, "formal.pmo_check");
            PmoChecker checker(trace);
            v.pmoViolations = checker.check().size();
        }
        {
            SpanRecorder::Scope s(rec, "crashtest.recovery_run");
            GpuSystem gpu(cfg, live);
            app.setupGpu(gpu);
            const KernelProgram kernel = app.recovery();
            const std::uint64_t c0 = live.commitCount();
            GpuSystem::LaunchResult res;
            {
                SpanRecorder::Scope l(rec, "gpu.launch");
                res = gpu.launch(kernel);
            }
            v.persistFaults += gpu.fabric().persistFaults().size();
            addLedger(v, gpu);
            out.counts += countsOf(gpu, res.cycles, live.commitCount() - c0);
        }
        {
            SpanRecorder::Scope s(rec, "apps.verify_recovered");
            v.recoveredOk = app.verifyRecovered(live);
        }
    }
    out.ms = msSince(t0);
    return out;
}

/** Per-round campaign state shared by the untraced and traced passes. */
struct CampaignRound
{
    CampaignManifest manifest;
    std::vector<CrashVerdict> verdicts;   ///< Merged, by point index.
};

void
resetDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

/** plan -> runShard x kShards -> merge, exactly as a user runs it. */
CampaignRound
runCampaign(const CampaignSpec &c, const CrashScenario &scen,
            const std::string &dir, Result &r, double *wall_ms)
{
    resetDir(dir);
    CampaignRound out;
    const auto t0 = Clock::now();
    out.manifest = CampaignManifest::plan(campaignConfigOf(scen), kShards);
    bool ok = true;
    std::string why;
    for (std::uint32_t shard = 0; shard < out.manifest.shards; ++shard) {
        const ShardRunResult sr = runShard(out.manifest, shard, dir, false);
        if (sr.status != ShardRunStatus::Complete) {
            ok = false;
            why += " shard " + std::to_string(shard) + ": " + sr.error;
        }
    }
    MergeOutcome mo;
    std::string err;
    if (!mergeShardJournals(out.manifest, dir, &mo, &err)) {
        ok = false;
        why += " merge: " + err;
    } else if (!mo.complete || !mo.result.pass()) {
        ok = false;
        why += mo.complete ? " campaign did not pass" : " merge incomplete";
    }
    *wall_ms += msSince(t0);
    r.judge(ok, std::string("campaign ") + c.label + why);
    out.verdicts = std::move(mo.result.verdicts);
    return out;
}

/** Element-wise difference of two equal-length duration lists. */
std::vector<double>
minus(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> d;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
        d.push_back(a[i] - b[i]);
    return d;
}

/**
 * The traced pass over one campaign: plan, probe, then every crash
 * point through the replica, cross-checked against runCrashAt and the
 * untraced merged verdict, journaled, and merged.
 */
void
tracedCampaign(const CampaignSpec &c, const CrashScenario &scen,
               const CampaignRound &ref, const std::string &dir,
               SpanRecorder &rec, Result &r, SimCounts *counts,
               double *replica_ms, double *reference_ms)
{
    resetDir(dir);
    const CampaignConfig cc = campaignConfigOf(scen);
    rec.beginJob();
    CampaignManifest m;
    {
        SpanRecorder::Scope s(rec, "svc.plan");
        m = CampaignManifest::plan(cc, kShards);
    }
    {
        // What plan() does besides partitioning and digesting: build
        // the scenario and run the oracle probe with provenance.
        SpanRecorder::Scope s(rec, "crashtest.probe");
        ScenarioRunner runner(scen);
        PersistProvenance prov;
        runner.probe(&prov);
    }
    std::unique_ptr<PmApp> app;
    NvmDevice golden, live;
    {
        SpanRecorder::Scope s(rec, "apps.setup");
        app = makeRegisteredApp(scen.app, scen.cfg.model, scen.benchScale,
                                scen.seed);
        app->setupNvm(golden);
    }
    ScenarioRunner runner(scen);
    std::string err;
    bool io_ok = ensureDirectories(dir, &err);
    for (std::uint32_t shard = 0; io_ok && shard < m.shards; ++shard) {
        const ShardRange range = m.ranges[shard];
        ShardJournalHeader h;
        h.schemaVersion = schema::kShardJournal;
        h.shard = shard;
        h.shards = m.shards;
        h.begin = range.begin;
        h.end = range.end;
        h.manifestDigest = m.digest;
        h.app = m.scenario.app;
        ShardJournalWriter writer;
        io_ok = writer.create(shardJournalPath(dir, shard), h, &err);
        for (std::uint64_t idx = range.begin; io_ok && idx < range.end;
             ++idx) {
            const CrashPoint &p = m.probe.points.points[idx];
            rec.beginJob();
            const ReplicaOutcome rv =
                replicaCrashAt(*app, golden, live, scen.cfg, p, rec);
            const auto t0 = Clock::now();
            const CrashVerdict cv = runner.runCrashAt(p.cycle, p.kind);
            *reference_ms += msSince(t0);
            *replica_ms += rv.ms;
            *counts += rv.counts;
            const bool matches =
                sameVerdict(rv.verdict, cv) && idx < ref.verdicts.size() &&
                sameVerdict(cv, ref.verdicts[idx]);
            r.judge(cv.pass() && matches,
                    std::string("traced point ") + c.label + " #" +
                        std::to_string(idx) +
                        (matches ? " fails" : " differs"));
            SpanRecorder::Scope s(rec, "svc.journal_append");
            io_ok = writer.append({idx, cv}, &err);
        }
    }
    rec.beginJob();
    MergeOutcome mo;
    bool merged = false;
    if (io_ok) {
        SpanRecorder::Scope s(rec, "svc.merge");
        merged = mergeShardJournals(m, dir, &mo, &err);
    }
    r.judge(io_ok && merged && mo.complete && mo.result.pass(),
            std::string("traced campaign ") + c.label + ": " + err);
}

Result
campaignWorkload(const Options &o, SpanRecorder &rec)
{
    Result r;
    const std::string root = o.outDir + "/journals";
    std::vector<CrashScenario> scens;
    for (const CampaignSpec &c : kCampaigns)
        scens.push_back(scenarioOf(c, o.seed));

    // What every crash run sets up: the app, its golden image, the
    // restored live image and a GpuSystem over it.
    SetupSamples setup{[&] {
        for (const CrashScenario &s : scens) {
            auto app = makeRegisteredApp(s.app, s.cfg.model, s.benchScale,
                                         s.seed);
            NvmDevice golden, live;
            app->setupNvm(golden);
            live.restoreImageFrom(golden);
            GpuSystem gpu(s.cfg, live);
            app->setupGpu(gpu);
        }
    }};

    std::vector<CampaignRound> first;
    RoundTimes points;
    double sim_cycles = 0.0;
    std::uint64_t rounds = 0;
    SimCounts round_counts, traced_counts;
    double replica_ms = 0.0, reference_ms = 0.0;
    const auto start = Clock::now();
    do {
        if (!o.trace)
            setup.sample();
        points.startRound();
        SimCounts this_round;
        for (std::size_t i = 0; i < scens.size(); ++i) {
            const CampaignSpec &c = kCampaigns[i];
            double wall_ms = 0.0;
            CampaignRound cr = runCampaign(c, scens[i],
                                           root + "/" + c.label, r,
                                           &wall_ms);
            points.addWall(wall_ms);
            std::uint64_t cycles = cr.manifest.probe.horizon;
            for (std::size_t k = 0; k < cr.verdicts.size(); ++k) {
                const CrashVerdict &v = cr.verdicts[k];
                const bool same = rounds == 0 ||
                                  (k < first[i].verdicts.size() &&
                                   sameVerdict(v, first[i].verdicts[k]));
                r.judge(v.pass() && same,
                        std::string("point ") + c.label + " #" +
                            std::to_string(k) +
                            (same ? " fails" : " differs from round 1"));
                points.addJob(v.wallUs / 1e3);
                cycles += v.crashAt;
            }
            if (o.trace)
                tracedCampaign(c, scens[i], cr,
                               root + "/" + c.label + "-traced", rec, r,
                               &this_round, &replica_ms, &reference_ms);
            if (rounds == 0) {
                sim_cycles += static_cast<double>(cycles);
                first.push_back(std::move(cr));
            }
        }
        if (rounds == 0)
            round_counts = this_round;
        else if (o.trace && !(this_round == round_counts))
            r.judge(false, "traced counts differ from round 1");
        traced_counts += this_round;
        ++rounds;
    } while (keepGoing(o, start, rounds));
    resetDir(root);

    r.values["sim_mcycles_per_s"] =
        ratio(sim_cycles / 1e6, median(points.wallMs) / 1e3);
    r.values["sim_kcycles"] = sim_cycles / 1e3;
    r.values["setup_s"] = median(setup.seconds);
    addJobMetrics(r, points);
    if (o.trace) {
        auto &v = r.values;
        addSimLayerMetrics(r, round_counts, traced_counts, rec);
        v["apps.setup_ms"] = median(rec.durationsMs("apps.setup"));
        v["apps.verify_recovered_ms"] =
            median(rec.durationsMs("apps.verify_recovered"));
        v["crashtest.probe_ms"] = median(rec.durationsMs("crashtest.probe"));
        v["mem.restore_ms"] = median(rec.durationsMs("mem.restore"));
        v["crashtest.crash_run_ms"] =
            median(rec.durationsMs("crashtest.crash_run"));
        v["crashtest.recovery_run_ms"] =
            median(rec.durationsMs("crashtest.recovery_run"));
        v["formal.pmo_check_ms"] = median(rec.durationsMs("formal.pmo_check"));
        std::uint64_t enumerated = 0;
        for (const CampaignRound &cr : first)
            enumerated += cr.manifest.probe.points.points.size();
        v["crashtest.points_enumerated"] = static_cast<double>(enumerated);
        v["svc.plan_ms"] = median(minus(rec.durationsMs("svc.plan"),
                                        rec.durationsMs("crashtest.probe")));
        v["svc.journal_append_ms"] =
            median(rec.durationsMs("svc.journal_append"));
        v["svc.merge_ms"] = median(rec.durationsMs("svc.merge"));
        v["tracing.overhead_pct"] =
            100.0 * (ratio(replica_ms, reference_ms) - 1.0);
    }
    return r;
}

// ---------------------------------------------------------------------
// Model-checker sweep
// ---------------------------------------------------------------------

struct McCombo
{
    const LitmusPattern *pattern = nullptr;
    SystemConfig cfg;
    ExploreLimits limits;
    bool seededBug = false;
    std::string label;
};

/**
 * True for the (pattern, model) pairs whose exploration schedules a
 * warp that has already run off the end of its program: Sm::
 * controlledIssue (src/gpu/sm.cc) then reads the instruction past the
 * end, so the footprint it hands the explorer is heap garbage. That
 * makes their schedule and pruning counts vary from run to run and can
 * crash the process through a garbage lane-address vector. They stay
 * out of the sweep until that read is fixed (NOTES.md, "Known defects").
 */
bool
readsPastProgramEnd(const std::string &pattern, ModelKind model)
{
    if (pattern == "cross-block")
        return model == ModelKind::Sbrp || model == ModelKind::ScopedBarrier;
    return model == ModelKind::ScopedBarrier &&
           (pattern == "transitive" || pattern == "re-release" ||
            pattern == "fan-out" || pattern == "fan-in");
}

/** The 7-pattern corpus x 4 models with and without pruning, then the
    corpus on SBRP with the seeded relaxed-order bug; minus the pairs
    readsPastProgramEnd() names. */
std::vector<McCombo>
mcCombos()
{
    std::vector<McCombo> out;
    for (bool prune : {true, false}) {
        for (const LitmusPattern &p : litmusCorpus()) {
            for (ModelKind m : {ModelKind::Gpm, ModelKind::Epoch,
                                ModelKind::Sbrp, ModelKind::ScopedBarrier}) {
                if (readsPastProgramEnd(p.name, m))
                    continue;
                McCombo c;
                c.pattern = &p;
                c.cfg = SystemConfig::testDefault(
                    m, m == ModelKind::Gpm ? SystemDesign::PmFar
                                           : SystemDesign::PmNear);
                c.limits.prune = prune;
                c.label = p.name + "/" + toString(m) +
                          (prune ? "" : "/no-prune");
                out.push_back(c);
            }
        }
    }
    for (const LitmusPattern &p : litmusCorpus()) {
        if (readsPastProgramEnd(p.name, ModelKind::Sbrp))
            continue;
        McCombo c;
        c.pattern = &p;
        c.cfg = SystemConfig::testDefault(ModelKind::Sbrp,
                                          SystemDesign::PmNear);
        c.cfg.unsafeRelaxedPersistOrder = true;
        c.seededBug = true;
        c.label = p.name + "/SBRP/seeded-bug";
        out.push_back(c);
    }
    return out;
}

/** Correct models prove absence; the seeded bug is caught exactly on
    the ordered patterns. */
bool
verdictAsExpected(const McCombo &c, const ExploreResult &res)
{
    if (!c.seededBug)
        return res.complete && !res.violationFound;
    return res.violationFound == c.pattern->ordered;
}

bool
sameExploration(const ExploreResult &a, const ExploreResult &b)
{
    return a.schedulesExplored == b.schedulesExplored &&
           a.alternativesPruned == b.alternativesPruned &&
           a.choicePoints == b.choicePoints && a.complete == b.complete &&
           a.violationFound == b.violationFound &&
           a.minimizeRuns == b.minimizeRuns;
}

Result
mcWorkload(const Options &o, SpanRecorder &rec)
{
    Result r;
    // The sweep's inputs: litmus scenarios, validated configs and
    // explorers, plus one GpuSystem per distinct configuration (the
    // construction every explored schedule repeats).
    SetupSamples setup{[] {
        std::vector<McCombo> combos = mcCombos();
        std::vector<McExplorer> explorers;
        for (const McCombo &c : combos) {
            c.cfg.validate();
            c.pattern->scenario(c.cfg.model);
            explorers.emplace_back(*c.pattern, c.cfg, c.limits);
        }
        // The first four combinations ("chain" under each model) hold
        // the four model configs; the last one holds the seeded-bug
        // config.
        for (std::size_t i : {std::size_t{0}, std::size_t{1},
                              std::size_t{2}, std::size_t{3},
                              combos.size() - 1}) {
            NvmDevice nvm;
            GpuSystem gpu(combos[i].cfg, nvm);
        }
    }};

    const std::vector<McCombo> combos = mcCombos();
    std::vector<ExploreResult> first;
    RoundTimes verdicts;
    double sweep_ms = 0.0;
    std::uint64_t passes = 0, schedules = 0, pruned = 0;
    const auto start = Clock::now();
    do {
        if (!o.trace)
            setup.sample();
        verdicts.startRound();
        std::vector<ExploreResult> pass;
        for (std::size_t i = 0; i < combos.size(); ++i) {
            const McCombo &c = combos[i];
            const auto t0 = Clock::now();
            ExploreResult res =
                McExplorer(*c.pattern, c.cfg, c.limits).explore();
            const double ms = msSince(t0);
            verdicts.addJob(ms);
            verdicts.addWall(ms);
            sweep_ms += ms;
            const bool same =
                passes == 0 || sameExploration(res, first[i]);
            r.judge(verdictAsExpected(c, res) && same,
                    "mc " + c.label +
                        (same ? " unexpected verdict"
                              : " differs from pass 1"));
            pass.push_back(std::move(res));
        }
        if (o.trace) {
            for (std::size_t i = 0; i < combos.size(); ++i) {
                const McCombo &c = combos[i];
                rec.beginJob();
                SpanRecorder::Scope root(rec, "mc.verdict");
                ExploreResult res;
                {
                    SpanRecorder::Scope s(rec, "mc.explore");
                    res = McExplorer(*c.pattern, c.cfg, c.limits).explore();
                }
                {
                    SpanRecorder::Scope s(rec, "mc.run_schedule");
                    McExplorer(*c.pattern, c.cfg, c.limits)
                        .runSchedule(McSchedule{});
                }
                r.judge(sameExploration(res, pass[i]),
                        "traced mc " + c.label + " differs");
            }
        }
        if (passes == 0) {
            first = std::move(pass);
            for (const ExploreResult &res : first) {
                schedules += res.schedulesExplored;
                pruned += res.alternativesPruned;
            }
        }
        ++passes;
    } while (keepGoing(o, start, passes));

    std::fprintf(stderr, "perfbench: %zu verdicts and %llu schedules per "
                 "pass\n", combos.size(),
                 static_cast<unsigned long long>(schedules));

    if (!o.trace) {
        // Simulated time of one pass: every run of a combination counted
        // at the length of its default schedule (the explorer reports
        // run counts, not cycles).
        double cycles = 0.0;
        for (std::size_t i = 0; i < combos.size(); ++i) {
            const McCombo &c = combos[i];
            const LitmusRun run = McExplorer(*c.pattern, c.cfg, c.limits)
                                      .runSchedule(McSchedule{});
            cycles += static_cast<double>(run.cycles) *
                      static_cast<double>(first[i].schedulesExplored +
                                          first[i].minimizeRuns);
        }
        r.values["sim_kcycles"] = cycles / 1e3;
        r.values["setup_s"] = median(setup.seconds);
        r.values["sim_mcycles_per_s"] =
            ratio(cycles / 1e6, median(verdicts.wallMs) / 1e3);
    }
    addJobMetrics(r, verdicts);
    if (o.trace) {
        auto &v = r.values;
        const double explore_ms = rec.totalMs("mc.explore");
        v["mc.explore_ms"] = median(rec.durationsMs("mc.explore"));
        v["mc.run_schedule_ms"] = median(rec.durationsMs("mc.run_schedule"));
        v["mc.schedules_explored"] = static_cast<double>(schedules);
        v["mc.alternatives_pruned"] = static_cast<double>(pruned);
        v["mc.prune_ratio"] = ratio(static_cast<double>(pruned),
                                    static_cast<double>(pruned + schedules));
        v["mc.schedules_per_s"] =
            ratio(static_cast<double>(schedules * passes),
                  explore_ms / 1e3);
        v["tracing.overhead_pct"] =
            100.0 * (ratio(explore_ms, sweep_ms) - 1.0);
    }
    return r;
}

// ---------------------------------------------------------------------

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <launch_pb_bound|"
                 "launch_unbuffered|campaign|mc_sweep>\n"
                 "                 --seed <n> --seconds <s> --trace <0|1>"
                 " --out-dir <dir>\n"
                 "                 [--launches app/model/design,...]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--out-dir") {
            o.outDir = v;
        } else if (a == "--launches") {
            o.launches = v;
        } else {
            return usage(("unknown option " + a).c_str());
        }
        if (end && (*end != '\0' || v.empty()))
            return usage(("bad number for " + a).c_str());
    }
    if (!(o.seconds > 0.0 && o.seconds <= 120.0))
        return usage("--seconds must be in (0, 120]");

    const bool launch = o.workload == "launch_pb_bound" ||
                        o.workload == "launch_unbuffered";
    if (!launch && o.workload != "campaign" && o.workload != "mc_sweep")
        return usage(("unknown workload '" + o.workload + "'").c_str());
    std::vector<LaunchSpec> specs;
    if (launch) {
        specs = workloadLaunches(o.workload);
        if (!o.launches.empty()) {
            specs.clear();
            if (!parseLaunchList(o.launches, &specs))
                return usage("bad --launches list");
        }
    }
    std::error_code ec;
    std::filesystem::create_directories(o.outDir, ec);
    if (ec)
        return usage(("cannot create --out-dir: " + ec.message()).c_str());

    try {
        SpanRecorder rec;
        Result r = launch ? launchWorkload(o, specs, rec)
                 : o.workload == "campaign" ? campaignWorkload(o, rec)
                                            : mcWorkload(o, rec);
        r.values["peak_rss_mb"] = peakRssMb();
        r.values["error_rate"] = ratio(static_cast<double>(r.failed),
                                       static_cast<double>(r.attempted));
        if (o.trace) {
            const std::string path = o.outDir + "/spans-" + o.workload +
                                     "-seed" + std::to_string(o.seed) +
                                     ".json";
            if (!rec.writeJson(path, o.workload, o.seed)) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             path.c_str());
                return 1;
            }
            std::fprintf(stderr, "perfbench: %zu spans -> %s\n%s",
                         rec.spans().size(), path.c_str(),
                         rec.summary().c_str());
        }
        printResult(r, o.trace);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
