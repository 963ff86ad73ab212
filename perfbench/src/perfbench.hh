/**
 * @file
 * The simulator benchmark: four closed-loop workloads that drive the
 * flywheel library from outside through its public API, a catalog of
 * the metrics they report, a span recorder for the traced run, and
 * the paper-target gap computation.
 *
 * Host time is what the simulator takes to run; simulated time is
 * what the modelled core takes.  Every metric here is host time
 * unless its name says otherwise (the paper.* gaps and the core /
 * flywheel / branch / mem ratios and counts are simulated).
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/experiment.hh"
#include "common/json.hh"
#include "core/core_base.hh"
#include "core/params.hh"
#include "sweep/sweep.hh"
#include "workload/program.hh"

namespace perfbench {

// ---- metric catalog ------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better;  ///< "higher" or "lower"
};

/** Reported by every untraced run (BENCHMARK.json "end_to_end"). */
const std::vector<MetricDef> &endToEndMetrics();
/** Reported by every traced run (BENCHMARK.json "per_layer"). */
const std::vector<MetricDef> &perLayerMetrics();

// ---- statistics ------------------------------------------------------------

/** Linear-interpolated percentile @p p (0..100) of @p v; 0 if empty. */
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/** @p a / @p b, or 0 when nothing was counted. */
inline double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

using Clock = std::chrono::steady_clock;
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---- spans -----------------------------------------------------------------

/**
 * In-memory span recorder for the traced run.  Spans are recorded
 * from the benchmark's own thread around its calls into each layer;
 * a disabled recorder costs one branch per scope.  Spans of one cell
 * share an id.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t id = 0;  ///< cell / grid the span belongs to
        int parent = -1;       ///< index into spans(), -1 for a root
        double start = 0.0;    ///< seconds since the recorder began
        double end = 0.0;
    };

    /** Self time aggregated over every span of one name. */
    struct SelfTime
    {
        std::string name;
        std::size_t count = 0;
        double totalSeconds = 0.0;
        double selfSeconds = 0.0;  ///< total minus time children cover
    };

    /** Closes its span on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder *recorder, int index)
            : recorder_(recorder), index_(index)
        {}
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *recorder_;
        int index_;
    };

    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    /** Open a span nested in the innermost open one. */
    Scope scope(const char *name, std::uint64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Per-name self-time table, largest self time first. */
    std::vector<SelfTime> selfTimes() const;

    /** Chrome/Perfetto trace-event document of every span. */
    flywheel::Json chromeJson() const;

  private:
    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

// ---- workloads -------------------------------------------------------------

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";  ///< repository root (specs/, tests/golden/)
    std::string workDir;     ///< scratch directory, removed afterwards
};

struct WorkloadResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;   ///< one line per failed cell
    std::map<std::string, double> metrics;  ///< end-to-end and per-layer
    /** Human-facing facts beside the metrics (sample counts...). */
    std::vector<std::pair<std::string, std::string>> notes;
    /** Raw per-pass / per-grid samples behind the metrics. */
    std::map<std::string, std::vector<double>> samples;

    void fail(const std::string &why)
    {
        ++failed;
        failures.push_back(why);
    }
};

extern const char *const kWorkloadNames[4];

/** cell-baseline / cell-flywheel. */
WorkloadResult runCellWorkload(const RunOptions &opts, SpanRecorder &spans);
/** figures-cold / figures-warm. */
WorkloadResult runFiguresWorkload(const RunOptions &opts,
                                  SpanRecorder &spans);

/**
 * A window asked to retire @p requested instructions stops at the end
 * of the cycle that reaches the count, so it retires at least that
 * many and fewer than one more retire group.
 */
inline bool
retiredAsRequested(std::uint64_t retired, std::uint64_t requested,
                   const flywheel::CoreParams &params)
{
    return retired >= requested && retired < requested + params.commitWidth;
}

/**
 * Set the simulated core.*, flywheel.* and branch.* counts and ratios
 * from window totals: @p all over every measured cell, @p flywheel over
 * the Flywheel-core cells, @p base_cycles = simulated time in
 * baseline-clock cycles.
 */
void reportCoreCounts(const flywheel::CoreStats &all,
                      const flywheel::CoreStats &flywheel,
                      const flywheel::EnergyEvents &events,
                      double base_cycles,
                      std::map<std::string, double> *metrics);

// ---- cell inputs -------------------------------------------------------------

/** One reseeded paper program: profile knobs unchanged. */
struct CellProgram
{
    flywheel::BenchProfile profile;
    std::uint64_t streamSeed = 0;
};

/**
 * Program set @p set of the workload seed: the ten paper profiles,
 * each reseeded, in plotting order.
 */
std::vector<CellProgram> cellPrograms(std::uint64_t seed,
                                      unsigned set = 0);

// ---- replay probes -----------------------------------------------------------

/**
 * Accumulates the workload, branch and memory replay probes over
 * several programs: each add() feeds one program's stream of
 * @p warmup + @p measure instructions to WorkloadStream::next, to
 * Gshare/Btb and to MemoryHierarchy::fetch/data.
 */
class ReplayProbe
{
  public:
    void add(const flywheel::StaticProgram &program,
             std::uint64_t stream_seed, std::uint64_t warmup,
             std::uint64_t measure, const flywheel::CoreParams &params,
             SpanRecorder &spans, std::uint64_t id);

    /** Set the workload.*, branch.ns_per_lookup and mem.* metrics;
     *  reads core.ns_per_instr for workload.gen_share_of_run. */
    void report(std::map<std::string, double> *metrics) const;

  private:
    double genSeconds_ = 0.0, genInstrs_ = 0.0;
    double branchSeconds_ = 0.0, branchLookups_ = 0.0;
    double memSeconds_ = 0.0, memAccesses_ = 0.0;
    double cacheAccesses_[3] = {0, 0, 0};  ///< l1i, l1d, l2
    double cacheMisses_[3] = {0, 0, 0};
};

/** Median host time to load the five figure specs, @p repeats times. */
double probeSpecLoad(const std::string &root, unsigned repeats,
                     WorkloadResult *out);

// ---- paper targets -----------------------------------------------------------

/** One figure average the paper states, and the model's value. */
struct PaperTarget
{
    std::string metric;   ///< "paper.fig12_fe50"
    double paper = 0.0;   ///< the bench/fig*.cc "paper:" value
    double model = 0.0;   ///< the renderer's average over the table
    double gap() const { return model / paper - 1.0; }
};

/**
 * Evaluate every paper target over the finished fig11..fig15 tables
 * (keyed by spec name), averaging exactly as the renderers do.
 */
std::vector<PaperTarget>
paperTargets(const std::map<std::string, const flywheel::SweepTable *> &t);

/** max |gap| over @p targets. */
double paperGapMax(const std::vector<PaperTarget> &targets);

/** The figure specs the figures-* workloads run, in order. */
extern const char *const kFigureSpecs[5];

/** Load specs/<name>.json for every kFigureSpecs entry. */
bool loadFigureSpecs(const std::string &root,
                     std::vector<flywheel::ExperimentSpec> *out,
                     std::string *error);

// ---- process -----------------------------------------------------------------

/** Peak resident set of this process in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
