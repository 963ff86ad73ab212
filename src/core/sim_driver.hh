/**
 * @file
 * High-level simulation driver: the public API the examples and the
 * paper-reproduction benches use.  A RunConfig names a benchmark, a
 * core flavour and a clock plan; runSim() builds the workload and
 * core, performs the warm-up, measures, and returns timing, energy
 * and behavioural statistics for the measurement window only.
 */

#ifndef FLYWHEEL_CORE_SIM_DRIVER_HH
#define FLYWHEEL_CORE_SIM_DRIVER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/core_base.hh"
#include "core/params.hh"
#include "power/energy_model.hh"
#include "timing/technology.hh"
#include "workload/program.hh"

namespace flywheel {

class Checkpointer;

/** Which core to simulate. */
enum class CoreKind
{
    Baseline,           ///< fully synchronous out-of-order (Table 2)
    RegisterAllocation, ///< Flywheel without the Execution Cache
    Flywheel,           ///< full dual-clock + pre-scheduled execution
};

/**
 * Observability attachments for one run.  None of this enters the
 * configKey() or the serialized RunResult: stats/trace documents
 * describe *how* a run executed, while the result is *what* it
 * computed — the golden figures and the sweep determinism contract
 * stay byte-identical whether or not observation is on.
 */
struct ObsConfig
{
    /** Attach a flywheel.stats.v1 registry dump to the RunResult. */
    bool collectStats = false;
    /** Non-null = pipeline tracing on; the run merges its events
     *  here when it finishes.  Caller owns the sink. */
    obs::TraceSink *traceSink = nullptr;
    std::uint32_t traceMask = obs::kTraceCatAll;
    std::size_t traceCapacity = obs::Tracer::kDefaultCapacity;
    /** Chrome trace thread name ("" = the benchmark name). */
    std::string traceLabel;

    /** True if the run must actually execute (no cache short-cut). */
    bool active() const { return collectStats || traceSink != nullptr; }
};

/** One simulation run description. */
struct RunConfig
{
    BenchProfile profile;           ///< workload to execute
    CoreKind kind = CoreKind::Baseline;
    CoreParams params;              ///< structure sizes and clocks
    TechNode node = TechNode::N130; ///< for the energy model
    /** Paper extension: power-gate front-end logic in trace mode. */
    bool frontEndPowerGating = false;
    std::uint64_t warmupInstrs = 100000;
    std::uint64_t measureInstrs = 300000;
    ObsConfig obs;                  ///< stats/trace attachments
};

/**
 * Host-side execution telemetry for one run: wall-clock per phase and
 * warmup provenance.  Never serialized (toJson(RunResult) excludes
 * it) — host timing must not leak into deterministic artifacts.
 */
struct RunTelemetry
{
    double warmupSeconds = 0.0;
    double measureSeconds = 0.0;
    double reduceSeconds = 0.0;
    bool warmupRestored = false;  ///< warm state came from a checkpoint
};

/** Results over the measurement window. */
struct RunResult
{
    std::uint64_t instructions = 0;
    Tick timePs = 0;               ///< execution time (the paper's metric)
    double ipc = 0.0;              ///< per baseline-period cycles
    double ecResidency = 0.0;      ///< alternative-path fraction
    double mispredictRate = 0.0;   ///< per conditional branch
    CoreStats stats;               ///< window deltas
    EnergyEvents events;           ///< window deltas
    EnergyBreakdown energy;        ///< from the window events
    double averageWatts = 0.0;

    /**
     * flywheel.stats.v1 registry dump of the run's final core state
     * (only when ObsConfig::collectStats; shared so copying results
     * around the sweep engine stays cheap).  Excluded from
     * toJson(RunResult).
     */
    std::shared_ptr<const Json> statsDoc;
    /** Host-side phase timers.  Excluded from toJson(RunResult). */
    RunTelemetry telemetry;
};

/**
 * Clock configuration helper: baseline period 1000 ps with the
 * front-end sped up by @p fe_boost (0.0 .. 1.0) and the
 * trace-execution back-end by @p be_boost (the paper's FEx%, BEy%
 * notation).  The baseline core ignores the boosts.
 */
CoreParams clockedParams(double fe_boost, double be_boost);

/**
 * True when clockedParams() can use @p boost: it is finite, and the
 * period 1000 / (1 + boost) ps rounds to at least one tick and is at
 * most 1000 base periods (so boost lies in [-0.999, 1999]).  Other
 * values give a clock that never advances or one too slow to simulate;
 * callers reject them up front.
 */
bool isValidClockBoost(double boost);

/**
 * Build the core @p config describes over @p stream (the factory
 * runSim uses; exposed for the snapshot fuzzer, the perfbench cells
 * and tests).
 */
std::unique_ptr<CoreBase> makeCore(const RunConfig &config,
                                   WorkloadStream &stream);

/**
 * Phase 1 of runSim, exposed for other drivers (the perfbench cells,
 * which time each phase on its own):
 * bring @p core to its post-warmup state.  With a store in
 * @p checkpoints the warm state is restored from it, or simulated and
 * published to it; with null the warmup is simulated.
 * @return true if the warm state was restored from a checkpoint.
 */
bool runSimWarmup(const RunConfig &config, CoreBase &core,
                  Checkpointer *checkpoints);

/**
 * Phase 2 of runSim, exposed for other drivers (the perfbench cells):
 * invoke @p window(*core, config.measureInstrs) once.  The callback
 * runs the core for exactly that many retired instructions and owns
 * any bookkeeping around it (delta capture, wall-clock timing).
 * @p stream and the unique_ptr form of @p core are unused; they stay
 * only because the perfbench cells call this signature.
 */
void forEachMeasureWindow(
    const RunConfig &config, WorkloadStream &stream,
    std::unique_ptr<CoreBase> &core,
    const std::function<void(CoreBase &, std::uint64_t)> &window);

/**
 * Phase 3 of runSim, exposed for other drivers (the perfbench cells,
 * which time the power reduction as its own layer): reduce the
 * measurement-window deltas to a RunResult — derived rates, the
 * energy model, average power.
 */
RunResult reduceToResult(const RunConfig &config,
                         const EnergyEvents &events,
                         const CoreStats &stats);

/**
 * The simulation @p config runs, with every field the simulator never
 * reads reset to its default: the tech node (0.13 µm) and the
 * front-end gating flag, which only reduceToResult() reads, and for
 * the baseline core the FE/BE clock plan and the Flywheel-only knobs
 * (it clocks everything at basePeriodPs).  Two configs with equal
 * simulationConfig() measure identical window deltas, so one run
 * serves both: reduceToResult() with each config gives each its own
 * RunResult.
 */
RunConfig simulationConfig(const RunConfig &config);

/** Execute one run, simulating its warmup. */
RunResult runSim(const RunConfig &config);

/**
 * Same, reusing warmup checkpoints from @p checkpoints (the sweep
 * engine's shared store) when it is non-null.  The run phases are:
 * warm-up (runSimWarmup), measurement, reduction to a RunResult.
 */
RunResult runSim(const RunConfig &config, Checkpointer *checkpoints);

/**
 * Strict instruction-count parser shared by the FLYWHEEL_SIM_INSTRS /
 * FLYWHEEL_WARMUP_INSTRS overrides: decimal digits only, no sign, no
 * trailing text, no overflow, value >= 1.  Mirrors the FLYWHEEL_JOBS
 * discipline (ThreadPool::parseJobsValue) — strtoull alone would
 * silently accept "100k" (prefix), "-1" (wraps to a huge count) and
 * overflowed values.
 */
bool parseInstrCount(const char *text, std::uint64_t *out);

/** Measurement length override from FLYWHEEL_SIM_INSTRS, if set. */
std::uint64_t defaultMeasureInstrs();

/** Warm-up length override from FLYWHEEL_WARMUP_INSTRS, if set. */
std::uint64_t defaultWarmupInstrs();

} // namespace flywheel

#endif // FLYWHEEL_CORE_SIM_DRIVER_HH
