/**
 * @file
 * Session — the one front door to the simulator.  A Session owns a
 * SweepRunner (worker pool + in-memory memo of finished simulations,
 * so grids of one Session share runs) and executes declarative
 * ExperimentSpecs: run() simulates a spec's grid (with optional
 * bit-exact repeat checking), verify() routes its non-baseline
 * points through the differential checker, and the golden helpers
 * wrap the figure-regression snapshots.  Benches,
 * tools and examples talk to this facade instead of wiring
 * runSim()/SweepRunner/golden.* individually.
 */

#ifndef FLYWHEEL_API_SESSION_HH
#define FLYWHEEL_API_SESSION_HH

#include <string>
#include <vector>

#include "api/experiment.hh"
#include "sweep/sweep.hh"
#include "verify/differential.hh"
#include "verify/golden.hh"

namespace flywheel {

/** Knobs for one Session. */
struct SessionOptions
{
    /** Worker threads; 0 = FLYWHEEL_JOBS env or hardware concurrency. */
    unsigned jobs = 0;
    /**
     * Warm checkpoint store shared by every run of the session (see
     * SweepOptions::checkpointDir): "" disables checkpointing, a
     * directory persists warmup checkpoints across invocations,
     * ":memory:" shares them within this process only.
     */
    std::string checkpointDir;
    /** Store size cap (see SweepOptions::checkpointCapBytes). */
    std::uint64_t checkpointCapBytes = 0;
    /** Per-point progress callback (see SweepOptions::progress). */
    decltype(SweepOptions::progress) progress;
    /**
     * Observability attachments stamped onto every run of the session
     * (see SweepOptions::obs): stats collection and/or pipeline
     * tracing.  Observed runs always simulate.
     */
    ObsConfig obs;
};

/** Outcome of Session::verify() over one spec. */
struct VerifyReport
{
    struct Entry
    {
        SweepPoint point;
        DiffReport report;
    };

    std::vector<Entry> entries;

    bool ok() const;
    std::size_t failureCount() const;

    /** One line per checked point plus a verdict line. */
    std::string summary() const;
};

class Session
{
  public:
    explicit Session(SessionOptions options = {});

    /**
     * Execute every point of @p spec on the worker pool; rows come
     * back in expansion order.  When spec.repeat > 1, each point is
     * re-simulated repeat-1 more times bypassing the memo, and any
     * deviation from the first result is a fatal error (simulation
     * nondeterminism must never pass silently).
     */
    SweepTable run(const ExperimentSpec &spec);

    /**
     * Differential verification of @p spec: every distinct
     * non-baseline (benchmark, kind, params) combination in the
     * spec's grid is cross-checked against the baseline core and the
     * workload oracle.  Tech node and power gating do not affect
     * architectural behaviour, so points differing only in those are
     * checked once.
     */
    VerifyReport verify(const ExperimentSpec &spec);

    /** Golden-figure regression against "<dir>/<figure>.json". */
    std::vector<GoldenDiff> checkGolden(const std::string &dir,
                                        const GoldenOptions &opts = {});
    /** Rebuild and overwrite the golden snapshots in @p dir. */
    bool refreshGolden(const std::string &dir,
                       const GoldenOptions &opts = {});

    SweepRunner &runner() { return runner_; }
    unsigned jobs() const { return runner_.jobs(); }

  private:
    SweepRunner runner_;
};

} // namespace flywheel

#endif // FLYWHEEL_API_SESSION_HH
