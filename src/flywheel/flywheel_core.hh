/**
 * @file
 * The Flywheel microarchitecture (paper Section 3): a dual-clock
 * out-of-order core with pre-scheduled execution.
 *
 * Two operating modes:
 *
 *  - **Trace creation**: the front-end (Fetch1 Fetch2 Decode Rename
 *    Dispatch) runs in its own clock domain at fePeriodPs; the
 *    back-end (Issue Window, Register Update, RegRead, Execute,
 *    WriteBack, Retire) runs at the baseline period because the
 *    Wake-Up/Select loop is in it.  Dispatch crosses the domain
 *    boundary through the Dual Clock Issue Window with one back-end
 *    cycle of synchronization latency; no wake-up can be lost thanks
 *    to duplicated tag matching (modelled through the physical
 *    readiness scoreboard).  Issued groups are appended to the trace
 *    under construction as Issue Units.
 *
 *  - **Trace execution**: after a trace is found in the Execution
 *    Cache, the whole front-end and the Issue Window are clock gated
 *    and the back-end switches to beFastPeriodPs.  One Issue Unit per
 *    cycle streams from the EC through Register Update and RegRead
 *    directly to the functional units, VLIW-style, with in-order
 *    interlocks on operand readiness.  A replayed branch whose
 *    dynamic direction differs from the recorded path diverges the
 *    trace: younger slots are squashed, and the EC is searched at the
 *    correct target.
 *
 * Trace changes pay the checkpoint costs of the two-phase renaming
 * scheme: with the SRT, a cleanly-ended trace switches in one cycle;
 * a mispredict-ended trace must wait for the offending instruction to
 * retire so the FRT can be copied into the RT.  Pool redistribution
 * runs on the paper's 500k-cycle counters and invalidates the EC.
 *
 * With execCacheEnabled = false this core is the paper's
 * "Register Allocation" configuration (Fig 11): dual-clock issue
 * window plus the two-phase renaming, but no alternative execution
 * path.
 */

#ifndef FLYWHEEL_FLYWHEEL_FLYWHEEL_CORE_HH
#define FLYWHEEL_FLYWHEEL_FLYWHEEL_CORE_HH

#include <memory>

#include "core/core_base.hh"
#include "flywheel/exec_cache.hh"
#include "flywheel/pool_rename.hh"

namespace flywheel {

/** Dual-clock core with pre-scheduled execution. */
class FlywheelCore : public CoreBase
{
  public:
    FlywheelCore(const CoreParams &params, WorkloadStream &stream);

    void run(std::uint64_t n) override;

    /** Fraction of retired instructions served by the EC path. */
    double ecResidency() const;

    const ExecCache &execCache() const { return ec_; }
    const PoolRenameUnit &pools() const { return pools_; }

    /**
     * Mutable Execution Cache access for verification tooling only:
     * fault-injection tests corrupt resident traces through this to
     * prove the replay validation catches them.  Not for simulation
     * code.
     */
    ExecCache &mutableExecCache() { return ec_; }

    void save(Snapshot &snap) const override;
    void restore(const Snapshot &snap) override;

    /**
     * Trace under construction (instructions append as they issue).
     * Public only for the snapshot codec; simulation code treats it
     * as internal.
     */
    struct Builder
    {
        bool active = false;
        bool bounded = false;        ///< endSeq is known
        Addr startPc = 0;
        InstSeqNum startSeq = 0;
        InstSeqNum endSeq = 0;
        std::uint64_t appended = 0;
        std::vector<TraceSlot> slots;
        std::vector<IssueUnit> units;

        std::uint64_t
        expected() const
        {
            return endSeq - startSeq + 1;
        }
    };

  protected:
    bool canRenameDest(const InFlightInst &inst) override;
    void renameSrcs(InFlightInst &inst) override;
    void renameDest(InFlightInst &inst) override;
    void onIssueGroup(const std::vector<InFlightInst *> &group,
                      Tick now) override;
    void onMispredictResolved(InFlightInst &inst, Tick now) override;
    void onRetire(InFlightInst &inst, Tick now) override;
    bool fetchGate(Addr pc, Tick now) override;
    std::string progressDebug() const override;

  private:
    enum class Mode { Create, Exec };

    /** Live replay of one trace. */
    struct Replay
    {
        Trace *trace = nullptr;
        std::vector<DynInst> actual;   ///< consumed correct-path insts
        std::uint32_t valid = 0;       ///< matched prefix length V
        bool divergent = false;        ///< valid < trace length
        bool divergenceResolved = false;
        std::uint32_t nextUnit = 0;
        std::uint32_t allocated = 0;   ///< ranks allocated into the ROB
        std::uint32_t allocLimit = 0;  ///< shrinks to V on divergence
        std::uint32_t lastUnit = 0;    ///< last unit that must issue
        std::uint32_t blocksRead = 0;
        Tick start = 0;
        InstSeqNum baseSeq = 0;
        bool endHandled = false;
        std::vector<InFlightInst *> byRank;
        /**
         * Source register the next unit last failed its operand check
         * on (kNoPhysReg = none).  While it is not ready the unit
         * cannot issue, so replayIssue() returns without re-checking.
         * Not serialized: a restored replay re-derives it.
         */
        PhysReg blockedOn = kNoPhysReg;

        /** Back to the idle state, keeping vector capacity: replays
         *  start every few hundred cycles, so the buffers are reused
         *  instead of reallocated. */
        void
        reset()
        {
            trace = nullptr;
            actual.clear();
            valid = 0;
            divergent = false;
            divergenceResolved = false;
            nextUnit = 0;
            allocated = 0;
            allocLimit = 0;
            lastUnit = 0;
            blocksRead = 0;
            start = 0;
            baseSeq = 0;
            endHandled = false;
            byRank.clear();
            blockedOn = kNoPhysReg;
        }
    };

    /** Queued switch to a replay once constraints are met. */
    struct PendingReplay
    {
        bool valid = false;
        Trace *trace = nullptr;
        Tick earliest = 0;
        InstSeqNum afterRetire = 0;  ///< 0 = no retirement constraint
        Tick afterRetireTick = kTickMax;
    };

    // --- per-edge work ----------------------------------------------------
    void feEdge(Tick now);
    void beEdge(Tick now);

    // --- trace building ---------------------------------------------------
    void appendToBuilder(Builder &b,
                         const std::vector<InFlightInst *> &group,
                         Tick now);
    void finalizeBuilder(Builder &b, Tick now);
    void maybeCompleteDrain(Tick now);

    // --- trace replay -----------------------------------------------------
    /** @return true on an EC hit (a pending replay was queued). */
    bool ecLookupAndQueue(Addr pc, Tick now, InstSeqNum after_retire,
                          Tick extra_delay_cycles);
    void maybeStartPendingReplay(Tick now);
    void enterExec(Tick now);
    void replayAllocate(Tick now);
    void replayIssue(Tick now);
    void maybeHandleReplayEnd(Tick now);
    void resolveDivergence(InFlightInst &branch, Tick now);
    void finishReplay(Tick now);
    void exitToCreate(Tick now, bool resume_fetch);
    bool replayActive() const { return replay_.trace != nullptr; }
    bool replayAllocDone() const;
    bool replayIssueDone() const;

    // --- pool redistribution ----------------------------------------------
    void maybeRedistribute(Tick now);

    DynInst synthesizeWrongPath(const TraceSlot &slot,
                                InstSeqNum seq) const;

    PoolRenameUnit pools_;
    ExecCache ec_;

    Mode mode_ = Mode::Create;
    Tick feP_;     // lint: nosnapshot(derived from params in ctor)
    Tick beBase_;  // lint: nosnapshot(derived from params in ctor)
    Tick beFast_;  // lint: nosnapshot(derived from params in ctor)
    Tick beCur_;
    Tick nextFe_ = 0;
    Tick nextBe_ = 0;

    Builder builder_;
    Builder finalizing_;
    bool needNewTrace_ = true;
    bool draining_ = false;
    Addr drainLookupPc_ = 0;

    Replay replay_;
    PendingReplay pending_;

    std::uint64_t beCyclesSinceCheck_ = 0;
    bool redistributionArmed_ = false;

    // Per-cycle scratch for replayIssue (reused, never reallocated on
    // the trace-execution hot path).
    std::vector<InFlightInst *> gatedScratch_;      // lint: nosnapshot(per-cycle scratch)
    std::vector<InFlightInst *> freeSlotsScratch_;  // lint: nosnapshot(per-cycle scratch)
    std::vector<InstSeqNum> coStoresScratch_;       // lint: nosnapshot(per-cycle scratch)
    FunctionalUnits::State fuStateScratch_;         // lint: nosnapshot(per-cycle scratch)
};

} // namespace flywheel

#endif // FLYWHEEL_FLYWHEEL_FLYWHEEL_CORE_HH
