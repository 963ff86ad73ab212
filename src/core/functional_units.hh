/**
 * @file
 * Functional unit pool (Table 2: 4 integer ALUs, 2 integer MUL/DIV,
 * 2 memory ports, 2 FP adders, 1 FP MUL/DIV).  Pipelined units accept
 * one operation per cycle; divides occupy their unit until done.
 */

#ifndef FLYWHEEL_CORE_FUNCTIONAL_UNITS_HH
#define FLYWHEEL_CORE_FUNCTIONAL_UNITS_HH

#include <vector>

#include "common/arena.hh"
#include "common/types.hh"
#include "core/params.hh"
#include "isa/instruction.hh"

namespace flywheel {

class BinWriter;
class BinReader;

/**
 * Per-cycle functional unit arbiter.  beginCycle() must be called at
 * each issue cycle before tryIssue().
 */
class FunctionalUnits
{
  public:
    FunctionalUnits(Arena &arena, const FuParams &fus,
                    const FuLatencies &lat);

    /** Reset per-cycle issue counts for the cycle starting at @p now. */
    void beginCycle(Tick now);

    /**
     * Try to claim a unit for @p op issuing at @p now with cycle
     * duration @p period_ps.  Unpipelined ops (divides) mark their
     * unit busy for the full latency.
     * @return true if a unit (and, for memory ops, a port) was free.
     */
    bool tryIssue(OpClass op, Tick now, double period_ps);

    /**
     * Side-effect-free availability probe: would tryIssue succeed,
     * given @p already_claimed prior claims of the same class this
     * cycle?  Used by the Flywheel's atomic issue-unit dispatch,
     * which must check a whole unit before claiming anything.
     */
    bool canIssue(OpClass op, Tick now, unsigned already_claimed) const;

    /** Opaque snapshot of all claim state (for atomic unit issue). */
    struct State
    {
        static constexpr unsigned kPools = 5;
        unsigned used[kPools] = {};
        bool busySaved = false;
        std::vector<Tick> busy[kPools];
    };

    /**
     * Capture claim state into @p out; restore() undoes claims made
     * since.  Only divides write the per-unit busy times, so with
     * @p divides false (no divide is claimed before the restore) just
     * the per-cycle claim counts are copied.  The caller keeps one
     * State and reuses it: after the first full save() the per-pool
     * buffers are right-sized, so the save/restore pair is
     * allocation-free on the replay hot path.
     */
    void save(State &out, bool divides) const;
    void restore(const State &state);

    /** Serialize all per-unit busy state (simulator snapshots). */
    void save(BinWriter &w) const;
    /** Restore state saved by save(BinWriter&) (geometry must match). */
    void restore(BinReader &r);

  private:
    struct Pool
    {
        explicit Pool(Arena &arena) : busyUntil(arena) {}

        unsigned count = 0;
        unsigned usedThisCycle = 0;
        ArenaVector<Tick> busyUntil;  ///< per-unit, for unpipelined ops
    };

    Pool &poolFor(OpClass op);
    bool claim(Pool &pool, Tick now, Tick busy_until);

    FuLatencies lat_;  // lint: nosnapshot(construction-time latency config)
    Pool intAlu_;
    Pool intMulDiv_;
    Pool memPort_;
    Pool fpAdd_;
    Pool fpMulDiv_;
};

} // namespace flywheel

#endif // FLYWHEEL_CORE_FUNCTIONAL_UNITS_HH
