/**
 * @file
 * The Issue Window: a monolithic scheduling window in the style of
 * the MIPS R10000 issue queue [6].  Entries are written at Dispatch
 * and become visible to the Wake-Up/Select logic at a per-entry tick
 * — one cycle later in the synchronous baseline, or after the
 * synchronization latency of the Dual Clock Issue Window when the
 * front-end runs in its own domain (Section 3.2).
 *
 * Operand readiness comes from the physical register readiness
 * scoreboard owned by the core, which models the combined effect of
 * the RAT sampling at Dispatch plus the (duplicated) tag matching in
 * Wake-Up: no wake-up is ever lost, exactly the behaviour the
 * paper's two-cycle duplicated tag match guarantees (Fig 5).
 *
 * Wake-up is event driven rather than a per-cycle rescan.  An entry
 * is in exactly one of three places:
 *
 *  - a **wait list**: some source register is still unwritten
 *    (scoreboard tick kTickMax).  Each physical register heads an
 *    intrusive list threaded through its consumers' wakeNext links;
 *    wake() drains it when the producer's tick becomes known.
 *  - the **timed queue**: every operand tick is known, so the entry
 *    can be selected from readyAt = max(iwVisible, src ticks).  An
 *    array sorted latest first, so due entries pop off the back.
 *  - the **ready set**: readyAt has passed (promote()).  A bitmask
 *    over the age-ordered slots, so select walks it oldest first.
 *
 * Select therefore sees exactly the entries that are visible with
 * both operands ready at now, oldest first.  This relies on one
 * scoreboard invariant the cores keep: while a window
 * entry reads a register, that register's tick changes only from
 * kTickMax to a known value (a register is reallocated only after
 * every reader of its previous value has issued).
 *
 * Dispatch inserts in program order (sequence numbers are globally
 * monotonic — EC replays bypass the window entirely), so slots are an
 * age-ordered array with tombstones for selected entries, and removal
 * is O(1) through the entry's recorded position.  Tombstones are
 * compacted once the array fills.  The wait lists, timed queue and
 * ready set are derived from the entries plus the scoreboard: they
 * are not serialized, and reschedule() rebuilds them after restore.
 */

#ifndef FLYWHEEL_CORE_ISSUE_WINDOW_HH
#define FLYWHEEL_CORE_ISSUE_WINDOW_HH

#include <cstdint>
#include <functional>
#include <type_traits>

#include "common/arena.hh"
#include "common/types.hh"
#include "core/inflight.hh"

namespace flywheel {

namespace obs { class StatsGroup; }
class BinWriter;
class BinReader;

/** Monolithic issue window holding pointers to ROB-resident state. */
class IssueWindow
{
  public:
    /** nextReady() result when no ready entry remains. */
    static constexpr std::size_t kNoSlot = ~std::size_t(0);

    /**
     * @param entries   window capacity
     * @param phys_regs size of the core's readiness scoreboard (one
     *                  wait list per physical register)
     */
    IssueWindow(Arena &arena, unsigned entries, unsigned phys_regs);

    bool full() const { return used_ >= capacity_; }
    bool empty() const { return used_ == 0; }
    unsigned occupancy() const { return used_; }
    unsigned capacity() const { return capacity_; }

    /**
     * Insert at Dispatch (visibility is recorded in the inst) and
     * schedule it against @p reg_ready, the core's scoreboard.
     */
    void insert(InFlightInst *inst, const Tick *reg_ready);

    /**
     * Register @p r's tick in @p reg_ready just became known: move
     * its waiting consumers on (to the timed queue, or straight into
     * the ready set when their tick has already been promoted).
     */
    void
    wake(PhysReg r, const Tick *reg_ready)
    {
        if (waitHead_[r] != nullptr)
            wakeWaiters(r, reg_ready);
    }

    /** Move every timed entry with readyAt <= @p now to the ready set. */
    void
    promote(Tick now)
    {
        promoted_ = now;
        if (!timed_.empty() && timed_.back().at <= now)
            promoteDue(now);
    }

    /**
     * Oldest ready slot at or after @p from, or kNoSlot; loads are
     * passed over when @p skip_loads.  Entries woken into the ready
     * set during a select walk are younger than their producer, so a
     * walk that advances with nextReady(slot + 1) still reaches them
     * in the same cycle.
     */
    std::size_t
    nextReady(std::size_t from, bool skip_loads = false) const
    {
        const std::size_t words = (order_.size() + 63) >> 6;
        const std::uint64_t skip = skip_loads ? ~std::uint64_t(0) : 0;
        std::size_t w = from >> 6;
        if (w >= words)
            return kNoSlot;
        std::uint64_t bits = ready_[w] & ~(loads_[w] & skip) &
                             (~std::uint64_t(0) << (from & 63));
        while (bits == 0) {
            if (++w >= words)
                return kNoSlot;
            bits = ready_[w] & ~(loads_[w] & skip);
        }
        return (w << 6) | static_cast<std::size_t>(__builtin_ctzll(bits));
    }

    /** Entry in a slot returned by nextReady(). */
    InFlightInst *at(std::size_t slot) const { return order_[slot]; }

    /** Remove @p inst from the ready set once it has been selected. */
    void remove(InFlightInst *inst);

    /**
     * Serialize the window (simulator snapshots).  The window stores
     * ROB pointers, so @p index_of maps each live entry to its ROB
     * index; tombstone positions are preserved exactly (each entry's
     * recorded iwPos stays valid).
     */
    void save(BinWriter &w,
              const std::function<std::uint64_t(const InFlightInst *)>
                  &index_of) const;

    /**
     * Restore state saved by save(); @p at resolves ROB indices.
     * Call reschedule() once the scoreboard is restored too.
     */
    void restore(BinReader &r,
                 const std::function<InFlightInst *(std::uint64_t)> &at);

    /** Rebuild wait lists, timed queue and ready set from scratch. */
    void reschedule(const Tick *reg_ready);

    /** Register occupancy/capacity gauges with the obs registry. */
    void registerStats(obs::StatsGroup &group) const;

  private:
    /** Timed-queue element: the readyAt key beside its entry. */
    struct Timed
    {
        Tick at;
        InFlightInst *inst;
    };
    static_assert(std::is_trivially_copyable_v<Timed>,
                  "arena containers memcpy entries on snapshot save");

    /** Wait list, timed queue or ready set, whichever applies now. */
    void schedule(InFlightInst *inst, const Tick *reg_ready);
    void enqueue(InFlightInst *inst, Tick ready_at);
    void wakeWaiters(PhysReg r, const Tick *reg_ready);
    void promoteDue(Tick now);
    using SlotMask = ArenaVector<std::uint64_t>;
    static bool
    testBit(const SlotMask &m, std::size_t slot)
    {
        return (m[slot >> 6] >> (slot & 63)) & 1;
    }
    static void
    setBit(SlotMask &m, std::size_t slot)
    {
        m[slot >> 6] |= std::uint64_t(1) << (slot & 63);
    }
    static void
    clearBit(SlotMask &m, std::size_t slot)
    {
        m[slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
    }
    void compact();

    /** Live entries in age order, nullptr = tombstone. */
    ArenaVector<InFlightInst *> order_;
    // lint: nosnapshot(derived from the entries and the scoreboard; reschedule rebuilds it)
    ArenaVector<InFlightInst *> waitHead_;  ///< per physical register
    // lint: nosnapshot(derived from the entries and the scoreboard; reschedule rebuilds it)
    ArenaVector<Timed> timed_;              ///< sorted, latest first
    // lint: nosnapshot(derived from the entries and the scoreboard; reschedule rebuilds it)
    SlotMask ready_;  ///< one bit per order_ slot
    // lint: nosnapshot(derived from the entries; reschedule rebuilds it)
    SlotMask loads_;  ///< slots holding loads (skipped past a closed LSQ gate)
    Tick promoted_ = 0;  // lint: nosnapshot(last promote() tick; reschedule restarts it at 0)
    unsigned capacity_;  // lint: nosnapshot(geometry checked by restore, not mutated)
    unsigned used_ = 0;  // lint: nosnapshot(recounted from entries in restore)
    InstSeqNum lastSeq_ = 0;   ///< insertion-order guard
};

} // namespace flywheel

#endif // FLYWHEEL_CORE_ISSUE_WINDOW_HH
