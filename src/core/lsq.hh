/**
 * @file
 * Load/Store Queue (Table 2: 64 entries).  Memory disambiguation is
 * conservative, as in SimpleScalar-class models: a load may not issue
 * until every older store has computed its address; a load whose
 * address matches an older in-flight store forwards from the queue.
 * Stores write the data cache at retire.
 *
 * Storage is a fixed ring buffer (program order, no per-entry heap
 * traffic), and the common disambiguation query — "is any older
 * store's address still unknown?" — is answered from the tracked
 * sequence number of the oldest address-unknown store instead of a
 * queue walk.  Likewise, the forwarding check skips its walk when no
 * issued store's word falls in the load's word bucket.
 */

#ifndef FLYWHEEL_CORE_LSQ_HH
#define FLYWHEEL_CORE_LSQ_HH

#include <string>
#include <vector>

#include "common/arena.hh"
#include "common/types.hh"

namespace flywheel {

namespace obs { class StatsGroup; }
class BinWriter;
class BinReader;

/** Load/store queue with conservative disambiguation. */
class Lsq
{
  public:
    explicit Lsq(Arena &arena, unsigned entries)
        : capacity_(entries), buf_(arena), knownWords_(arena)
    {
        buf_.resize(entries);
        knownWords_.assign(kWordBuckets, 0);
    }

    bool full() const { return count_ >= capacity_; }
    std::size_t size() const { return count_; }

    /** Allocate an entry at dispatch (program order). */
    void insert(InstSeqNum seq, bool is_store, Addr addr);

    /** True if no older store still has an unknown address. */
    bool
    loadMayIssue(InstSeqNum load_seq) const
    {
        return unknownStores_ == 0 || load_seq <= minUnknownSeq_;
    }

    /**
     * Variant for atomic issue-unit dispatch: stores listed in
     * @p co_issued are issuing in the same cycle (ahead of the load
     * in the unit) and count as having generated their addresses.
     */
    bool loadMayIssue(InstSeqNum load_seq,
                      const std::vector<InstSeqNum> &co_issued) const;

    /**
     * True if an older, already-issued store to the same 8-byte word
     * can forward its data to the load at @p load_seq.
     */
    bool loadForwards(InstSeqNum load_seq, Addr addr) const;

    /** Mark the store @p seq as having computed its address. */
    void storeIssued(InstSeqNum seq);

    /** Free the entry for @p seq at retire. */
    void retire(InstSeqNum seq);

    /** Drop all entries with sequence number >= @p seq (squash). */
    void squashFrom(InstSeqNum seq);

    /** Debug string: "seq:S/L:known ..." for every entry. */
    std::string debugDump() const;

    /** Register occupancy/capacity gauges with the obs registry. */
    void registerStats(obs::StatsGroup &group) const;

    /** Serialize the queue contents and disambiguation counters. */
    void save(BinWriter &w) const;
    /** Restore state saved by save() (capacity must match). */
    void restore(BinReader &r);

  private:
    /**
     * Field order follows a measured field-access profile (README
     * "Data layout"): the disambiguation walks read seq on every
     * entry, isStore/addrKnown on the survivors and word only on
     * matching known stores (seq six times per word).
     */
    struct Entry
    {
        InstSeqNum seq;
        bool isStore;
        bool addrKnown;  ///< store has issued (address generated)
        Addr word;       ///< address >> 3
    };

    /** Ring index of the i-th oldest entry. */
    std::size_t
    at(std::size_t i) const
    {
        std::size_t idx = head_ + i;
        if (idx >= capacity_)
            idx -= capacity_;
        return idx;
    }

    /** Entry lost an unknown address (issued / squashed / retired). */
    void noteUnknownGone(const Entry &e);
    /** A known store left the queue (retired / squashed). */
    void noteKnownGone(const Entry &e);
    /** Recompute minUnknownSeq_ with a queue walk. */
    void refreshMinUnknown();

    /** Bucket of knownWords_ that counts stores to @p word. */
    static constexpr std::size_t kWordBuckets = 64;
    static std::size_t
    wordBucket(Addr word)
    {
        return static_cast<std::size_t>(word) & (kWordBuckets - 1);
    }

    std::size_t capacity_;  // lint: nosnapshot(geometry checked by restore, not mutated)
    static_assert(std::is_trivially_copyable_v<Entry>,
                  "arena containers memcpy entries on snapshot save");
    ArenaVector<Entry> buf_;   ///< ring, program order from head_
    // lint: nosnapshot(save writes entries in order from head_; restore rebuilds at 0)
    std::size_t head_ = 0;
    std::size_t count_ = 0;

    unsigned unknownStores_ = 0;       ///< stores with addrKnown=false
    unsigned knownStores_ = 0;         ///< stores with addrKnown=true
    InstSeqNum minUnknownSeq_ = 0;     ///< oldest unknown store's seq
    /**
     * Known stores per word bucket.  Most loads match no known
     * store's word at all; an empty bucket answers loadForwards
     * without walking the queue.
     */
    // lint: nosnapshot(derived from the entries; restore recounts it)
    ArenaVector<std::uint16_t> knownWords_;
};

} // namespace flywheel

#endif // FLYWHEEL_CORE_LSQ_HH
