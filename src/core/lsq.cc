#include "core/lsq.hh"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/log.hh"
#include "obs/stats_registry.hh"
#include "snapshot/bincodec.hh"

namespace flywheel {

void
Lsq::insert(InstSeqNum seq, bool is_store, Addr addr)
{
    FW_ASSERT(count_ < capacity_, "LSQ overflow");
    FW_ASSERT(count_ == 0 || buf_[at(count_ - 1)].seq < seq,
              "LSQ inserts must be in program order");
    buf_[at(count_)] = Entry{seq, is_store, false, addr >> 3};
    ++count_;
    if (is_store) {
        // Inserts are age-ordered, so the first unknown store seen
        // while none was outstanding is the oldest one.
        if (unknownStores_ == 0)
            minUnknownSeq_ = seq;
        ++unknownStores_;
    }
}

void
Lsq::noteUnknownGone(const Entry &e)
{
    FW_ASSERT(unknownStores_ > 0, "unknown-store accounting underflow");
    --unknownStores_;
    if (unknownStores_ > 0 && e.seq == minUnknownSeq_)
        refreshMinUnknown();
}

void
Lsq::noteKnownGone(const Entry &e)
{
    --knownStores_;
    --knownWords_[wordBucket(e.word)];
}

void
Lsq::refreshMinUnknown()
{
    for (std::size_t i = 0; i < count_; ++i) {
        const Entry &e = buf_[at(i)];
        if (e.isStore && !e.addrKnown) {
            minUnknownSeq_ = e.seq;
            return;
        }
    }
    FW_PANIC("unknown-store count does not match queue contents");
}

bool
Lsq::loadMayIssue(InstSeqNum load_seq,
                  const std::vector<InstSeqNum> &co_issued) const
{
    if (loadMayIssue(load_seq))
        return true;
    for (std::size_t i = 0; i < count_; ++i) {
        const Entry &e = buf_[at(i)];
        if (e.seq >= load_seq)
            break;
        if (e.isStore && !e.addrKnown) {
            bool co = false;
            for (InstSeqNum s : co_issued) {
                if (s == e.seq) {
                    co = true;
                    break;
                }
            }
            if (!co)
                return false;
        }
    }
    return true;
}

bool
Lsq::loadForwards(InstSeqNum load_seq, Addr addr) const
{
    const Addr word = addr >> 3;
    if (knownStores_ == 0 || knownWords_[wordBucket(word)] == 0)
        return false;
    for (std::size_t i = 0; i < count_; ++i) {
        const Entry &e = buf_[at(i)];
        if (e.seq >= load_seq)
            break;
        if (e.isStore && e.addrKnown) {
            if (e.word == word)
                return true;
        }
    }
    return false;
}

void
Lsq::storeIssued(InstSeqNum seq)
{
    for (std::size_t i = 0; i < count_; ++i) {
        Entry &e = buf_[at(i)];
        if (e.seq == seq) {
            e.addrKnown = true;
            ++knownStores_;
            ++knownWords_[wordBucket(e.word)];
            noteUnknownGone(e);
            return;
        }
    }
    FW_PANIC("storeIssued: seq %llu not in LSQ",
             static_cast<unsigned long long>(seq));
}

void
Lsq::retire(InstSeqNum seq)
{
    FW_ASSERT(count_ > 0 && buf_[head_].seq == seq,
              "LSQ retire out of order");
    // Remove before accounting so refreshMinUnknown never sees the
    // departing entry.
    const Entry e = buf_[head_];
    head_ = at(1);
    --count_;
    if (count_ == 0)
        head_ = 0;
    if (e.isStore) {
        if (e.addrKnown)
            noteKnownGone(e);
        else
            noteUnknownGone(e);
    }
}

void
Lsq::squashFrom(InstSeqNum seq)
{
    while (count_ > 0) {
        const Entry e = buf_[at(count_ - 1)];
        if (e.seq < seq)
            break;
        --count_;
        if (e.isStore) {
            if (e.addrKnown)
                noteKnownGone(e);
            else
                noteUnknownGone(e);
        }
    }
    if (count_ == 0)
        head_ = 0;
}

void
Lsq::save(BinWriter &w) const
{
    // Entries oldest-first; the ring phase (head_) is not behaviour
    // and restore() re-bases at zero.
    w.u64(count_);
    for (std::size_t i = 0; i < count_; ++i) {
        const Entry &e = buf_[at(i)];
        w.u64(e.seq);
        w.u64(e.word);
        w.b(e.isStore);
        w.b(e.addrKnown);
    }
    w.u32(unknownStores_);
    w.u32(knownStores_);
    w.u64(minUnknownSeq_);
}

void
Lsq::restore(BinReader &r)
{
    const std::uint64_t count = r.u64();
    FW_ASSERT(count <= capacity_,
              "LSQ snapshot does not fit the configured capacity");
    head_ = 0;
    count_ = count;
    std::fill(knownWords_.begin(), knownWords_.end(), 0);
    for (std::size_t i = 0; i < count_; ++i) {
        buf_[i].seq = r.u64();
        buf_[i].word = r.u64();
        buf_[i].isStore = r.b();
        buf_[i].addrKnown = r.b();
        if (buf_[i].isStore && buf_[i].addrKnown)
            ++knownWords_[wordBucket(buf_[i].word)];
    }
    unknownStores_ = r.u32();
    knownStores_ = r.u32();
    minUnknownSeq_ = r.u64();
}

std::string
Lsq::debugDump() const
{
    std::string out;
    for (std::size_t i = 0; i < count_; ++i) {
        const Entry &e = buf_[at(i)];
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%llu:%c:%d ",
                      static_cast<unsigned long long>(e.seq),
                      e.isStore ? 'S' : 'L', int(e.addrKnown));
        out += buf;
    }
    return out;
}

void
Lsq::registerStats(obs::StatsGroup &group) const
{
    group.formula("occupancy", [this] { return double(count_); });
    group.formula("capacity", [this] { return double(capacity_); });
}

} // namespace flywheel
