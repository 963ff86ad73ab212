#include "core/issue_window.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/stats_registry.hh"
#include "snapshot/bincodec.hh"

namespace flywheel {

namespace {

/** First tick at which @p p is visible with both operands ready. */
Tick
readyTick(const InFlightInst &p, const Tick *reg_ready)
{
    Tick at = p.iwVisible;
    if (p.src1Phys != kNoPhysReg)
        at = std::max(at, reg_ready[p.src1Phys]);
    if (p.src2Phys != kNoPhysReg)
        at = std::max(at, reg_ready[p.src2Phys]);
    return at;
}

} // namespace

IssueWindow::IssueWindow(Arena &arena, unsigned entries,
                         unsigned phys_regs)
    : order_(arena), waitHead_(arena), timed_(arena), ready_(arena),
      loads_(arena), capacity_(entries)
{
    const std::size_t slots = static_cast<std::size_t>(entries) * 2;
    order_.reserve(slots);
    waitHead_.assign(phys_regs, nullptr);
    timed_.reserve(entries);
    ready_.assign((slots + 63) / 64, 0);
    loads_.assign((slots + 63) / 64, 0);
}

void
IssueWindow::insert(InFlightInst *inst, const Tick *reg_ready)
{
    FW_ASSERT(used_ < capacity_, "issue window overflow");
    FW_ASSERT(inst->arch.seq > lastSeq_,
              "issue window inserts must be age-ordered");
    lastSeq_ = inst->arch.seq;
    if (order_.size() == order_.capacity())
        compact();
    inst->iwPos = static_cast<std::uint32_t>(order_.size());
    order_.push_back(inst);
    if (inst->isLoad())
        setBit(loads_, inst->iwPos);
    inst->inIw = true;
    ++used_;
    schedule(inst, reg_ready);
}

void
IssueWindow::schedule(InFlightInst *p, const Tick *reg_ready)
{
    // Join the wait list of every unwritten source (once when both
    // sources name the same register); wake() of the last one to be
    // written moves the entry on.
    bool waiting = false;
    if (p->src1Phys != kNoPhysReg && reg_ready[p->src1Phys] == kTickMax) {
        p->wakeNext1 = waitHead_[p->src1Phys];
        waitHead_[p->src1Phys] = p;
        waiting = true;
    }
    if (p->src2Phys != kNoPhysReg && p->src2Phys != p->src1Phys &&
        reg_ready[p->src2Phys] == kTickMax) {
        p->wakeNext2 = waitHead_[p->src2Phys];
        waitHead_[p->src2Phys] = p;
        waiting = true;
    }
    if (!waiting)
        enqueue(p, readyTick(*p, reg_ready));
}

void
IssueWindow::enqueue(InFlightInst *p, Tick ready_at)
{
    if (ready_at <= promoted_) {
        // Already due: woken by a producer selected this cycle with a
        // zero-cycle bypass, so the running select walk must see it.
        setBit(ready_, p->iwPos);
        return;
    }
    // Latest tick first, so the due entries pop off the back.  New
    // entries are mostly due within a few cycles: the scan from the
    // back and the shift stay short.
    FW_ASSERT(timed_.size() < capacity_,
              "issue-window timed queue holds more than the window");
    std::size_t i = timed_.size();
    timed_.push_back({ready_at, p});
    while (i > 0 && timed_[i - 1].at < ready_at) {
        timed_[i] = timed_[i - 1];
        --i;
    }
    timed_[i] = {ready_at, p};
}

void
IssueWindow::wakeWaiters(PhysReg r, const Tick *reg_ready)
{
    InFlightInst *p = waitHead_[r];
    waitHead_[r] = nullptr;
    while (p != nullptr) {
        const bool first = p->src1Phys == r;
        InFlightInst *next = first ? p->wakeNext1 : p->wakeNext2;
        const PhysReg other = first ? p->src2Phys : p->src1Phys;
        // Still on the other source's list until that one is written.
        if (other == kNoPhysReg || reg_ready[other] != kTickMax)
            enqueue(p, readyTick(*p, reg_ready));
        p = next;
    }
}

void
IssueWindow::promoteDue(Tick now)
{
    while (!timed_.empty() && timed_.back().at <= now) {
        setBit(ready_, timed_.back().inst->iwPos);
        timed_.pop_back();
    }
}

void
IssueWindow::remove(InFlightInst *inst)
{
    FW_ASSERT(inst->inIw && inst->iwPos < order_.size() &&
                  order_[inst->iwPos] == inst &&
                  testBit(ready_, inst->iwPos),
              "removing instruction not in the ready set");
    clearBit(ready_, inst->iwPos);
    clearBit(loads_, inst->iwPos);
    order_[inst->iwPos] = nullptr;
    inst->inIw = false;
    --used_;
    if (used_ == 0)
        order_.clear();
}

void
IssueWindow::compact()
{
    // Order-preserving, so each slot bit moves down with its entry
    // (to a slot at or below one already visited).
    std::size_t live = 0;
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const bool ready = testBit(ready_, i);
        const bool load = testBit(loads_, i);
        clearBit(ready_, i);
        clearBit(loads_, i);
        if (order_[i] == nullptr)
            continue;
        order_[i]->iwPos = static_cast<std::uint32_t>(live);
        order_[live] = order_[i];
        if (ready)
            setBit(ready_, live);
        if (load)
            setBit(loads_, live);
        ++live;
    }
    order_.resize(live);
}

void
IssueWindow::save(BinWriter &w,
                  const std::function<std::uint64_t(const InFlightInst *)>
                      &index_of) const
{
    // Tombstones are kept (as all-ones sentinels) so the restored
    // array matches slot for slot: every entry's recorded iwPos
    // remains valid without re-deriving anything.
    constexpr std::uint64_t kNone = ~std::uint64_t(0);
    w.u64(order_.size());
    for (const InFlightInst *p : order_)
        w.u64(p == nullptr ? kNone : index_of(p));
    w.u64(lastSeq_);
}

void
IssueWindow::restore(BinReader &r,
                     const std::function<InFlightInst *(std::uint64_t)>
                         &at)
{
    constexpr std::uint64_t kNone = ~std::uint64_t(0);
    order_.clear();
    order_.reserve(static_cast<std::size_t>(capacity_) * 2);
    used_ = 0;
    const std::uint64_t slots = r.u64();
    FW_ASSERT(slots <= order_.capacity(),
              "issue-window snapshot exceeds the slot array");
    for (std::uint64_t i = 0; i < slots; ++i) {
        const std::uint64_t idx = r.u64();
        if (idx == kNone) {
            order_.push_back(nullptr);
            continue;
        }
        InFlightInst *p = at(idx);
        FW_ASSERT(p != nullptr && p->inIw &&
                      p->iwPos == order_.size(),
                  "issue-window snapshot inconsistent with the ROB");
        order_.push_back(p);
        ++used_;
    }
    FW_ASSERT(used_ <= capacity_, "issue-window snapshot overflows");
    lastSeq_ = r.u64();
}

void
IssueWindow::reschedule(const Tick *reg_ready)
{
    std::fill(waitHead_.begin(), waitHead_.end(), nullptr);
    std::fill(ready_.begin(), ready_.end(), 0);
    std::fill(loads_.begin(), loads_.end(), 0);
    timed_.clear();
    promoted_ = 0;
    for (InFlightInst *p : order_) {
        if (p == nullptr)
            continue;
        if (p->isLoad())
            setBit(loads_, p->iwPos);
        schedule(p, reg_ready);
    }
}

void
IssueWindow::registerStats(obs::StatsGroup &group) const
{
    group.formula("occupancy", [this] { return double(used_); });
    group.formula("capacity", [this] { return double(capacity_); });
}

} // namespace flywheel
