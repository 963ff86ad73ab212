#include "core/core_base.hh"

#include <cmath>

#include "common/log.hh"
#include "core/report.hh"
#include "snapshot/snapshot.hh"

namespace flywheel {

namespace {

/**
 * Snapshot codec for one in-flight instruction: the architectural
 * DynInst followed by every microarchitectural field, in fixed
 * positional order (the snapshot format version gates changes).
 * Field-by-field because InFlightInst has padding bytes.
 */
void
inflightToBin(BinWriter &w, const InFlightInst &i)
{
    dynInstToBin(w, i.arch);
    w.u16(i.destPhys);
    w.u16(i.oldDestPhys);
    w.u16(i.src1Phys);
    w.u16(i.src2Phys);
    w.u16(i.poolPrevSlot);
    w.u64(i.dispatchReady);
    w.u64(i.iwVisible);
    w.u64(i.issueTick);
    w.u64(i.completeTick);
    w.b(i.inIw);
    w.u32(i.iwPos);
    w.b(i.issued);
    w.b(i.completed);
    w.b(i.squashed);
    w.b(i.mispredicted);
    w.b(i.predictedTaken);
    w.b(i.btbMissBubble);
    w.u16(i.historyAtPredict);
    w.b(i.fromEc);
    w.u32(i.traceRank);
}

InFlightInst
inflightFromBin(BinReader &r)
{
    InFlightInst i;
    i.arch = dynInstFromBin(r);
    i.destPhys = static_cast<PhysReg>(r.u16());
    i.oldDestPhys = static_cast<PhysReg>(r.u16());
    i.src1Phys = static_cast<PhysReg>(r.u16());
    i.src2Phys = static_cast<PhysReg>(r.u16());
    i.poolPrevSlot = r.u16();
    i.dispatchReady = r.u64();
    i.iwVisible = r.u64();
    i.issueTick = r.u64();
    i.completeTick = r.u64();
    i.inIw = r.b();
    i.iwPos = r.u32();
    i.issued = r.b();
    i.completed = r.b();
    i.squashed = r.b();
    i.mispredicted = r.b();
    i.predictedTaken = r.b();
    i.btbMissBubble = r.b();
    i.historyAtPredict = r.u16();
    i.fromEc = r.b();
    i.traceRank = r.u32();
    return i;
}

void
instRingToBin(BinWriter &w, const ArenaRing<InFlightInst> &q)
{
    w.u64(q.size());
    for (const InFlightInst &i : q)
        inflightToBin(w, i);
}

void
instRingFromBin(BinReader &r, ArenaRing<InFlightInst> *out)
{
    out->clear();
    const std::uint64_t count = r.u64();
    FW_ASSERT(count <= out->capacity(),
              "instruction-queue snapshot exceeds configured capacity");
    for (std::uint64_t i = 0; i < count; ++i)
        out->push_back(inflightFromBin(r));
}

} // namespace

CoreBase::CoreBase(const CoreParams &params, WorkloadStream &stream,
                   unsigned phys_regs)
    : params_(params),
      stream_(stream),
      hier_(arena_, params.mem),
      gshare_(arena_, params.bpred),
      btb_(arena_, params.btb),
      fus_(arena_, params.fus, params.lat),
      lsq_(arena_, params.lsqEntries),
      iw_(arena_, params.iwEntries, phys_regs),
      rob_(arena_, params.robEntries),
      feQueue_(arena_,
               static_cast<std::size_t>(params.feStages - 1 +
                                        params.extraFrontEndStages + 2) *
                   params.fetchWidth),
      regReady_(arena_),
      issuedPending_(arena_)
{
    regReady_.assign(phys_regs, 0);
    feDepth_ = params_.feStages - 1 + params_.extraFrontEndStages;
    feQueueCap_ = static_cast<std::size_t>(feDepth_ + 2) *
                  params_.fetchWidth;
    memTicks_ = static_cast<Tick>(std::llround(
        params_.mem.memBaselineCycles * params_.basePeriodPs));
    // Invariant per-run values, hoisted out of the per-cycle loop.
    l2StallTicks_ = static_cast<Tick>(std::llround(
        params_.mem.l2Cycles * params_.basePeriodPs));
    progressHorizonTicks_ =
        static_cast<Tick>(500000.0 * params_.basePeriodPs);
    issuedPending_.reserve(params_.robEntries);

    // One stat per CoreStats field, expanded from the same X-macro
    // that guards serialization, so new fields surface automatically.
    obs::StatsGroup &core = statsRegistry_.group("core");
#define X(f) core.counter(#f, &stats_.f);
    FW_CORE_STATS_FIELDS(X)
#undef X
    core.formula("mispredictRate", [this] {
        return stats_.condBranches
                   ? double(stats_.mispredicts) /
                         double(stats_.condBranches)
                   : 0.0;
    });
    hier_.registerStats(statsRegistry_, "core");
    gshare_.registerStats(statsRegistry_.group("core.gshare"));
    btb_.registerStats(statsRegistry_.group("core.btb"));
    lsq_.registerStats(statsRegistry_.group("core.lsq"));
    iw_.registerStats(statsRegistry_.group("core.iw"));
}

bool
CoreBase::fetchGate(Addr, Tick)
{
    return true;
}

void
CoreBase::onIssueGroup(const std::vector<InFlightInst *> &, Tick)
{}

void
CoreBase::onMispredictResolved(InFlightInst &, Tick now)
{
    // Redirect reaches Fetch for the next cycle; the subclass run
    // loop samples fetchStallUntil_ at front-end clock edges.
    waitingOnMispredict_ = false;
    resumeFetch(now + 1);
}

void
CoreBase::onRetire(InFlightInst &, Tick)
{}

void
CoreBase::stepFetch(Tick now, Tick fe_period)
{
    if (now < fetchStallUntil_ || waitingOnMispredict_)
        return;
    if (feQueue_.size() + params_.fetchWidth > feQueueCap_)
        return;

    unsigned fetched = 0;
    Addr group_pc = 0;
    for (unsigned w = 0; w < params_.fetchWidth; ++w) {
        const DynInst &next = stream_.peek(0);
        const Addr pc = next.pc;

        if (w == 0) {
            if (!fetchGate(pc, now))
                return;
            group_pc = pc;
            ++events_.icacheAccesses;
            MemLevel lvl = hier_.fetch(pc);
            if (lvl != MemLevel::L1) {
                // Pipelined L1 miss: charge L2 (back-end clocked at
                // the baseline rate) or full memory time.
                Tick stall = l2StallTicks_;
                if (lvl == MemLevel::Memory)
                    stall += memTicks_;
                fetchStallUntil_ = now + stall;
                ++stats_.icacheMissStalls;
                if (tracer_)
                    tracer_->span(obs::TraceCat::CacheMiss,
                                  lvl == MemLevel::Memory
                                      ? "icache_miss_mem"
                                      : "icache_miss_l2",
                                  now, stall, pc);
                return;
            }
        }

        InFlightInst ifi;
        ifi.arch = stream_.next();
        ifi.dispatchReady = now + static_cast<Tick>(feDepth_) * fe_period;

        bool end_group = false;
        bool stall_decode_redirect = false;
        if (ifi.arch.isBranch()) {
            ++events_.btbLookups;
            bool pred_taken;
            if (ifi.arch.isCondBranch) {
                ++events_.bpredLookups;
                ++stats_.condBranches;
                pred_taken = gshare_.predict(ifi.arch.pc);
                ifi.historyAtPredict = gshare_.history();
                gshare_.pushHistory(ifi.arch.taken);
                if (pred_taken != ifi.arch.taken) {
                    ifi.mispredicted = true;
                    ++stats_.mispredicts;
                }
            } else {
                pred_taken = true;
            }
            ifi.predictedTaken = pred_taken;

            if (ifi.mispredicted) {
                // Fetch stalls until the branch resolves in Execute.
                waitingOnMispredict_ = true;
                fetchStallUntil_ = kTickMax;
                end_group = true;
            } else if (ifi.arch.taken) {
                end_group = true;
                if (!btb_.lookup(ifi.arch.pc)) {
                    // Target produced at decode: two-cycle bubble.
                    ifi.btbMissBubble = true;
                    ++stats_.btbMissBubbles;
                    stall_decode_redirect = true;
                }
            }
        }

        feQueue_.push_back(ifi);
        ++fetched;

        if (stall_decode_redirect)
            fetchStallUntil_ = now + 3 * fe_period;
        if (end_group)
            break;
        // Fetch groups may not cross an aligned 16-byte block.
        if ((pc & 0xF) == 0xC)
            break;
    }
    if (tracer_ && fetched)
        tracer_->instant(obs::TraceCat::Fetch, "fetch", now, fetched,
                         group_pc);
}

void
CoreBase::stepDispatch(Tick now, Tick visible_delay)
{
    for (unsigned w = 0; w < params_.dispatchWidth; ++w) {
        if (feQueue_.empty())
            return;
        InFlightInst &head = feQueue_.front();
        if (head.dispatchReady > now)
            return;
        if (rob_.size() >= params_.robEntries) {
            ++stats_.robFullStalls;
            return;
        }
        if (iw_.full()) {
            ++stats_.iwFullStalls;
            return;
        }
        if (head.isMem() && lsq_.full()) {
            ++stats_.lsqFullStalls;
            return;
        }
        if (!canRenameDest(head)) {
            ++stats_.renameStalls;
            return;
        }

        renameSrcs(head);
        renameDest(head);

        ++events_.decodedOps;
        ++events_.renameOps;
        ++events_.dispatchOps;
        ++events_.robOps;
        events_.ratAccesses += head.arch.numSrcs();

        rob_.push_back(std::move(head));
        feQueue_.pop_front();
        InFlightInst *p = &rob_.back();
        p->iwVisible = now + visible_delay;
        iw_.insert(p, regReady_.data());
        if (p->isMem()) {
            p->arch.isStore()
                ? lsq_.insert(p->arch.seq, true, p->arch.effAddr)
                : lsq_.insert(p->arch.seq, false, p->arch.effAddr);
            ++events_.lsqOps;
        }
    }
}

bool
CoreBase::operandsReady(const InFlightInst &inst, Tick now) const
{
    if (inst.src1Phys != kNoPhysReg && regReady_[inst.src1Phys] > now)
        return false;
    if (inst.src2Phys != kNoPhysReg && regReady_[inst.src2Phys] > now)
        return false;
    return true;
}

void
CoreBase::issueOne(InFlightInst *p, Tick now, Tick be_period)
{
    p->issued = true;
    p->issueTick = now;

    const unsigned rr = params_.regReadStages;
    unsigned exec_cycles = params_.execLatency(p->arch.op);
    Tick mem_extra = 0;

    if (p->isLoad()) {
        if (lsq_.loadForwards(p->arch.seq, p->arch.effAddr)) {
            exec_cycles += 1;  // LSQ forwarding
        } else {
            ++events_.dcacheAccesses;
            MemLevel lvl = hier_.data(p->arch.effAddr, false);
            exec_cycles += params_.mem.dcache.hitCycles;
            if (lvl != MemLevel::L1) {
                ++events_.l2Accesses;
                exec_cycles += params_.mem.l2Cycles;
                if (lvl == MemLevel::Memory) {
                    ++events_.memAccesses;
                    mem_extra = memTicks_;
                }
                if (tracer_)
                    tracer_->instant(obs::TraceCat::CacheMiss,
                                     lvl == MemLevel::Memory
                                         ? "dcache_miss_mem"
                                         : "dcache_miss_l2",
                                     now, p->arch.effAddr,
                                     p->arch.seq);
            }
        }
        ++events_.lsqOps;
    } else if (p->isStore()) {
        lsq_.storeIssued(p->arch.seq);
        ++events_.lsqOps;
    }

    p->completeTick = now +
        static_cast<Tick>(rr + exec_cycles) * be_period + mem_extra;
    issuedPending_.push_back(p);
    if (p->completeTick < minCompleteTick_)
        minCompleteTick_ = p->completeTick;

    if (p->arch.hasDest()) {
        // Bypass: dependents may issue exec_cycles (+ any extra
        // wake-up delay) after the producer's select.
        setRegReady(p->destPhys,
                    now +
                        static_cast<Tick>(exec_cycles +
                                          params_.wakeupExtraDelay) *
                            be_period +
                        mem_extra);
        ++events_.resultBusOps;
        ++events_.rfWrites;
        if (!p->fromEc)
            ++events_.iwBroadcasts;  // EC replay bypasses the CAM
    }

    events_.rfReads += p->arch.numSrcs();
    if (!p->fromEc)
        ++events_.iwIssues;

    switch (p->arch.op) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Nop:
        ++events_.aluOps;
        break;
      case OpClass::IntMul:
      case OpClass::IntDiv:
        ++events_.mulOps;
        break;
      case OpClass::FpAdd:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        ++events_.fpOps;
        break;
      case OpClass::Load:
      case OpClass::Store:
        ++events_.aluOps;  // address generation
        break;
    }
}

void
CoreBase::stepIssue(Tick now, Tick be_period)
{
    fus_.beginCycle(now);
    iw_.promote(now);
    issuedGroup_.clear();

    // The ready set holds exactly the entries visible with both
    // operands ready at now, oldest first.  Entries the LSQ or the
    // FUs refuse stay in it for the next cycle; consumers woken by
    // this cycle's selections join it behind the walk.  Once the LSQ
    // gate refuses a load, it refuses every younger load for the rest
    // of the walk (the unresolved store holding it shut is older than
    // the load, so it cannot issue behind it), and the walk passes
    // over loads from there on.
    bool loads_gated = false;
    for (std::size_t slot = iw_.nextReady(0);
         slot != IssueWindow::kNoSlot &&
         issuedGroup_.size() < params_.issueWidth;
         slot = iw_.nextReady(slot + 1, loads_gated)) {
        InFlightInst *p = iw_.at(slot);
        if (p->isLoad() && !lsq_.loadMayIssue(p->arch.seq)) {
            loads_gated = true;
            continue;
        }
        if (!fus_.tryIssue(p->arch.op, now, double(be_period)))
            continue;
        iw_.remove(p);
        issueOne(p, now, be_period);
        issuedGroup_.push_back(p);
    }

    if (!issuedGroup_.empty()) {
        if (tracer_)
            tracer_->instant(obs::TraceCat::Issue, "issue", now,
                             issuedGroup_.size(),
                             issuedGroup_.front()->arch.seq);
        onIssueGroup(issuedGroup_, now);
    }
}

void
CoreBase::dropPendingCompletion(InFlightInst *inst)
{
    if (!inst->issued || inst->completed)
        return;
    for (std::size_t i = 0; i < issuedPending_.size(); ++i) {
        if (issuedPending_[i] == inst) {
            issuedPending_[i] = issuedPending_.back();
            issuedPending_.pop_back();
            return;
        }
    }
    FW_PANIC("issued instruction missing from the completion list");
}

void
CoreBase::stepComplete(Tick now, Tick)
{
    // The list holds only issued-but-incomplete instructions, and
    // minCompleteTick_ lets the common nothing-finishes cycle return
    // without touching it at all.
    if (now < minCompleteTick_)
        return;

    // Index-based on purpose: onMispredictResolved may squash the
    // wrong-path tail of the ROB (trace divergence).  The squash path
    // calls dropPendingCompletion for every popped entry, which
    // reorders this list arbitrarily — restart the pass after any
    // callback; completion marking is idempotent within the cycle.
    std::size_t i = 0;
    std::uint64_t completed_n = 0;
    while (i < issuedPending_.size()) {
        InFlightInst *p = issuedPending_[i];
        if (p->completeTick > now) {
            ++i;
            continue;
        }
        issuedPending_[i] = issuedPending_.back();
        issuedPending_.pop_back();
        p->completed = true;
        ++completed_n;
        if (p->mispredicted && !p->squashed) {
            onMispredictResolved(*p, now);
            i = 0;
        }
    }
    if (tracer_ && completed_n)
        tracer_->instant(obs::TraceCat::Complete, "complete", now,
                         completed_n);

    minCompleteTick_ = kTickMax;
    for (const InFlightInst *p : issuedPending_) {
        if (p->completeTick < minCompleteTick_)
            minCompleteTick_ = p->completeTick;
    }
}

void
CoreBase::stepRetire(Tick now, Tick be_period)
{
    std::uint64_t retired_n = 0;
    std::uint64_t group_seq = 0;
    for (unsigned n = 0; n < params_.commitWidth && !rob_.empty(); ++n) {
        InFlightInst &h = rob_.front();
        FW_ASSERT(!h.squashed, "squashed instruction at ROB head");
        // WriteBack precedes Retire by one stage.
        if (!h.completed || h.completeTick + be_period > now)
            break;

        if (h.isStore()) {
            ++events_.dcacheAccesses;
            MemLevel lvl = hier_.data(h.arch.effAddr, true);
            if (lvl != MemLevel::L1) {
                ++events_.l2Accesses;
                if (lvl == MemLevel::Memory)
                    ++events_.memAccesses;
                if (tracer_)
                    tracer_->instant(obs::TraceCat::CacheMiss,
                                     lvl == MemLevel::Memory
                                         ? "store_miss_mem"
                                         : "store_miss_l2",
                                     now, h.arch.effAddr, h.arch.seq);
            }
        }
        // Branches replayed from the Execution Cache never consulted
        // the predictor (the front-end is shut down), so they do not
        // train it either.
        if (h.arch.isBranch() && !h.fromEc) {
            if (h.arch.isCondBranch)
                gshare_.update(h.arch.pc, h.historyAtPredict,
                               h.arch.taken);
            if (h.arch.taken)
                btb_.update(h.arch.pc, h.arch.target);
        }

        onRetire(h, now);
        if (retireHook_)
            retireHook_(h, now);

        if (h.isMem())
            lsq_.retire(h.arch.seq);
        ++events_.robOps;
        ++stats_.retired;
        if (h.fromEc)
            ++stats_.ecRetired;
        if (retired_n == 0)
            group_seq = h.arch.seq;
        ++retired_n;
        rob_.pop_front();
    }
    if (tracer_ && retired_n)
        tracer_->instant(obs::TraceCat::Retire, "retire", now,
                         retired_n, group_seq);
}

std::uint64_t
CoreBase::robIndexOf(const InFlightInst *inst) const
{
    if (inst == nullptr)
        return kNoRobIndex;
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        if (&rob_[i] == inst)
            return i;
    }
    FW_PANIC("snapshot save: tracked instruction not in the ROB");
}

InFlightInst *
CoreBase::robAt(std::uint64_t index)
{
    if (index == kNoRobIndex)
        return nullptr;
    FW_ASSERT(index < rob_.size(),
              "snapshot ROB index %llu out of range (%zu entries)",
              static_cast<unsigned long long>(index), rob_.size());
    return &rob_[index];
}

void
CoreBase::save(Snapshot &snap) const
{
    auto put = [&snap](const char *name, auto &&fill) {
        BinWriter w;
        fill(w);
        snap.addSection(name, w.take());
    };

    put("stream", [this](BinWriter &w) { stream_.save(w); });
    put("mem", [this](BinWriter &w) { hier_.save(w); });
    put("gshare", [this](BinWriter &w) { gshare_.save(w); });
    put("btb", [this](BinWriter &w) { btb_.save(w); });
    put("fus", [this](BinWriter &w) { fus_.save(w); });
    put("lsq", [this](BinWriter &w) { lsq_.save(w); });

    put("pipe", [this](BinWriter &w) {
        instRingToBin(w, rob_);
        instRingToBin(w, feQueue_);
        w.podArray(regReady_.data(), regReady_.size());
        iw_.save(w, [this](const InFlightInst *p) {
            return robIndexOf(p);
        });
        w.u64(issuedPending_.size());
        for (const InFlightInst *p : issuedPending_)
            w.u64(robIndexOf(p));
        w.u64(minCompleteTick_);
        static_assert(sizeof(EnergyEvents) % sizeof(std::uint64_t) == 0,
                      "EnergyEvents must stay an array of u64 fields");
        w.podArray(reinterpret_cast<const std::uint64_t *>(&events_),
                   sizeof(EnergyEvents) / sizeof(std::uint64_t));
        w.podArray(reinterpret_cast<const std::uint64_t *>(&stats_),
                   kCoreStatsFieldCount);
        w.u64(fetchStallUntil_);
        w.b(waitingOnMispredict_);
        w.u64(lastProgressRetired_);
        w.u64(lastProgressTick_);
    });
}

void
CoreBase::restore(const Snapshot &snap)
{
    {
        BinReader r = snap.section("stream");
        stream_.restore(r);
    }
    {
        BinReader r = snap.section("mem");
        hier_.restore(r);
    }
    {
        BinReader r = snap.section("gshare");
        gshare_.restore(r);
    }
    {
        BinReader r = snap.section("btb");
        btb_.restore(r);
    }
    {
        BinReader r = snap.section("fus");
        fus_.restore(r);
    }
    {
        BinReader r = snap.section("lsq");
        lsq_.restore(r);
    }

    BinReader r = snap.section("pipe");
    instRingFromBin(r, &rob_);
    instRingFromBin(r, &feQueue_);
    FW_ASSERT(rob_.size() <= params_.robEntries &&
                  feQueue_.size() <= feQueueCap_,
              "core snapshot exceeds configured structure sizes");
    r.podArray(regReady_.data(), regReady_.size());

    iw_.restore(r, [this](std::uint64_t idx) { return robAt(idx); });
    iw_.reschedule(regReady_.data());

    issuedPending_.clear();
    const std::uint64_t pending = r.u64();
    for (std::uint64_t i = 0; i < pending; ++i) {
        InFlightInst *p = robAt(r.u64());
        FW_ASSERT(p != nullptr && p->issued && !p->completed,
                  "issued-pending snapshot inconsistent with the ROB");
        issuedPending_.push_back(p);
    }
    minCompleteTick_ = r.u64();

    r.podArray(reinterpret_cast<std::uint64_t *>(&events_),
               sizeof(EnergyEvents) / sizeof(std::uint64_t));
    r.podArray(reinterpret_cast<std::uint64_t *>(&stats_),
               kCoreStatsFieldCount);
    fetchStallUntil_ = r.u64();
    waitingOnMispredict_ = r.b();
    lastProgressRetired_ = r.u64();
    lastProgressTick_ = r.u64();
}

void
CoreBase::checkProgress(Tick now)
{
    if (stats_.retired != lastProgressRetired_) {
        lastProgressRetired_ = stats_.retired;
        lastProgressTick_ = now;
        return;
    }
    if (now - lastProgressTick_ > progressHorizonTicks_) {
        FW_PANIC("pipeline wedged: no retirement since tick %llu "
                 "(now %llu, rob %zu, iw %u, feq %zu, stall %llu) %s",
                 static_cast<unsigned long long>(lastProgressTick_),
                 static_cast<unsigned long long>(now), rob_.size(),
                 iw_.occupancy(), feQueue_.size(),
                 static_cast<unsigned long long>(fetchStallUntil_),
                 progressDebug().c_str());
    }
}

} // namespace flywheel
