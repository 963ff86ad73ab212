/**
 * @file
 * Unit tests for the core pipeline structures: rename map, LSQ,
 * issue window (event-driven wake-up and select, checked against a
 * per-cycle rescan oracle and through CoreBase::stepIssue) and
 * functional unit arbiter.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <random>

#include "core/baseline_core.hh"
#include "core/functional_units.hh"
#include "core/issue_window.hh"
#include "core/lsq.hh"
#include "core/rename_map.hh"
#include "core/report.hh"
#include "core/sim_driver.hh"
#include "flywheel/flywheel_core.hh"
#include "snapshot/bincodec.hh"
#include "snapshot/snapshot.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace flywheel {
namespace {

// ---------------------------------------------------------------------------
// RenameMap (R10000 style).
// ---------------------------------------------------------------------------

TEST(RenameMap, IdentityAtReset)
{
    Arena arena;
    RenameMap rm(arena, 192);
    for (unsigned r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(rm.lookup(static_cast<ArchReg>(r)), r);
    EXPECT_EQ(rm.freeCount(), 192u - kNumArchRegs);
}

TEST(RenameMap, AllocateUpdatesMappingAndReturnsOld)
{
    Arena arena;
    RenameMap rm(arena, 192);
    auto [fresh, old] = rm.allocate(5);
    EXPECT_EQ(old, 5u);
    EXPECT_EQ(rm.lookup(5), fresh);
    EXPECT_GE(fresh, kNumArchRegs);
}

TEST(RenameMap, ExhaustionAndRelease)
{
    Arena arena;
    RenameMap rm(arena, kNumArchRegs + 2);
    EXPECT_TRUE(rm.hasFree());
    auto [f1, o1] = rm.allocate(0);
    auto [f2, o2] = rm.allocate(0);
    (void)f1; (void)f2; (void)o2;
    EXPECT_FALSE(rm.hasFree());
    rm.release(o1);
    EXPECT_TRUE(rm.hasFree());
}

TEST(RenameMap, ChainedAllocationsFreeCorrectRegisters)
{
    Arena arena;
    RenameMap rm(arena, kNumArchRegs + 4);
    // Three writes to r7: releasing each old mapping in retire order
    // must return exactly the previous physical registers.
    auto [p1, o1] = rm.allocate(7);
    auto [p2, o2] = rm.allocate(7);
    auto [p3, o3] = rm.allocate(7);
    EXPECT_EQ(o1, 7u);
    EXPECT_EQ(o2, p1);
    EXPECT_EQ(o3, p2);
    EXPECT_EQ(rm.lookup(7), p3);
}

// ---------------------------------------------------------------------------
// LSQ.
// ---------------------------------------------------------------------------

TEST(Lsq, LoadBlockedByUnknownStoreAddress)
{
    Arena arena;
    Lsq lsq(arena, 8);
    lsq.insert(1, true, 0x100);   // store, address unknown until issue
    lsq.insert(2, false, 0x200);  // load
    EXPECT_FALSE(lsq.loadMayIssue(2));
    lsq.storeIssued(1);
    EXPECT_TRUE(lsq.loadMayIssue(2));
}

TEST(Lsq, LoadUnaffectedByYoungerStore)
{
    Arena arena;
    Lsq lsq(arena, 8);
    lsq.insert(1, false, 0x200);  // load
    lsq.insert(2, true, 0x100);   // younger store
    EXPECT_TRUE(lsq.loadMayIssue(1));
}

TEST(Lsq, ForwardingMatchesWordAddress)
{
    Arena arena;
    Lsq lsq(arena, 8);
    lsq.insert(1, true, 0x100);
    lsq.storeIssued(1);
    lsq.insert(2, false, 0x104);  // same 8-byte word
    lsq.insert(3, false, 0x108);  // different word
    EXPECT_TRUE(lsq.loadForwards(2, 0x104));
    EXPECT_FALSE(lsq.loadForwards(3, 0x108));
}

TEST(Lsq, CoIssuedStoreSatisfiesDisambiguation)
{
    Arena arena;
    Lsq lsq(arena, 8);
    lsq.insert(1, true, 0x100);
    lsq.insert(2, false, 0x200);
    EXPECT_FALSE(lsq.loadMayIssue(2));
    EXPECT_TRUE(lsq.loadMayIssue(2, {1}));
}

TEST(Lsq, RetireInOrder)
{
    Arena arena;
    Lsq lsq(arena, 4);
    lsq.insert(1, false, 0x0);
    lsq.insert(2, true, 0x8);
    EXPECT_EQ(lsq.size(), 2u);
    lsq.retire(1);
    lsq.storeIssued(2);
    lsq.retire(2);
    EXPECT_EQ(lsq.size(), 0u);
}

TEST(Lsq, SquashDropsYoungEntries)
{
    Arena arena;
    Lsq lsq(arena, 8);
    lsq.insert(1, false, 0x0);
    lsq.insert(2, true, 0x8);
    lsq.insert(3, false, 0x10);
    lsq.squashFrom(2);
    EXPECT_EQ(lsq.size(), 1u);
    EXPECT_TRUE(lsq.loadMayIssue(99));  // no unknown stores remain
}

TEST(Lsq, ForwardingMatchesAReferenceWalkThroughRetireSquashRestore)
{
    // loadForwards answers most loads from per-word-bucket counts of
    // known stores; drive the queue through random inserts, store
    // issues, retires, squashes and snapshot round trips and compare
    // every answer with a plain walk over a mirror of the queue.
    struct Ref
    {
        InstSeqNum seq;
        bool isStore;
        bool known;
        Addr addr;
    };
    std::mt19937_64 rng(7);
    Arena arena;
    auto lsq = std::make_unique<Lsq>(arena, 16);
    std::deque<Ref> ref;
    InstSeqNum seq = 0;
    // Few distinct words, many sharing a bucket: 0x100 + k * 0x200.
    auto addr = [&] { return Addr(0x100 + (rng() % 6) * 0x200 + rng() % 8); };
    for (int step = 0; step < 20000; ++step) {
        switch (rng() % 6) {
          case 0:
          case 1:
            if (!lsq->full()) {
                const bool st = rng() % 2 == 0;
                const Addr a = addr();
                lsq->insert(++seq, st, a);
                ref.push_back({seq, st, false, a});
            }
            break;
          case 2:
            for (Ref &e : ref) {
                if (e.isStore && !e.known && rng() % 2 == 0) {
                    lsq->storeIssued(e.seq);
                    e.known = true;
                    break;
                }
            }
            break;
          case 3:
            if (!ref.empty() && (!ref.front().isStore || ref.front().known)) {
                lsq->retire(ref.front().seq);
                ref.pop_front();
            }
            break;
          case 4:
            if (!ref.empty() && rng() % 4 == 0) {
                const InstSeqNum from = ref[rng() % ref.size()].seq;
                lsq->squashFrom(from);
                while (!ref.empty() && ref.back().seq >= from)
                    ref.pop_back();
            }
            break;
          case 5:
            if (rng() % 8 == 0) {
                BinWriter w;
                lsq->save(w);
                const std::string bytes = w.take();
                lsq = std::make_unique<Lsq>(arena, 16);
                BinReader r(bytes);
                lsq->restore(r);
            }
            break;
        }
        const Addr a = addr();
        const InstSeqNum probe = ref.empty() ? seq + 1
                                             : ref[rng() % ref.size()].seq;
        bool expect = false;
        for (const Ref &e : ref)
            if (e.seq < probe && e.isStore && e.known &&
                e.addr >> 3 == a >> 3)
                expect = true;
        ASSERT_EQ(lsq->loadForwards(probe, a), expect) << "step " << step;
    }
}

TEST(Lsq, CapacityEnforced)
{
    Arena arena;
    Lsq lsq(arena, 2);
    lsq.insert(1, false, 0x0);
    EXPECT_FALSE(lsq.full());
    lsq.insert(2, false, 0x8);
    EXPECT_TRUE(lsq.full());
}

// ---------------------------------------------------------------------------
// IssueWindow: event-driven wake-up and age-ordered select.
// ---------------------------------------------------------------------------

/** The window's ready set, oldest first. */
std::vector<InFlightInst *>
readySet(const IssueWindow &iw)
{
    std::vector<InFlightInst *> out;
    for (std::size_t s = iw.nextReady(0); s != IssueWindow::kNoSlot;
         s = iw.nextReady(s + 1))
        out.push_back(iw.at(s));
    return out;
}

InFlightInst
windowEntry(InstSeqNum seq, Tick visible, PhysReg src1 = kNoPhysReg,
            PhysReg src2 = kNoPhysReg)
{
    InFlightInst i;
    i.arch.seq = seq;
    i.iwVisible = visible;
    i.src1Phys = src1;
    i.src2Phys = src2;
    return i;
}

TEST(IssueWindow, InsertRemoveOccupancy)
{
    Arena arena;
    IssueWindow iw(arena, 4, 8);
    std::vector<Tick> ready(8, 0);
    InFlightInst a = windowEntry(1, 0), b = windowEntry(2, 0);
    iw.insert(&a, ready.data());
    iw.insert(&b, ready.data());
    EXPECT_EQ(iw.occupancy(), 2u);
    EXPECT_TRUE(a.inIw);
    iw.promote(0);
    iw.remove(&a);
    EXPECT_EQ(iw.occupancy(), 1u);
    EXPECT_FALSE(a.inIw);
}

TEST(IssueWindow, VisibilityRespectsTicks)
{
    Arena arena;
    IssueWindow iw(arena, 4, 8);
    std::vector<Tick> ready(8, 0);
    InFlightInst a = windowEntry(1, 100), b = windowEntry(2, 50);
    iw.insert(&a, ready.data());
    iw.insert(&b, ready.data());
    iw.promote(60);
    EXPECT_EQ(readySet(iw), std::vector<InFlightInst *>{&b});
    iw.promote(100);
    // Oldest first despite the later visibility.
    EXPECT_EQ(readySet(iw), (std::vector<InFlightInst *>{&a, &b}));
}

TEST(IssueWindow, FullDetection)
{
    Arena arena;
    IssueWindow iw(arena, 2, 8);
    std::vector<Tick> ready(8, 0);
    InFlightInst a = windowEntry(1, 0), b = windowEntry(2, 0);
    iw.insert(&a, ready.data());
    EXPECT_FALSE(iw.full());
    iw.insert(&b, ready.data());
    EXPECT_TRUE(iw.full());
}

TEST(IssueWindow, ConsumerWakesAtMaxOfVisibilityAndProducerTick)
{
    Arena arena;
    IssueWindow iw(arena, 4, 8);
    std::vector<Tick> ready(8, 0);
    ready[3] = kTickMax;  // producer not yet selected
    ready[4] = kTickMax;
    // Visible before its operand is written...
    InFlightInst early = windowEntry(1, 30, 3);
    // ...and visible only after its operand is written.
    InFlightInst late = windowEntry(2, 70, 4);
    iw.insert(&early, ready.data());
    iw.insert(&late, ready.data());
    iw.promote(40);
    EXPECT_TRUE(readySet(iw).empty());  // visible, but waiting

    // Both producers are selected at 40 with results at 50.
    ready[3] = 50;
    iw.wake(3, ready.data());
    ready[4] = 50;
    iw.wake(4, ready.data());
    iw.promote(49);
    EXPECT_TRUE(readySet(iw).empty());
    iw.promote(50);
    EXPECT_EQ(readySet(iw), std::vector<InFlightInst *>{&early});
    iw.promote(69);
    EXPECT_EQ(readySet(iw), std::vector<InFlightInst *>{&early});
    iw.promote(70);
    EXPECT_EQ(readySet(iw), (std::vector<InFlightInst *>{&early, &late}));
}

TEST(IssueWindow, OldestFirstWhenYoungerWokeFirst)
{
    Arena arena;
    IssueWindow iw(arena, 4, 8);
    std::vector<Tick> ready(8, 0);
    ready[1] = ready[2] = kTickMax;
    InFlightInst older = windowEntry(1, 0, 1);
    InFlightInst younger = windowEntry(2, 0, 2);
    iw.insert(&older, ready.data());
    iw.insert(&younger, ready.data());

    ready[2] = 10;
    iw.wake(2, ready.data());
    iw.promote(10);
    EXPECT_EQ(readySet(iw), std::vector<InFlightInst *>{&younger});

    ready[1] = 20;
    iw.wake(1, ready.data());
    iw.promote(20);
    EXPECT_EQ(readySet(iw),
              (std::vector<InFlightInst *>{&older, &younger}));
}

TEST(IssueWindow, SameRegisterTwiceRegistersOnce)
{
    Arena arena;
    IssueWindow iw(arena, 4, 8);
    std::vector<Tick> ready(8, 0);
    ready[5] = kTickMax;
    InFlightInst both = windowEntry(1, 0, 5, 5);
    InFlightInst idle = windowEntry(2, 1000);  // keeps the slots live
    iw.insert(&both, ready.data());
    iw.insert(&idle, ready.data());

    ready[5] = 10;
    iw.wake(5, ready.data());
    iw.promote(10);
    EXPECT_EQ(readySet(iw), std::vector<InFlightInst *>{&both});
    iw.remove(&both);
    // A second registration would have queued the entry twice and
    // resurrected its (now tombstoned) slot here.
    iw.promote(20);
    EXPECT_TRUE(readySet(iw).empty());
    EXPECT_EQ(iw.occupancy(), 1u);
}

/**
 * Randomized differential check of the window against the select
 * rule it replaced: scan every live entry oldest first each cycle and
 * admit those visible at now whose source ticks have passed, reading
 * the scoreboard as it stands when the entry is considered (so a
 * zero-latency producer selected earlier in the walk wakes its
 * consumer in the same cycle).
 */
class WindowOracleHarness
{
  public:
    static constexpr unsigned kRegs = 40;
    static constexpr unsigned kArch = 8;
    static constexpr Tick kPeriod = 10;

    WindowOracleHarness(unsigned entries, std::uint64_t seed)
        : entries_(entries), rng_(seed), ready_(kRegs, 0)
    {
        rebuildWindow();
        for (unsigned r = 0; r < kArch; ++r)
            map_[r] = static_cast<PhysReg>(r);
        for (unsigned r = kArch; r < kRegs; ++r)
            free_.push_back(static_cast<PhysReg>(r));
    }

    /** One back-end cycle: promote, select, dispatch. */
    void
    cycle(std::uint64_t n)
    {
        const Tick now = n * kPeriod;
        iw_->promote(now);

        // The ready set at cycle start is the rescan's admission set.
        std::vector<InFlightInst *> expect_ready;
        for (InFlightInst *p : live_)
            if (admits(*p, now, ready_))
                expect_ready.push_back(p);
        ASSERT_EQ(readySet(*iw_), expect_ready) << "cycle " << n;

        // Select with a random width and deterministic FU/LSQ-style
        // refusals; the oracle runs first on a scoreboard copy.
        const unsigned width = 1 + rng_() % 4;
        std::vector<Tick> oracle_ready = ready_;
        std::vector<InstSeqNum> expect_issued;
        for (InFlightInst *p : live_) {
            if (expect_issued.size() >= width)
                break;
            if (!admits(*p, now, oracle_ready) || refused(*p, n))
                continue;
            if (p->destPhys != kNoPhysReg)
                oracle_ready[p->destPhys] = resultTick(*p, now);
            expect_issued.push_back(p->arch.seq);
        }

        std::vector<InstSeqNum> issued;
        for (std::size_t s = iw_->nextReady(0);
             s != IssueWindow::kNoSlot && issued.size() < width;
             s = iw_->nextReady(s + 1)) {
            InFlightInst *p = iw_->at(s);
            if (refused(*p, n))
                continue;
            iw_->remove(p);
            if (p->destPhys != kNoPhysReg) {
                ready_[p->destPhys] = resultTick(*p, now);
                iw_->wake(p->destPhys, ready_.data());
            }
            issued.push_back(p->arch.seq);
        }
        ASSERT_EQ(issued, expect_issued) << "cycle " << n;
        ASSERT_EQ(ready_, oracle_ready);
        std::vector<InFlightInst *> still;
        for (InFlightInst *p : live_)
            if (p->inIw)
                still.push_back(p);
        live_.swap(still);

        dispatch(now);
        releaseRegisters();
        // Periodically stand the window back up from its snapshot
        // bytes plus the scoreboard, as CoreBase::restore does.
        if (n % 37 == 36)
            roundTrip();
        ASSERT_EQ(iw_->occupancy(), live_.size());
    }

  private:
    static bool
    admits(const InFlightInst &p, Tick now, const std::vector<Tick> &rr)
    {
        return p.iwVisible <= now &&
               (p.src1Phys == kNoPhysReg || rr[p.src1Phys] <= now) &&
               (p.src2Phys == kNoPhysReg || rr[p.src2Phys] <= now);
    }

    static bool
    refused(const InFlightInst &p, std::uint64_t n)
    {
        return (p.arch.seq * 7 + n * 3) % 5 == 0;
    }

    /** 0-2 cycle producers: 0 exercises the same-cycle wake. */
    static Tick
    resultTick(const InFlightInst &p, Tick now)
    {
        return now + (p.arch.seq % 3) * kPeriod;
    }

    void
    dispatch(Tick now)
    {
        const unsigned n = rng_() % 4;
        for (unsigned i = 0; i < n && !iw_->full(); ++i) {
            InFlightInst &p = store_.emplace_back();
            p.arch.seq = ++seq_;
            p.iwVisible = now + (1 + rng_() % 3) * kPeriod;
            if (rng_() % 5 != 0)
                p.src1Phys = map_[rng_() % kArch];
            if (rng_() % 3 != 0)
                p.src2Phys = map_[rng_() % kArch];
            if (rng_() % 5 != 0 && !free_.empty()) {
                const unsigned arch = rng_() % kArch;
                p.destPhys = free_.front();
                free_.pop_front();
                ready_[p.destPhys] = kTickMax;  // renamed, unwritten
                retiring_.push_back(map_[arch]);
                map_[arch] = p.destPhys;
            }
            iw_->insert(&p, ready_.data());
            live_.push_back(&p);
        }
    }

    /**
     * A replaced mapping returns to the free list once no live entry
     * reads or writes it — the scoreboard invariant the window
     * relies on, kept here the way the cores keep it.
     */
    void
    releaseRegisters()
    {
        std::vector<PhysReg> keep;
        for (PhysReg r : retiring_) {
            bool busy = false;
            for (const InFlightInst *p : live_)
                busy = busy || p->src1Phys == r || p->src2Phys == r ||
                       p->destPhys == r;
            if (busy)
                keep.push_back(r);
            else
                free_.push_back(r);
        }
        retiring_.swap(keep);
    }

    void
    roundTrip()
    {
        BinWriter w;
        iw_->save(w, [this](const InFlightInst *p) {
            for (std::size_t i = 0; i < store_.size(); ++i)
                if (&store_[i] == p)
                    return std::uint64_t(i);
            ADD_FAILURE() << "window entry outside the store";
            return std::uint64_t(0);
        });
        const std::string bytes = w.take();
        rebuildWindow();
        BinReader r(bytes);
        iw_->restore(r, [this](std::uint64_t i) { return &store_[i]; });
        iw_->reschedule(ready_.data());
    }

    void
    rebuildWindow()
    {
        iw_.reset();
        arena_ = std::make_unique<Arena>();
        iw_ = std::make_unique<IssueWindow>(*arena_, entries_, kRegs);
    }

    unsigned entries_;
    std::mt19937_64 rng_;
    std::vector<Tick> ready_;
    std::unique_ptr<Arena> arena_;
    std::unique_ptr<IssueWindow> iw_;
    std::deque<InFlightInst> store_;     // stable addresses
    std::vector<InFlightInst *> live_;   // window entries, age order
    PhysReg map_[kArch];
    std::deque<PhysReg> free_;
    std::vector<PhysReg> retiring_;
    InstSeqNum seq_ = 0;
};

TEST(IssueWindow, MatchesPerCycleRescanOracle)
{
    // A 12-entry window compacts its slot array every dozen
    // dispatches; the 64-entry one runs mostly uncompacted.
    for (unsigned entries : {12u, 64u}) {
        for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
            SCOPED_TRACE("entries " + std::to_string(entries) +
                         " seed " + std::to_string(seed));
            WindowOracleHarness h(entries, seed);
            for (std::uint64_t n = 0; n < 3000; ++n) {
                h.cycle(n);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CoreBase::stepIssue over hand-placed instructions.
// ---------------------------------------------------------------------------

/**
 * A core whose rename is the identity (architected register =
 * physical register) and whose pipeline is stepped by hand, so a
 * test can place instructions in the window and watch the real
 * stepDispatch / stepIssue path select them.
 */
class SelectProbe : public CoreBase
{
  public:
    static constexpr Tick kPeriod = 1000;

    SelectProbe(const CoreParams &params, WorkloadStream &stream)
        : CoreBase(params, stream, kNumArchRegs)
    {}

    void run(std::uint64_t) override {}

    /** Dispatch @p op at @p now; visible one cycle later. */
    InFlightInst *
    dispatch(OpClass op, ArchReg dest, ArchReg src1, ArchReg src2,
             Tick now, Addr addr = 0)
    {
        InFlightInst i;
        i.arch.seq = ++seq_;
        i.arch.op = op;
        i.arch.dest = dest;
        i.arch.src1 = src1;
        i.arch.src2 = src2;
        i.arch.effAddr = addr;
        i.dispatchReady = now;
        feQueue_.push_back(i);
        stepDispatch(now, kPeriod);
        return &rob_.back();
    }

    void issue(Tick now) { stepIssue(now, kPeriod); }

  protected:
    bool canRenameDest(const InFlightInst &) override { return true; }

    void
    renameSrcs(InFlightInst &i) override
    {
        if (i.arch.src1 != kNoArchReg)
            i.src1Phys = i.arch.src1;
        if (i.arch.src2 != kNoArchReg)
            i.src2Phys = i.arch.src2;
    }

    void
    renameDest(InFlightInst &i) override
    {
        if (!i.arch.hasDest())
            return;
        i.destPhys = i.arch.dest;
        setRegReady(i.destPhys, kTickMax);
    }

  private:
    InstSeqNum seq_ = 0;
};

class StepIssueTest : public ::testing::Test
{
  protected:
    StepIssueTest()
        : program_(benchmarkByName("gcc")), stream_(program_)
    {}

    std::unique_ptr<SelectProbe>
    probe(const CoreParams &params)
    {
        return std::make_unique<SelectProbe>(params, stream_);
    }

    StaticProgram program_;
    WorkloadStream stream_;  // unused: the probe never fetches
};

TEST_F(StepIssueTest, IssueWidthCutOffCarriesToNextCycle)
{
    CoreParams params;
    params.issueWidth = 2;
    auto core = probe(params);
    InFlightInst *a = core->dispatch(OpClass::IntAlu, 1, kNoArchReg,
                                     kNoArchReg, 0);
    InFlightInst *b = core->dispatch(OpClass::IntAlu, 2, kNoArchReg,
                                     kNoArchReg, 0);
    InFlightInst *c = core->dispatch(OpClass::IntAlu, 3, kNoArchReg,
                                     kNoArchReg, 0);
    core->issue(1000);
    EXPECT_TRUE(a->issued && b->issued);
    EXPECT_FALSE(c->issued);
    core->issue(2000);
    ASSERT_TRUE(c->issued);
    EXPECT_EQ(c->issueTick, 2000u);
}

TEST_F(StepIssueTest, FuRefusalCarriesToNextCycleWithoutStoppingTheWalk)
{
    CoreParams params;
    params.fus.intMulDiv = 1;
    auto core = probe(params);
    InFlightInst *m1 = core->dispatch(OpClass::IntMul, 1, kNoArchReg,
                                      kNoArchReg, 0);
    InFlightInst *m2 = core->dispatch(OpClass::IntMul, 2, kNoArchReg,
                                      kNoArchReg, 0);
    InFlightInst *alu = core->dispatch(OpClass::IntAlu, 3, kNoArchReg,
                                       kNoArchReg, 0);
    core->issue(1000);
    EXPECT_TRUE(m1->issued);
    EXPECT_FALSE(m2->issued);   // the one multiplier is taken
    EXPECT_TRUE(alu->issued);   // younger, but its FU is free
    core->issue(2000);
    ASSERT_TRUE(m2->issued);
    EXPECT_EQ(m2->issueTick, 2000u);
}

TEST_F(StepIssueTest, OlderStoreIssuingUnblocksYoungerLoadSameCycle)
{
    CoreParams params;
    auto core = probe(params);
    InFlightInst *st = core->dispatch(OpClass::Store, kNoArchReg, 1, 2,
                                      0, 0x10000040);
    InFlightInst *ld = core->dispatch(OpClass::Load, 3, 4, kNoArchReg,
                                      0, 0x10000080);
    core->issue(1000);
    ASSERT_TRUE(st->issued && ld->issued);
    EXPECT_EQ(st->issueTick, ld->issueTick);
}

TEST_F(StepIssueTest, GatedLoadsLetYoungerWorkIssueUntilTheStoreResolves)
{
    CoreParams params;
    params.fus.memPorts = 4;
    auto core = probe(params);
    // The oldest store waits on a divide, so its address stays
    // unknown and the LSQ gate refuses every younger load.
    InFlightInst *div = core->dispatch(OpClass::IntDiv, 10, kNoArchReg,
                                       kNoArchReg, 0);
    InFlightInst *st0 = core->dispatch(OpClass::Store, kNoArchReg, 10, 1,
                                       0, 0x10000000);
    InFlightInst *ld1 = core->dispatch(OpClass::Load, 2, 1, kNoArchReg,
                                       0, 0x10000040);
    InFlightInst *st2 = core->dispatch(OpClass::Store, kNoArchReg, 1, 3,
                                       0, 0x10000080);
    InFlightInst *ld3 = core->dispatch(OpClass::Load, 4, 1, kNoArchReg,
                                       0, 0x100000c0);
    InFlightInst *alu = core->dispatch(OpClass::IntAlu, 5, 1,
                                       kNoArchReg, 0);
    core->issue(1000);
    EXPECT_TRUE(div->issued && st2->issued && alu->issued);
    // ld1 shuts the gate for the rest of the walk; st2 issuing does
    // not resolve st0, so ld3 stays gated while alu still issues.
    EXPECT_FALSE(st0->issued || ld1->issued || ld3->issued);

    const Tick resolve = div->issueTick + params.lat.intDiv * 1000;
    for (Tick now = 2000; now <= resolve; now += 1000)
        core->issue(now);
    ASSERT_TRUE(st0->issued && ld1->issued && ld3->issued);
    EXPECT_EQ(st0->issueTick, resolve);
    EXPECT_EQ(ld1->issueTick, resolve);
    EXPECT_EQ(ld3->issueTick, resolve);
}

TEST_F(StepIssueTest, ZeroLatencyProducerWakesConsumerInTheSameWalk)
{
    CoreParams params;
    params.lat.intAlu = 0;
    auto core = probe(params);
    InFlightInst *prod = core->dispatch(OpClass::IntAlu, 1, kNoArchReg,
                                        kNoArchReg, 0);
    InFlightInst *cons = core->dispatch(OpClass::IntAlu, 2, 1, 1, 0);
    core->issue(1000);
    ASSERT_TRUE(prod->issued && cons->issued);
    EXPECT_EQ(cons->issueTick, prod->issueTick);
}

TEST_F(StepIssueTest, ConsumerIssuesWhenTheProducerResultIsBypassed)
{
    CoreParams params;
    params.lat.intMul = 3;
    auto core = probe(params);
    InFlightInst *prod = core->dispatch(OpClass::IntMul, 1, kNoArchReg,
                                        kNoArchReg, 0);
    InFlightInst *cons = core->dispatch(OpClass::IntAlu, 2, 1,
                                        kNoArchReg, 0);
    for (Tick now = 1000; now <= 5000; now += 1000)
        core->issue(now);
    ASSERT_TRUE(prod->issued && cons->issued);
    EXPECT_EQ(cons->issueTick, prod->issueTick + 3000);
}

// ---------------------------------------------------------------------------
// Snapshots taken while window entries wait on unwritten registers.
// ---------------------------------------------------------------------------

/** Exposes how many window entries wait on an unwritten source. */
template <typename Core>
class WaitProbe : public Core
{
  public:
    using Core::Core;

    unsigned
    waitingEntries() const
    {
        unsigned n = 0;
        for (const InFlightInst &i : this->rob_)
            if (i.inIw &&
                this->unreadySource(i, kTickMax - 1) != kNoPhysReg)
                ++n;
        return n;
    }
};

template <typename Core>
void
checkRestoreWithWaiters(CoreKind kind)
{
    RunConfig config;
    config.profile = benchmarkByName("gcc");
    config.kind = kind;
    StaticProgram program(config.profile);

    WorkloadStream stream_a(program);
    WaitProbe<Core> a(config.params, stream_a);
    a.run(5000);
    // Advance to a retirement boundary where entries are waiting.
    for (unsigned i = 0; i < 5000 && a.waitingEntries() == 0; ++i)
        a.run(1);
    const unsigned waiting = a.waitingEntries();
    ASSERT_GT(waiting, 0u);
    Snapshot snap;
    a.save(snap);
    Snapshot bytes;
    std::string error;
    ASSERT_TRUE(Snapshot::deserialize(snap.serialize(), &bytes, &error))
        << error;
    a.run(8000);

    StaticProgram program_b(config.profile);
    WorkloadStream stream_b(program_b);
    WaitProbe<Core> b(config.params, stream_b);
    b.restore(bytes);
    EXPECT_EQ(b.waitingEntries(), waiting);
    b.run(8000);

    EXPECT_EQ(toJson(reduceToResult(config, a.events(), a.stats())).dump(),
              toJson(reduceToResult(config, b.events(), b.stats())).dump());
    Snapshot end_a, end_b;
    a.save(end_a);
    b.save(end_b);
    EXPECT_EQ(end_a.contentHash(), end_b.contentHash());
}

TEST(IssueWindowSnapshot, RestoreWithWaitingEntriesContinuesIdentically)
{
    checkRestoreWithWaiters<BaselineCore>(CoreKind::Baseline);
    checkRestoreWithWaiters<FlywheelCore>(CoreKind::Flywheel);
}

// ---------------------------------------------------------------------------
// FunctionalUnits.
// ---------------------------------------------------------------------------

TEST(FunctionalUnits, PerCycleWidthLimits)
{
    FuParams fus;  // 4 int ALUs
    Arena arena;
    FunctionalUnits fu(arena, fus, {});
    fu.beginCycle(0);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(fu.tryIssue(OpClass::IntAlu, 0, 1000.0));
    EXPECT_FALSE(fu.tryIssue(OpClass::IntAlu, 0, 1000.0));
    fu.beginCycle(1000);
    EXPECT_TRUE(fu.tryIssue(OpClass::IntAlu, 1000, 1000.0));
}

TEST(FunctionalUnits, MemoryPortsShared)
{
    Arena arena;
    FunctionalUnits fu(arena, {}, {});
    fu.beginCycle(0);
    EXPECT_TRUE(fu.tryIssue(OpClass::Load, 0, 1000.0));
    EXPECT_TRUE(fu.tryIssue(OpClass::Store, 0, 1000.0));
    EXPECT_FALSE(fu.tryIssue(OpClass::Load, 0, 1000.0));
}

TEST(FunctionalUnits, UnpipelinedDivideHoldsUnit)
{
    FuParams fus;
    fus.fpMulDiv = 1;
    FuLatencies lat;
    lat.fpDiv = 12;
    Arena arena;
    FunctionalUnits fu(arena, fus, lat);
    fu.beginCycle(0);
    EXPECT_TRUE(fu.tryIssue(OpClass::FpDiv, 0, 1000.0));
    // Unit busy for 12 cycles; pipelined muls cannot slip in.
    fu.beginCycle(1000);
    EXPECT_FALSE(fu.tryIssue(OpClass::FpMul, 1000, 1000.0));
    fu.beginCycle(12000);
    EXPECT_TRUE(fu.tryIssue(OpClass::FpMul, 12000, 1000.0));
}

TEST(FunctionalUnits, PipelinedMultiplyAcceptsBackToBack)
{
    Arena arena;
    FunctionalUnits fu(arena, {}, {});
    fu.beginCycle(0);
    EXPECT_TRUE(fu.tryIssue(OpClass::IntMul, 0, 1000.0));
    fu.beginCycle(1000);
    EXPECT_TRUE(fu.tryIssue(OpClass::IntMul, 1000, 1000.0));
}

TEST(FunctionalUnits, SaveRestoreUndoesClaims)
{
    Arena arena;
    FunctionalUnits fu(arena, {}, {});
    fu.beginCycle(0);
    FunctionalUnits::State snap;
    fu.save(snap, /*divides=*/false);
    EXPECT_TRUE(fu.tryIssue(OpClass::Load, 0, 1000.0));
    EXPECT_TRUE(fu.tryIssue(OpClass::Store, 0, 1000.0));
    EXPECT_FALSE(fu.canIssue(OpClass::Load, 0, 0));
    fu.restore(snap);
    EXPECT_TRUE(fu.canIssue(OpClass::Load, 0, 0));
    EXPECT_TRUE(fu.tryIssue(OpClass::Load, 0, 1000.0));

    // A divide holds its unit past the cycle; a full save undoes that
    // too.  Both MUL/DIV units are taken, so only the undo frees one.
    fu.beginCycle(1000);
    fu.save(snap, /*divides=*/true);
    EXPECT_TRUE(fu.tryIssue(OpClass::IntDiv, 1000, 1000.0));
    EXPECT_TRUE(fu.tryIssue(OpClass::IntDiv, 1000, 1000.0));
    fu.restore(snap);
    fu.beginCycle(2000);
    EXPECT_TRUE(fu.tryIssue(OpClass::IntMul, 2000, 1000.0));
}

TEST(FunctionalUnits, CanIssueCountsPriorClaims)
{
    Arena arena;
    FunctionalUnits fu(arena, {}, {});
    fu.beginCycle(0);
    EXPECT_TRUE(fu.canIssue(OpClass::Load, 0, 0));
    EXPECT_TRUE(fu.canIssue(OpClass::Load, 0, 1));
    EXPECT_FALSE(fu.canIssue(OpClass::Load, 0, 2));  // 2 mem ports
}

} // namespace
} // namespace flywheel
