#include "core/baseline_core.hh"

#include <cmath>

#include "common/log.hh"
#include "snapshot/snapshot.hh"

namespace flywheel {

BaselineCore::BaselineCore(const CoreParams &params,
                           WorkloadStream &stream)
    : CoreBase(params, stream, params.physRegs),
      renameMap_(arena_, params.physRegs),
      period_(static_cast<Tick>(std::llround(params.basePeriodPs)))
{}

bool
BaselineCore::canRenameDest(const InFlightInst &inst)
{
    return !inst.arch.hasDest() || renameMap_.hasFree();
}

void
BaselineCore::renameSrcs(InFlightInst &inst)
{
    if (inst.arch.src1 != kNoArchReg)
        inst.src1Phys = renameMap_.lookup(inst.arch.src1);
    if (inst.arch.src2 != kNoArchReg)
        inst.src2Phys = renameMap_.lookup(inst.arch.src2);
}

void
BaselineCore::renameDest(InFlightInst &inst)
{
    if (!inst.arch.hasDest())
        return;
    auto [fresh, old] = renameMap_.allocate(inst.arch.dest);
    inst.destPhys = fresh;
    inst.oldDestPhys = old;
    setRegReady(fresh, kTickMax);  // not ready until written
}

void
BaselineCore::onRetire(InFlightInst &inst, Tick)
{
    if (inst.oldDestPhys != kNoPhysReg)
        renameMap_.release(inst.oldDestPhys);
}

void
BaselineCore::save(Snapshot &snap) const
{
    CoreBase::save(snap);
    BinWriter w;
    w.str("baseline");
    renameMap_.save(w);
    w.u64(cycle_);
    snap.addSection("core", w.take());
}

void
BaselineCore::restore(const Snapshot &snap)
{
    CoreBase::restore(snap);
    BinReader r = snap.section("core");
    const std::string type = r.str();
    FW_ASSERT(type == "baseline",
              "restoring a %s snapshot into a baseline core",
              type.c_str());
    renameMap_.restore(r);
    cycle_ = r.u64();
}

void
BaselineCore::run(std::uint64_t n)
{
    const std::uint64_t goal = stats_.retired + n;
    while (stats_.retired < goal) {
        const Tick now = cycle_ * period_;
        stepRetire(now, period_);
        stepComplete(now, period_);
        stepIssue(now, period_);
        stepDispatch(now, period_);
        stepFetch(now, period_);

        ++cycle_;
        ++events_.beCycles;
        ++events_.feCycles;
        ++events_.iwActiveCycles;
        events_.totalTicks = cycle_ * period_;
        events_.feActiveTicks = events_.totalTicks;
        checkProgress(now);
    }
}

} // namespace flywheel
