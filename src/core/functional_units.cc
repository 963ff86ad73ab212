#include "core/functional_units.hh"

#include <algorithm>

#include "common/log.hh"
#include "snapshot/bincodec.hh"

namespace flywheel {

FunctionalUnits::FunctionalUnits(Arena &arena, const FuParams &fus,
                                 const FuLatencies &lat)
    : lat_(lat), intAlu_(arena), intMulDiv_(arena), memPort_(arena),
      fpAdd_(arena), fpMulDiv_(arena)
{
    auto init = [](Pool &p, unsigned count) {
        p.count = count;
        p.busyUntil.assign(count, 0);
    };
    init(intAlu_, fus.intAlu);
    init(intMulDiv_, fus.intMulDiv);
    init(memPort_, fus.memPorts);
    init(fpAdd_, fus.fpAdd);
    init(fpMulDiv_, fus.fpMulDiv);
}

void
FunctionalUnits::beginCycle(Tick)
{
    intAlu_.usedThisCycle = 0;
    intMulDiv_.usedThisCycle = 0;
    memPort_.usedThisCycle = 0;
    fpAdd_.usedThisCycle = 0;
    fpMulDiv_.usedThisCycle = 0;
}

FunctionalUnits::Pool &
FunctionalUnits::poolFor(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:
      case OpClass::Branch:
      case OpClass::Nop:
        return intAlu_;
      case OpClass::IntMul:
      case OpClass::IntDiv:
        return intMulDiv_;
      case OpClass::Load:
      case OpClass::Store:
        return memPort_;
      case OpClass::FpAdd:
        return fpAdd_;
      case OpClass::FpMul:
      case OpClass::FpDiv:
        return fpMulDiv_;
    }
    FW_PANIC("bad op class");
}

bool
FunctionalUnits::claim(Pool &pool, Tick now, Tick busy_until)
{
    if (pool.usedThisCycle >= pool.count)
        return false;
    // Find a unit that is not occupied by an unpipelined op.
    for (unsigned u = 0; u < pool.count; ++u) {
        if (pool.busyUntil[u] <= now) {
            ++pool.usedThisCycle;
            if (busy_until > now)
                pool.busyUntil[u] = busy_until;
            return true;
        }
    }
    return false;
}

void
FunctionalUnits::save(State &s, bool divides) const
{
    s.busySaved = divides;
    unsigned i = 0;
    for (const Pool *p : {&intAlu_, &intMulDiv_, &memPort_, &fpAdd_,
                          &fpMulDiv_}) {
        s.used[i] = p->usedThisCycle;
        // Equal-size assign after the first save: no realloc.
        if (divides)
            s.busy[i].assign(p->busyUntil.data(),
                             p->busyUntil.data() + p->busyUntil.size());
        ++i;
    }
}

void
FunctionalUnits::restore(const State &s)
{
    unsigned i = 0;
    for (Pool *p : {&intAlu_, &intMulDiv_, &memPort_, &fpAdd_,
                    &fpMulDiv_}) {
        p->usedThisCycle = s.used[i];
        if (s.busySaved)
            std::copy(s.busy[i].begin(), s.busy[i].end(),
                      p->busyUntil.data());
        ++i;
    }
}

void
FunctionalUnits::save(BinWriter &w) const
{
    for (const Pool *p : {&intAlu_, &intMulDiv_, &memPort_, &fpAdd_,
                          &fpMulDiv_}) {
        w.u32(p->usedThisCycle);
        w.podArray(p->busyUntil.data(), p->busyUntil.size());
    }
}

void
FunctionalUnits::restore(BinReader &r)
{
    for (Pool *p : {&intAlu_, &intMulDiv_, &memPort_, &fpAdd_,
                    &fpMulDiv_}) {
        p->usedThisCycle = r.u32();
        r.podArray(p->busyUntil.data(), p->busyUntil.size());
    }
}

bool
FunctionalUnits::canIssue(OpClass op, Tick now,
                          unsigned already_claimed) const
{
    const Pool &pool = const_cast<FunctionalUnits *>(this)->poolFor(op);
    if (pool.usedThisCycle + already_claimed >= pool.count)
        return false;
    unsigned free_units = 0;
    for (unsigned u = 0; u < pool.count; ++u) {
        if (pool.busyUntil[u] <= now)
            ++free_units;
    }
    return free_units > pool.usedThisCycle + already_claimed;
}

bool
FunctionalUnits::tryIssue(OpClass op, Tick now, double period_ps)
{
    Pool &pool = poolFor(op);
    Tick busy_until = now;
    // Divides are unpipelined: the unit is held for the full latency.
    if (op == OpClass::IntDiv) {
        busy_until = now + static_cast<Tick>(lat_.intDiv * period_ps);
    } else if (op == OpClass::FpDiv) {
        busy_until = now + static_cast<Tick>(lat_.fpDiv * period_ps);
    }
    return claim(pool, now, busy_until);
}

} // namespace flywheel
