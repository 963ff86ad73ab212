#include "core/report.hh"

#include <iomanip>

namespace flywheel {

namespace {

void
line(std::ostream &os, const char *name, double v, const char *unit,
     int prec = 3)
{
    os << "  " << std::left << std::setw(28) << name << std::right
       << std::fixed << std::setprecision(prec) << v << ' ' << unit
       << '\n';
}

} // namespace

void
writeReport(std::ostream &os, const std::string &title,
            const RunResult &r)
{
    os << title << '\n';
    os << std::string(title.size(), '-') << '\n';

    line(os, "instructions", double(r.instructions), "", 0);
    line(os, "execution time", double(r.timePs) / 1e6, "us");
    line(os, "IPC (baseline cycles)", r.ipc, "");
    line(os, "conditional mispredict rate", r.mispredictRate, "");

    if (r.stats.ecRetired > 0) {
        line(os, "EC residency", r.ecResidency * 100.0, "%", 1);
        line(os, "traces built", double(r.stats.tracesBuilt), "", 0);
        line(os, "trace changes", double(r.stats.traceChanges), "", 0);
        line(os, "trace divergences",
             double(r.stats.traceDivergences), "", 0);
        line(os, "pool redistributions",
             double(r.stats.redistributions), "", 0);
        line(os, "checkpoint stall cycles",
             double(r.stats.checkpointStallCycles), "", 0);
    }

    const EnergyBreakdown &e = r.energy;
    double total = e.totalPj();
    os << "  energy breakdown:\n";
    auto share = [&](const char *name, double pj) {
        os << "    " << std::left << std::setw(12) << name
           << std::right << std::fixed << std::setprecision(1)
           << pj / total * 100.0 << " %\n";
    };
    share("front-end", e.frontEndPj);
    share("issue", e.issuePj);
    share("execute", e.execPj);
    share("memory", e.memoryPj);
    share("exec-cache", e.ecPj);
    share("clock", e.clockPj);
    share("leakage", e.leakagePj);
    line(os, "total energy", total / 1e6, "uJ");
    line(os, "average power", r.averageWatts, "W");
}

void
writeComparison(std::ostream &os, const std::string &title_a,
                const RunResult &a, const std::string &title_b,
                const RunResult &b)
{
    writeReport(os, title_a, a);
    os << '\n';
    writeReport(os, title_b, b);
    os << '\n';
    os << title_b << " vs " << title_a << ":\n";
    line(os, "speedup", double(a.timePs) / double(b.timePs), "x", 2);
    line(os, "energy ratio",
         b.energy.totalPj() / a.energy.totalPj(), "", 2);
    line(os, "power ratio", b.averageWatts / a.averageWatts, "", 2);
}

// X-macro field lists keep toJson and fromJson in lock-step: every
// serialized struct member is named exactly once.
// (FW_CORE_STATS_FIELDS lives in core/core_base.hh, shared with the
// warm-up window-delta operators.)

#define FW_ENERGY_BREAKDOWN_FIELDS(X) \
    X(frontEndPj) X(issuePj) X(execPj) X(memoryPj) X(ecPj) \
    X(clockPj) X(leakagePj)

#define FW_ENERGY_EVENTS_FIELDS(X) \
    X(icacheAccesses) X(bpredLookups) X(btbLookups) X(decodedOps) \
    X(renameOps) X(dispatchOps) X(iwBroadcasts) X(iwIssues) \
    X(ratAccesses) X(rfReads) X(rfWrites) X(aluOps) X(mulOps) \
    X(fpOps) X(resultBusOps) X(dcacheAccesses) X(l2Accesses) \
    X(memAccesses) X(lsqOps) X(robOps) X(ecTaLookups) X(ecDaReads) \
    X(ecDaWrites) X(fillBufferOps) X(updateOps) X(checkpointOps) \
    X(totalTicks) X(feActiveTicks) X(feCycles) X(beCycles) \
    X(iwActiveCycles)

Json
toJson(const EnergyBreakdown &e)
{
    Json j = Json::object();
#define X(f) j.set(#f, e.f);
    FW_ENERGY_BREAKDOWN_FIELDS(X)
#undef X
    return j;
}

Json
toJson(const CoreStats &s)
{
    Json j = Json::object();
#define X(f) j.set(#f, s.f);
    FW_CORE_STATS_FIELDS(X)
#undef X
    return j;
}

Json
toJson(const EnergyEvents &e)
{
    Json j = Json::object();
#define X(f) j.set(#f, std::uint64_t(e.f));
    FW_ENERGY_EVENTS_FIELDS(X)
#undef X
    return j;
}

Json
toJson(const RunResult &r)
{
    Json j = Json::object();
    j.set("instructions", r.instructions);
    j.set("timePs", std::uint64_t(r.timePs));
    j.set("ipc", r.ipc);
    j.set("ecResidency", r.ecResidency);
    j.set("mispredictRate", r.mispredictRate);
    j.set("averageWatts", r.averageWatts);
    j.set("stats", toJson(r.stats));
    j.set("events", toJson(r.events));
    j.set("energy", toJson(r.energy));
    return j;
}

} // namespace flywheel
