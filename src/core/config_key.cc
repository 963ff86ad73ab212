#include "core/config_key.hh"

#include <cstdio>
#include <sstream>

namespace flywheel {

namespace {

/** Append "name=value;" with deterministic double formatting. */
class KeyBuilder
{
  public:
    KeyBuilder &
    add(const char *name, double v)
    {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, v);
        os_ << buf;
        return *this;
    }

    KeyBuilder &
    add(const char *name, std::uint64_t v)
    {
        os_ << name << '=' << v << ';';
        return *this;
    }

    KeyBuilder &
    add(const char *name, unsigned v)
    {
        return add(name, std::uint64_t(v));
    }

    KeyBuilder &
    add(const char *name, bool v)
    {
        os_ << name << '=' << (v ? 1 : 0) << ';';
        return *this;
    }

    KeyBuilder &
    add(const char *name, const char *v)
    {
        os_ << name << '=' << v << ';';
        return *this;
    }

    std::string str() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

/**
 * Version of the configKey() field list.  It is part of every point's
 * configHash and checkpoint key, so it changes only when the list
 * does.
 */
constexpr unsigned kConfigKeyVersion = 3;

} // namespace

std::string
configKey(const RunConfig &c)
{
    KeyBuilder k;
    k.add("v", kConfigKeyVersion);

    // Workload profile: every knob, not just the name, so ad-hoc
    // profiles and future recalibrations never alias.
    const BenchProfile &p = c.profile;
    k.add("bench", p.name)
        .add("seed", p.seed)
        .add("blocks", p.staticBlocks)
        .add("blkSize", p.avgBlockSize)
        .add("regions", p.regions)
        .add("loadFrac", p.loadFrac)
        .add("storeFrac", p.storeFrac)
        .add("fpFrac", p.fpFrac)
        .add("mulFrac", p.mulFrac)
        .add("divFrac", p.divFrac)
        .add("depDist", p.avgDepDist)
        .add("diamond", p.diamondFrac)
        .add("bias", p.branchBias)
        .add("trip", p.loopTripMean)
        .add("callProb", p.callProb)
        .add("regWs", p.regWorkingSet)
        .add("dataKB", p.dataFootprintKB)
        .add("memRand", p.memRandomFrac);

    k.add("kind", unsigned(c.kind))
        .add("node", unsigned(c.node))
        .add("gating", c.frontEndPowerGating)
        .add("warmup", c.warmupInstrs)
        .add("measure", c.measureInstrs);

    const CoreParams &cp = c.params;
    k.add("fetchW", cp.fetchWidth)
        .add("dispW", cp.dispatchWidth)
        .add("issueW", cp.issueWidth)
        .add("commitW", cp.commitWidth)
        .add("iw", cp.iwEntries)
        .add("rob", cp.robEntries)
        .add("lsq", cp.lsqEntries)
        .add("physRegs", cp.physRegs)
        .add("feStages", cp.feStages)
        .add("extraFe", cp.extraFrontEndStages)
        .add("regRead", cp.regReadStages)
        .add("wakeup", cp.wakeupExtraDelay)
        .add("intAlu", cp.fus.intAlu)
        .add("intMulDiv", cp.fus.intMulDiv)
        .add("memPorts", cp.fus.memPorts)
        .add("fpAdd", cp.fus.fpAdd)
        .add("fpMulDiv", cp.fus.fpMulDiv)
        .add("latAlu", cp.lat.intAlu)
        .add("latMul", cp.lat.intMul)
        .add("latDiv", cp.lat.intDiv)
        .add("latFpAdd", cp.lat.fpAdd)
        .add("latFpMul", cp.lat.fpMul)
        .add("latFpDiv", cp.lat.fpDiv)
        .add("latBr", cp.lat.branch)
        .add("latAgen", cp.lat.agen)
        .add("l2Cyc", cp.mem.l2Cycles)
        .add("memCyc", cp.mem.memBaselineCycles)
        .add("ghist", cp.bpred.historyBits)
        .add("gtab", cp.bpred.tableEntries)
        .add("btb", cp.btb.entries)
        .add("btbAssoc", cp.btb.assoc)
        .add("basePs", cp.basePeriodPs)
        .add("fePs", cp.fePeriodPs)
        .add("bePs", cp.beFastPeriodPs)
        .add("ec", cp.execCacheEnabled)
        .add("srt", cp.srtEnabled)
        .add("ecBlocks", cp.ecTotalBlocks)
        .add("ecSlots", cp.ecBlockSlots)
        .add("ecTa", cp.ecTaEntries)
        .add("ecRead", cp.ecReadCycles)
        .add("maxTrace", cp.maxTraceBlocks)
        .add("minUnits", cp.minTraceUnits)
        .add("minInstrs", cp.minTraceInstrs)
        .add("rebuild", cp.traceRebuildPolicy)
        .add("pool", cp.poolPhysRegs)
        .add("minPool", cp.minPoolSize)
        .add("redistInt", cp.redistributionInterval)
        .add("redistCost", cp.redistributionCost)
        .add("redistFrac", cp.redistributionStallFrac);

    // L1/L2 cache geometry and timing.
    auto cache = [&k](const char *tag, const CacheParams &cc) {
        std::string t(tag);
        k.add((t + "Size").c_str(), cc.sizeBytes)
            .add((t + "Assoc").c_str(), cc.assoc)
            .add((t + "Line").c_str(), cc.lineBytes)
            .add((t + "Hit").c_str(), cc.hitCycles)
            .add((t + "Ports").c_str(), cc.ports);
    };
    cache("ic", cp.mem.icache);
    cache("dc", cp.mem.dcache);
    cache("l2", cp.mem.l2);

    return k.str();
}

std::string
simulationKey(const RunConfig &config)
{
    return configKey(simulationConfig(config));
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace flywheel
