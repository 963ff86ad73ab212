#include "sweep/result_cache.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/atomic_file.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "core/report.hh"

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
 * does; ResultCache::kFormatVersion versions the cache file on its
 * own.
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

ResultCache::ResultCache(std::string path) : path_(std::move(path))
{
    if (!path_.empty())
        load();
}

bool
ResultCache::lookup(const std::string &key, RunResult *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    if (out)
        *out = it->second;
    return true;
}

void
ResultCache::store(const std::string &key, const RunResult &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[key] = result;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

ResultCache::LoadStatus
ResultCache::tryLoad(std::string *error)
{
    std::ifstream in(path_);
    if (!in)
        return LoadStatus::Missing; // first use: no file yet
    std::ostringstream text;
    text << in.rdbuf();

    Json doc;
    if (!Json::parse(text.str(), doc, error))
        return LoadStatus::ParseError;
    if (!doc.isObject()) {
        // Parsed fine but is not a cache document — deterministic,
        // unlike a torn read, so it must not trigger the retry.
        FW_WARN("result cache %s is not a JSON object; starting "
                "empty",
                path_.c_str());
        return LoadStatus::BadShape;
    }
    if (doc["version"].asU64() != std::uint64_t(kFormatVersion)) {
        FW_WARN("result cache %s has format version %llu (want %d); "
                "starting empty",
                path_.c_str(),
                (unsigned long long)doc["version"].asU64(),
                kFormatVersion);
        return LoadStatus::BadVersion;
    }
    if (!doc["entries"].isObject()) {
        FW_WARN("result cache %s has no usable entries section; "
                "starting empty",
                path_.c_str());
        return LoadStatus::BadShape;
    }
    std::size_t incomplete = 0;
    for (const auto &m : doc["entries"].members()) {
        // An entry missing any field (written by an older build with
        // the same format version) must miss, not zero-fill.
        if (!runResultJsonComplete(m.second)) {
            ++incomplete;
            continue;
        }
        entries_[m.first] = runResultFromJson(m.second);
    }
    if (incomplete)
        FW_WARN("result cache %s: dropped %zu incomplete entries",
                path_.c_str(), incomplete);
    FW_INFORM("result cache %s: loaded %zu entries", path_.c_str(),
              entries_.size());
    return LoadStatus::Ok;
}

void
ResultCache::load()
{
    std::string error;
    LoadStatus status = tryLoad(&error);
    if (status == LoadStatus::ParseError) {
        // On filesystems where the writer's rename(2) is not
        // atomically visible to concurrent readers (NFS and friends),
        // a load can glimpse a torn document even though every writer
        // publishes via temp + rename.  The race window is one
        // rename, so a single immediate retry reads the settled file;
        // only a parse failure earns it — a version or shape mismatch
        // is deterministic and would just fail identically again.
        ++loadRetries_;
        std::string retry_error;
        status = tryLoad(&retry_error);
        if (status == LoadStatus::ParseError)
            FW_WARN("result cache %s unreadable after retry (%s); "
                    "starting empty",
                    path_.c_str(), retry_error.c_str());
        else if (status == LoadStatus::Ok)
            FW_WARN("result cache %s read torn (%s) but settled on "
                    "retry",
                    path_.c_str(), error.c_str());
    }
}

bool
ResultCache::save() const
{
    if (path_.empty())
        return true;
    std::lock_guard<std::mutex> lock(mutex_);
    Json doc = Json::object();
    doc.set("version", unsigned(kFormatVersion));
    // Emit in sorted key order: the file must be byte-stable no
    // matter which worker finished first.
    std::vector<const std::string *> keys;
    keys.reserve(entries_.size());
    for (const auto &e : entries_)  // lint: detorder(sorted below)
        keys.push_back(&e.first);
    std::sort(keys.begin(), keys.end(),
              [](const std::string *a, const std::string *b) {
                  return *a < *b;
              });
    Json ents = Json::object();
    for (const std::string *key : keys)
        ents.add(*key, toJson(entries_.at(*key)));
    doc.set("entries", std::move(ents));

    // Unique-temp + rename: concurrent sweep processes sharing the
    // cache file may save at the same moment; each publishes a
    // complete document and the last rename wins.
    std::ostringstream text;
    doc.write(text, 2);
    text << '\n';
    std::string error;
    if (!atomicWriteFile(path_, text.str(), &error)) {
        FW_WARN("result cache save failed: %s", error.c_str());
        return false;
    }
    return true;
}

} // namespace flywheel
