#include "api/experiment.hh"

#include <fstream>
#include <sstream>

#include "workload/profiles.hh"

namespace flywheel {

namespace {

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/**
 * Reject members of @p j outside @p allowed — the backbone of strict
 * parsing (a misspelled axis must not silently become a default).
 */
bool
checkKnownKeys(const Json &j, const std::vector<const char *> &allowed,
               const std::string &where, std::string *error)
{
    for (const auto &m : j.members()) {
        bool known = false;
        for (const char *k : allowed)
            known = known || m.first == k;
        if (!known)
            return fail(error, where + ": unknown field '" + m.first +
                        "'");
    }
    return true;
}

bool
parseString(const Json &j, const char *key, const std::string &where,
            std::string *out, std::string *error)
{
    if (!j.has(key))
        return true;
    if (!j[key].isString())
        return fail(error, where + "." + key + ": expected a string");
    *out = j[key].asString();
    return true;
}

bool
parseCount(const Json &j, const char *key, const std::string &where,
           std::uint64_t *out, std::string *error)
{
    if (!j.has(key))
        return true;
    const Json &v = j[key];
    if (!v.isNumber() || v.asDouble() < 0.0 ||
        v.asDouble() != double(v.asU64()))
        return fail(error, where + "." + key +
                    ": expected a non-negative integer");
    *out = v.asU64();
    return true;
}

bool
parseOptUnsigned(const Json &j, const char *key, const std::string &where,
                 std::optional<unsigned> *out, std::string *error)
{
    if (!j.has(key))
        return true;
    std::uint64_t v = 0;
    if (!parseCount(j, key, where, &v, error))
        return false;
    if (v > 0xFFFFFFFFull)
        return fail(error, where + "." + key + ": value out of range");
    *out = unsigned(v);
    return true;
}

bool
knownBenchmark(const std::string &name)
{
    for (const auto &b : benchmarkNames())
        if (b == name)
            return true;
    return false;
}

} // namespace

// ------------------------------------------------------------ ParamTweaks

bool
ParamTweaks::empty() const
{
    return !extraFrontEndStages && !wakeupExtraDelay && !srtEnabled &&
           !ecBlockSlots && !ecTotalBlocks && !poolPhysRegs &&
           !minPoolSize;
}

void
ParamTweaks::apply(CoreParams &params) const
{
    if (extraFrontEndStages)
        params.extraFrontEndStages = *extraFrontEndStages;
    if (wakeupExtraDelay)
        params.wakeupExtraDelay = *wakeupExtraDelay;
    if (srtEnabled)
        params.srtEnabled = *srtEnabled;
    if (ecBlockSlots)
        params.ecBlockSlots = *ecBlockSlots;
    if (ecTotalBlocks)
        params.ecTotalBlocks = *ecTotalBlocks;
    if (poolPhysRegs)
        params.poolPhysRegs = *poolPhysRegs;
    if (minPoolSize)
        params.minPoolSize = *minPoolSize;
}

Json
ParamTweaks::toJson() const
{
    Json j = Json::object();
    if (extraFrontEndStages)
        j.set("extraFrontEndStages", *extraFrontEndStages);
    if (wakeupExtraDelay)
        j.set("wakeupExtraDelay", *wakeupExtraDelay);
    if (srtEnabled)
        j.set("srtEnabled", *srtEnabled);
    if (ecBlockSlots)
        j.set("ecBlockSlots", *ecBlockSlots);
    if (ecTotalBlocks)
        j.set("ecTotalBlocks", *ecTotalBlocks);
    if (poolPhysRegs)
        j.set("poolPhysRegs", *poolPhysRegs);
    if (minPoolSize)
        j.set("minPoolSize", *minPoolSize);
    return j;
}

bool
ParamTweaks::fromJson(const Json &j, ParamTweaks *out, std::string *error)
{
    *out = ParamTweaks();
    if (j.isNull())
        return true;
    if (!j.isObject())
        return fail(error, "tweaks: expected an object");
    if (!checkKnownKeys(j,
                        {"extraFrontEndStages", "wakeupExtraDelay",
                         "srtEnabled", "ecBlockSlots", "ecTotalBlocks",
                         "poolPhysRegs", "minPoolSize"},
                        "tweaks", error))
        return false;
    if (!parseOptUnsigned(j, "extraFrontEndStages", "tweaks",
                          &out->extraFrontEndStages, error) ||
        !parseOptUnsigned(j, "wakeupExtraDelay", "tweaks",
                          &out->wakeupExtraDelay, error) ||
        !parseOptUnsigned(j, "ecBlockSlots", "tweaks",
                          &out->ecBlockSlots, error) ||
        !parseOptUnsigned(j, "ecTotalBlocks", "tweaks",
                          &out->ecTotalBlocks, error) ||
        !parseOptUnsigned(j, "poolPhysRegs", "tweaks",
                          &out->poolPhysRegs, error) ||
        !parseOptUnsigned(j, "minPoolSize", "tweaks", &out->minPoolSize,
                          error))
        return false;
    if (j.has("srtEnabled")) {
        if (j["srtEnabled"].kind() != Json::Kind::Bool)
            return fail(error, "tweaks.srtEnabled: expected a bool");
        out->srtEnabled = j["srtEnabled"].asBool();
    }
    return true;
}

// --------------------------------------------------------------- GridSpec

std::vector<SweepPoint>
GridSpec::expand(std::uint64_t warmup_instrs,
                 std::uint64_t measure_instrs) const
{
    const std::vector<std::string> &benches =
        benchmarks.empty() ? benchmarkNames() : benchmarks;

    std::vector<SweepPoint> points;
    points.reserve(benches.size() * kinds.size() * clocks.size() *
                   nodes.size() * gating.size());
    for (const auto &bench : benches)
        for (CoreKind kind : kinds)
            for (const ClockPoint &clock : clocks)
                for (TechNode node : nodes)
                    for (bool gate : gating) {
                        SweepPoint pt =
                            makePoint(bench, kind, clock, node, gate);
                        pt.label = label;
                        tweaks.apply(pt.config.params);
                        pt.config.warmupInstrs = warmup_instrs;
                        pt.config.measureInstrs = measure_instrs;
                        points.push_back(std::move(pt));
                    }
    return points;
}

Json
GridSpec::toJson() const
{
    Json j = Json::object();
    j.set("label", label);
    Json benches = Json::array();
    for (const auto &b : benchmarks)
        benches.push(b);
    j.set("benchmarks", std::move(benches));
    Json ks = Json::array();
    for (CoreKind k : kinds)
        ks.push(coreKindName(k));
    j.set("kinds", std::move(ks));
    Json cs = Json::array();
    for (const ClockPoint &c : clocks) {
        Json point = Json::object();
        point.set("fe", c.feBoost);
        point.set("be", c.beBoost);
        cs.push(std::move(point));
    }
    j.set("clocks", std::move(cs));
    Json ns = Json::array();
    for (TechNode n : nodes)
        ns.push(techName(n));
    j.set("nodes", std::move(ns));
    Json gs = Json::array();
    for (bool g : gating)
        gs.push(g);
    j.set("gating", std::move(gs));
    j.set("tweaks", tweaks.toJson());
    return j;
}

bool
GridSpec::fromJson(const Json &j, GridSpec *out, std::string *error)
{
    *out = GridSpec();
    if (!j.isObject())
        return fail(error, "grid: expected an object");
    if (!checkKnownKeys(j,
                        {"label", "benchmarks", "kinds", "clocks",
                         "nodes", "gating", "tweaks"},
                        "grid", error))
        return false;
    if (!parseString(j, "label", "grid", &out->label, error))
        return false;

    if (j.has("benchmarks")) {
        if (!j["benchmarks"].isArray())
            return fail(error, "grid.benchmarks: expected an array");
        out->benchmarks.clear();
        for (const Json &b : j["benchmarks"].items()) {
            if (!b.isString())
                return fail(error,
                            "grid.benchmarks: expected string names");
            if (!knownBenchmark(b.asString()))
                return fail(error, "grid.benchmarks: unknown benchmark '" +
                            b.asString() + "'");
            out->benchmarks.push_back(b.asString());
        }
    }
    if (j.has("kinds")) {
        if (!j["kinds"].isArray() || j["kinds"].size() == 0)
            return fail(error,
                        "grid.kinds: expected a non-empty array");
        out->kinds.clear();
        for (const Json &k : j["kinds"].items()) {
            CoreKind kind;
            if (!k.isString() || !coreKindByName(k.asString(), &kind))
                return fail(error, "grid.kinds: unknown core kind " +
                            k.dump(0));
            out->kinds.push_back(kind);
        }
    }
    if (j.has("clocks")) {
        if (!j["clocks"].isArray() || j["clocks"].size() == 0)
            return fail(error,
                        "grid.clocks: expected a non-empty array");
        out->clocks.clear();
        for (const Json &c : j["clocks"].items()) {
            if (!c.isObject())
                return fail(error, "grid.clocks: expected {fe, be} "
                                   "objects");
            if (!checkKnownKeys(c, {"fe", "be"}, "grid.clocks", error))
                return false;
            ClockPoint point;
            for (const auto &[key, dst] :
                 {std::pair<const char *, double *>{"fe", &point.feBoost},
                  {"be", &point.beBoost}}) {
                if (!c.has(key))
                    continue;
                if (!c[key].isNumber())
                    return fail(error, std::string("grid.clocks.") + key +
                                ": expected a number");
                *dst = c[key].asDouble();
                if (!isValidClockBoost(*dst))
                    return fail(error, std::string("grid.clocks.") + key +
                                ": boost " + c[key].dump(0) +
                                " gives no clock period (need -1 < "
                                "boost <= 1999)");
            }
            out->clocks.push_back(point);
        }
    }
    if (j.has("nodes")) {
        if (!j["nodes"].isArray() || j["nodes"].size() == 0)
            return fail(error, "grid.nodes: expected a non-empty array");
        out->nodes.clear();
        for (const Json &n : j["nodes"].items()) {
            TechNode node;
            if (!n.isString() || !techNodeByName(n.asString(), &node))
                return fail(error, "grid.nodes: unknown tech node " +
                            n.dump(0) + " (use e.g. \"0.13um\")");
            out->nodes.push_back(node);
        }
    }
    if (j.has("gating")) {
        if (!j["gating"].isArray() || j["gating"].size() == 0)
            return fail(error,
                        "grid.gating: expected a non-empty array");
        out->gating.clear();
        for (const Json &g : j["gating"].items()) {
            if (g.kind() != Json::Kind::Bool)
                return fail(error, "grid.gating: expected bools");
            out->gating.push_back(g.asBool());
        }
    }
    if (j.has("tweaks") &&
        !ParamTweaks::fromJson(j["tweaks"], &out->tweaks, error))
        return false;
    return true;
}

// --------------------------------------------------------- ExperimentSpec

std::vector<SweepPoint>
ExperimentSpec::expand() const
{
    const std::uint64_t warmup =
        warmupInstrs ? warmupInstrs : defaultWarmupInstrs();
    const std::uint64_t measure =
        measureInstrs ? measureInstrs : defaultMeasureInstrs();

    std::vector<SweepPoint> points;
    for (const GridSpec &grid : grids) {
        std::vector<SweepPoint> block = grid.expand(warmup, measure);
        points.insert(points.end(),
                      std::make_move_iterator(block.begin()),
                      std::make_move_iterator(block.end()));
    }
    if (sampleWindows > 0) {
        for (SweepPoint &pt : points) {
            pt.config.snapshot.mode = SnapshotPolicy::Mode::Sample;
            pt.config.snapshot.sampleWindows = sampleWindows;
            pt.config.snapshot.sampleFastForward = sampleFastForward;
            pt.config.snapshot.sampleWarmup = sampleWarmup;
        }
    }
    return points;
}

Json
ExperimentSpec::toJson() const
{
    Json j = Json::object();
    j.set("schema", kSchema);
    j.set("name", name);
    j.set("title", title);
    j.set("render", render);
    j.set("warmupInstrs", warmupInstrs);
    j.set("measureInstrs", measureInstrs);
    j.set("repeat", repeat);
    j.set("verify", verify);
    Json sampling = Json::object();
    sampling.set("windows", sampleWindows);
    sampling.set("fastForward", sampleFastForward);
    sampling.set("warmup", sampleWarmup);
    j.set("sampling", std::move(sampling));
    Json gs = Json::array();
    for (const GridSpec &g : grids)
        gs.push(g.toJson());
    j.set("grids", std::move(gs));
    return j;
}

bool
ExperimentSpec::fromJson(const Json &j, ExperimentSpec *out,
                         std::string *error)
{
    *out = ExperimentSpec();
    if (!j.isObject())
        return fail(error, "spec: expected an object");
    if (!checkKnownKeys(j,
                        {"schema", "name", "title", "render",
                         "warmupInstrs", "measureInstrs", "repeat",
                         "verify", "sampling", "grids"},
                        "spec", error))
        return false;
    if (!j.has("schema") || !j["schema"].isString() ||
        j["schema"].asString() != kSchema)
        return fail(error, std::string("spec.schema: expected \"") +
                    kSchema + "\"");
    if (!parseString(j, "name", "spec", &out->name, error) ||
        !parseString(j, "title", "spec", &out->title, error) ||
        !parseString(j, "render", "spec", &out->render, error) ||
        !parseCount(j, "warmupInstrs", "spec", &out->warmupInstrs,
                    error) ||
        !parseCount(j, "measureInstrs", "spec", &out->measureInstrs,
                    error))
        return false;
    if (j.has("repeat")) {
        std::uint64_t repeat = 0;
        if (!parseCount(j, "repeat", "spec", &repeat, error))
            return false;
        if (repeat < 1 || repeat > 1000)
            return fail(error, "spec.repeat: expected 1..1000");
        out->repeat = unsigned(repeat);
    }
    if (j.has("verify")) {
        if (j["verify"].kind() != Json::Kind::Bool)
            return fail(error, "spec.verify: expected a bool");
        out->verify = j["verify"].asBool();
    }
    if (j.has("sampling")) {
        const Json &s = j["sampling"];
        if (!s.isObject())
            return fail(error, "spec.sampling: expected an object");
        if (!checkKnownKeys(s, {"windows", "fastForward", "warmup"},
                            "spec.sampling", error))
            return false;
        std::uint64_t windows = 0;
        if (!parseCount(s, "windows", "spec.sampling", &windows,
                        error) ||
            !parseCount(s, "fastForward", "spec.sampling",
                        &out->sampleFastForward, error) ||
            !parseCount(s, "warmup", "spec.sampling",
                        &out->sampleWarmup, error))
            return false;
        if (windows == 1 || windows > 10000)
            return fail(error,
                        "spec.sampling.windows: expected 0 or 2..10000");
        if (windows == 0 &&
            (out->sampleFastForward || out->sampleWarmup))
            return fail(error,
                        "spec.sampling: fastForward/warmup require "
                        "windows >= 2 (they are inert without "
                        "sampling)");
        out->sampleWindows = unsigned(windows);
    }
    if (j.has("grids")) {
        if (!j["grids"].isArray())
            return fail(error, "spec.grids: expected an array");
        for (std::size_t i = 0; i < j["grids"].size(); ++i) {
            GridSpec grid;
            std::string grid_error;
            if (!GridSpec::fromJson(j["grids"].at(i), &grid,
                                    &grid_error)) {
                // Grid errors come prefixed "grid..."; splice the
                // element index in place of that generic prefix.
                const std::string where =
                    "spec.grids[" + std::to_string(i) + "]";
                if (grid_error.rfind("grid", 0) == 0)
                    return fail(error, where + grid_error.substr(4));
                return fail(error, where + "." + grid_error);
            }
            out->grids.push_back(std::move(grid));
        }
    }
    return true;
}

bool
ExperimentSpec::load(const std::string &path, ExperimentSpec *out,
                     std::string *error)
{
    std::ifstream in(path);
    if (!in)
        return fail(error, path + ": cannot read");
    std::ostringstream text;
    text << in.rdbuf();
    Json doc;
    std::string parse_error;
    if (!Json::parse(text.str(), doc, &parse_error))
        return fail(error, path + ": " + parse_error);
    std::string spec_error;
    if (!fromJson(doc, out, &spec_error))
        return fail(error, path + ": " + spec_error);
    return true;
}

} // namespace flywheel
