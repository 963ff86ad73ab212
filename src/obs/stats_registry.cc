/**
 * @file
 * Stats registry implementation: registration bookkeeping and the
 * flywheel.stats.v1 serializer/validator.
 */

#include "obs/stats_registry.hh"

#include "common/log.hh"

namespace flywheel::obs {

// ---- StatsGroup ----------------------------------------------------

void
StatsGroup::addStat(Stat stat)
{
    if (stat.name.empty())
        FW_PANIC("stats group '%s': empty stat name", name_.c_str());
    for (const Stat &s : stats_)
        if (s.name == stat.name)
            FW_PANIC("stats group '%s': duplicate stat '%s'",
                     name_.c_str(), stat.name.c_str());
    stats_.push_back(std::move(stat));
}

void
StatsGroup::counter(const std::string &name, const std::uint64_t *v,
                    const std::string &desc)
{
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = Stat::Kind::CounterU64;
    s.ptr = v;
    addStat(std::move(s));
}

void
StatsGroup::counter(const std::string &name, const Counter &c,
                    const std::string &desc)
{
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = Stat::Kind::CounterWrapped;
    s.ptr = &c;
    addStat(std::move(s));
}

void
StatsGroup::gauge(const std::string &name, const double *v,
                  const std::string &desc)
{
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = Stat::Kind::Gauge;
    s.ptr = v;
    addStat(std::move(s));
}

void
StatsGroup::histogram(const std::string &name, const Distribution *d,
                      const std::string &desc)
{
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = Stat::Kind::Hist;
    s.ptr = d;
    addStat(std::move(s));
}

void
StatsGroup::formula(const std::string &name, std::function<double()> fn,
                    const std::string &desc)
{
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = Stat::Kind::Formula;
    s.fn = std::move(fn);
    addStat(std::move(s));
}

Json
StatsGroup::toJson() const
{
    Json arr = Json::array();
    for (const Stat &s : stats_) {
        Json entry = Json::object();
        entry.set("name", Json(s.name));
        switch (s.kind) {
          case Stat::Kind::CounterU64:
            entry.set("type", Json("counter"));
            entry.set("value",
                      Json(*static_cast<const std::uint64_t *>(s.ptr)));
            break;
          case Stat::Kind::CounterWrapped:
            entry.set("type", Json("counter"));
            entry.set("value",
                      Json(static_cast<const Counter *>(s.ptr)
                               ->value()));
            break;
          case Stat::Kind::Gauge:
            entry.set("type", Json("gauge"));
            entry.set("value",
                      Json(*static_cast<const double *>(s.ptr)));
            break;
          case Stat::Kind::Hist: {
            const auto *d = static_cast<const Distribution *>(s.ptr);
            entry.set("type", Json("histogram"));
            Json bins = Json::array();
            for (std::uint64_t b : d->bins())
                bins.push(Json(b));
            entry.set("bins", std::move(bins));
            entry.set("overflow", Json(d->overflow()));
            entry.set("mean", Json(d->mean()));
            entry.set("max", Json(d->max()));
            break;
          }
          case Stat::Kind::Formula:
            entry.set("type", Json("formula"));
            entry.set("value", Json(s.fn ? s.fn() : 0.0));
            break;
        }
        if (!s.desc.empty())
            entry.set("desc", Json(s.desc));
        arr.push(std::move(entry));
    }
    return arr;
}

// ---- StatsRegistry -------------------------------------------------

StatsGroup &
StatsRegistry::group(const std::string &name)
{
    if (name.empty())
        FW_PANIC("stats registry: empty group name");
    for (const auto &g : groups_)
        if (g->name() == name)
            return *g;
    groups_.emplace_back(
        std::unique_ptr<StatsGroup>(new StatsGroup(name)));
    return *groups_.back();
}

Json
StatsRegistry::dumpGroups() const
{
    Json arr = Json::array();
    for (const auto &g : groups_) {
        Json entry = Json::object();
        entry.set("name", Json(g->name()));
        entry.set("stats", g->toJson());
        arr.push(std::move(entry));
    }
    return arr;
}

Json
StatsRegistry::dump() const
{
    Json doc = Json::object();
    doc.set("schema", Json(std::string(kStatsSchema)));
    doc.set("groups", dumpGroups());
    return doc;
}

// ---- validator -----------------------------------------------------

namespace {

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

bool
validateStatEntry(const Json &stat, const std::string &where,
                  std::string *error)
{
    if (!stat.isObject())
        return fail(error, where + ": stat is not an object");
    if (!stat["name"].isString())
        return fail(error, where + ": stat missing string 'name'");
    if (!stat["type"].isString())
        return fail(error, where + ": stat missing string 'type'");
    const std::string type = stat["type"].asString();
    const std::string id = where + "." + stat["name"].asString();
    if (type == "counter" || type == "gauge" || type == "formula") {
        if (!stat["value"].isNumber())
            return fail(error, id + ": missing numeric 'value'");
        return true;
    }
    if (type == "histogram") {
        if (!stat["bins"].isArray())
            return fail(error, id + ": histogram missing 'bins'");
        for (const Json &b : stat["bins"].items())
            if (!b.isNumber())
                return fail(error, id + ": non-numeric histogram bin");
        if (!stat["overflow"].isNumber())
            return fail(error, id + ": histogram missing 'overflow'");
        if (!stat["mean"].isNumber())
            return fail(error, id + ": histogram missing 'mean'");
        return true;
    }
    return fail(error, id + ": unknown stat type '" + type + "'");
}

bool
validateGroupsArray(const Json &groups, const std::string &where,
                    std::string *error)
{
    if (!groups.isArray())
        return fail(error, where + ": 'groups' is not an array");
    for (const Json &g : groups.items()) {
        if (!g.isObject())
            return fail(error, where + ": group is not an object");
        if (!g["name"].isString())
            return fail(error,
                        where + ": group missing string 'name'");
        const std::string gname = g["name"].asString();
        if (!g["stats"].isArray())
            return fail(error, gname + ": missing 'stats' array");
        for (const Json &stat : g["stats"].items())
            if (!validateStatEntry(stat, gname, error))
                return false;
    }
    return true;
}

} // namespace

bool
validateStatsJson(const Json &doc, std::string *error)
{
    if (!doc.isObject())
        return fail(error, "stats document is not an object");
    if (!doc["schema"].isString() ||
        doc["schema"].asString() != kStatsSchema)
        return fail(error, std::string("missing/unknown schema (want ") +
                               kStatsSchema + ")");
    // A bare registry dump has "groups"; a CLI-assembled session
    // document has "points", each carrying its own groups.
    bool any = false;
    if (doc.has("groups")) {
        if (!validateGroupsArray(doc["groups"], "root", error))
            return false;
        any = true;
    }
    if (doc.has("points")) {
        if (!doc["points"].isArray())
            return fail(error, "'points' is not an array");
        for (const Json &p : doc["points"].items()) {
            if (!p.isObject() || !p["point"].isObject())
                return fail(error, "point entry missing 'point' object");
            if (!p.has("groups"))
                return fail(error, "point entry missing 'groups'");
            if (!validateGroupsArray(p["groups"], "point", error))
                return false;
        }
        any = true;
    }
    if (!any)
        return fail(error, "document has neither 'groups' nor 'points'");
    if (doc.has("session") && !doc["session"].isObject())
        return fail(error, "'session' is not an object");
    return true;
}

} // namespace flywheel::obs
