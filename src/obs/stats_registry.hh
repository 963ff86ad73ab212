/**
 * @file
 * Hierarchical statistics registry (gem5-style) — the simulator's one
 * structured-stats surface.  Components register named counters,
 * gauges, histograms and formulas with a StatsGroup at construction;
 * the registry holds only *references* into the owning component, so
 * registration costs nothing on the simulation hot path and a dump
 * always reads the live values.
 *
 * dump() serializes the whole tree as a schema'd JSON document
 * (`flywheel.stats.v1`), which the CLIs export via `--stats` and the
 * CI observability job validates with validate().
 *
 * Lifetime contract: a registered pointer must outlive every dump()
 * of its registry.  In practice the registry is a member of the
 * component tree's root (CoreBase owns one; sub-components register
 * members of the same object), so lifetimes coincide.
 */

#ifndef FLYWHEEL_OBS_STATS_REGISTRY_HH
#define FLYWHEEL_OBS_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"

namespace flywheel::obs {

/** Schema tag every stats document carries. */
inline constexpr const char *kStatsSchema = "flywheel.stats.v1";

/**
 * One named group of statistics (a node such as "core.icache").
 * Groups are created through StatsRegistry::group(); stat names must
 * be unique within their group — a duplicate registration is a
 * simulator bug and panics.
 */
class StatsGroup
{
  public:
    /** Monotonic event count, read from a live uint64. */
    void counter(const std::string &name, const std::uint64_t *v,
                 const std::string &desc = "");
    /** Counter-class helper for the common Counter wrapper. */
    void counter(const std::string &name, const Counter &c,
                 const std::string &desc = "");
    /** Instantaneous value, read from a live double. */
    void gauge(const std::string &name, const double *v,
               const std::string &desc = "");
    /** Bucketed distribution, read from a live Distribution. */
    void histogram(const std::string &name, const Distribution *d,
                   const std::string &desc = "");
    /** Derived value, computed at dump time. */
    void formula(const std::string &name, std::function<double()> fn,
                 const std::string &desc = "");

    const std::string &name() const { return name_; }
    std::size_t size() const { return stats_.size(); }

    /** Serialize this group's stats array (live values). */
    Json toJson() const;

  private:
    friend class StatsRegistry;
    explicit StatsGroup(std::string name) : name_(std::move(name)) {}

    struct Stat
    {
        enum class Kind { CounterU64, CounterWrapped, Gauge, Hist,
                          Formula };
        std::string name;
        std::string desc;
        Kind kind;
        const void *ptr = nullptr;
        std::function<double()> fn;
    };

    void addStat(Stat stat);

    std::string name_;
    std::vector<Stat> stats_;
};

/**
 * The registry: an ordered set of uniquely named groups.  group()
 * returns an existing group or creates it, so several components can
 * contribute to one hierarchy level; serialization order is first-
 * registration order, which is construction order — deterministic.
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;

    // Groups hold back-references only; a moved registry would leave
    // callers' StatsGroup references dangling.
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    /** The group at dotted path @p name (created on first use). */
    StatsGroup &group(const std::string &name);

    const std::vector<std::unique_ptr<StatsGroup>> &groups() const
    {
        return groups_;
    }

    /**
     * Serialize every group as the groups array of a
     * flywheel.stats.v1 document: [{"name": .., "stats": [..]}, ..].
     */
    Json dumpGroups() const;

    /** Full schema'd document: {"schema": .., "groups": [..]}. */
    Json dump() const;

  private:
    std::vector<std::unique_ptr<StatsGroup>> groups_;
};

/**
 * Validate a flywheel.stats.v1 document (as produced by dump() or
 * assembled by the CLIs, which may add "session" and "points"
 * sections).  False (and @p error) on schema violations.
 */
bool validateStatsJson(const Json &doc, std::string *error = nullptr);

} // namespace flywheel::obs

#endif // FLYWHEEL_OBS_STATS_REGISTRY_HH
