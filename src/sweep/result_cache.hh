/**
 * @file
 * Content-addressed cache of completed simulations.  A RunConfig is
 * reduced to a canonical key string naming every field that can
 * influence what the simulator measures (workload profile knobs, core
 * parameters, clocks, run lengths); the cache maps that key
 * to the finished RunResult.  The key is taken over simulationConfig(),
 * so it leaves out the energy model's tech node and gating flag and
 * the clock plan the baseline core never reads: a hit re-reduces the
 * cached window deltas for the requesting config (reduceToResult), and
 * one simulation serves every such variant.  Repeating a sweep — or
 * enlarging one axis of it — then re-simulates only the new runs.
 *
 * The cache is thread-safe and optionally persistent: given a file
 * path it loads existing entries on open and save() writes the merged
 * set back as a single JSON document.
 */

#ifndef FLYWHEEL_SWEEP_RESULT_CACHE_HH
#define FLYWHEEL_SWEEP_RESULT_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/sim_driver.hh"

namespace flywheel {

/**
 * Canonical identity of the grid point @p config: a "field=value;"
 * list covering every field that can change its RunResult.  Two
 * configs produce the same key iff runSim() is guaranteed to produce
 * the same result for both.  Exported rows hash it as configHash.
 */
std::string configKey(const RunConfig &config);

/**
 * Result-cache key: configKey(simulationConfig(@p config)).  Two
 * configs share it iff they measure the same window deltas; their
 * RunResults may still differ in the energy model's outputs.
 */
std::string simulationKey(const RunConfig &config);

/** FNV-1a 64-bit hash, used for compact key digests in logs/exports. */
std::uint64_t fnv1a64(const std::string &s);

class ResultCache
{
  public:
    /**
     * @param path  optional persistence file; loaded immediately when
     *              it exists (a missing file is an empty cache, a
     *              malformed or version-mismatched file is discarded
     *              with a warning).
     */
    explicit ResultCache(std::string path = "");

    /** True and *out filled if @p key is cached. */
    bool lookup(const std::string &key, RunResult *out) const;

    /** Insert or overwrite the entry for @p key. */
    void store(const std::string &key, const RunResult &result);

    /**
     * Write all entries to the persistence path (no-op without one).
     * Returns false if the file cannot be written.
     */
    bool save() const;

    std::size_t size() const;
    /** Times the on-disk load retried after a parse failure. */
    std::uint64_t loadRetries() const { return loadRetries_; }
    const std::string &path() const { return path_; }

    /** On-disk format version (bump when serialization changes).
     *  v2: keys gained the snapshot-sampling fields.
     *  v3: keys are simulationKey()s; an entry's energy is re-reduced
     *  on every hit.
     *  v4: keys lost the snapshot-sampling fields. */
    static constexpr int kFormatVersion = 4;

  private:
    enum class LoadStatus { Ok, Missing, ParseError, BadVersion,
                            BadShape };

    void load();
    LoadStatus tryLoad(std::string *error);

    std::string path_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, RunResult> entries_;
    std::uint64_t loadRetries_ = 0;
};

} // namespace flywheel

#endif // FLYWHEEL_SWEEP_RESULT_CACHE_HH
