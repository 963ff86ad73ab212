/**
 * @file
 * Canonical identity of a run.  A RunConfig is reduced to a key
 * string naming every field that can influence what the simulator
 * measures (workload profile knobs, core parameters, clocks, run
 * lengths).  Exported rows hash configKey() as configHash, checkpoint
 * keys embed it, and the sweep engine memoizes simulations by
 * simulationKey(), which is taken over simulationConfig() and so
 * leaves out the energy model's tech node and gating flag and the
 * clock plan the baseline core never reads.
 */

#ifndef FLYWHEEL_CORE_CONFIG_KEY_HH
#define FLYWHEEL_CORE_CONFIG_KEY_HH

#include <cstdint>
#include <string>

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
 * Simulation identity: configKey(simulationConfig(@p config)).  Two
 * configs share it iff they measure the same window deltas; their
 * RunResults may still differ in the energy model's outputs.
 */
std::string simulationKey(const RunConfig &config);

/** FNV-1a 64-bit hash, used for compact key digests in logs/exports. */
std::uint64_t fnv1a64(const std::string &s);

} // namespace flywheel

#endif // FLYWHEEL_CORE_CONFIG_KEY_HH
