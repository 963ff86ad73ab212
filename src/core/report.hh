/**
 * @file
 * Human-readable run reports: format a RunResult as the kind of
 * summary a simulator user expects — performance, behaviour, an
 * energy breakdown and a cycle-accounting sketch.
 */

#ifndef FLYWHEEL_CORE_REPORT_HH
#define FLYWHEEL_CORE_REPORT_HH

#include <ostream>
#include <string>

#include "common/json.hh"
#include "core/sim_driver.hh"

namespace flywheel {

/** Write a full report of @p result titled @p title to @p os. */
void writeReport(std::ostream &os, const std::string &title,
                 const RunResult &result);

/**
 * Write a side-by-side comparison of two runs (e.g. baseline vs
 * Flywheel) with relative performance, energy and power.
 */
void writeComparison(std::ostream &os, const std::string &title_a,
                     const RunResult &a, const std::string &title_b,
                     const RunResult &b);

// ---- structured serialization (sweep export) ----
//
// Field names are part of the exported sweep format
// (SweepTable::writeJson): renaming one changes every exported
// document.

Json toJson(const EnergyBreakdown &e);
Json toJson(const CoreStats &s);
Json toJson(const EnergyEvents &e);
Json toJson(const RunResult &r);

} // namespace flywheel

#endif // FLYWHEEL_CORE_REPORT_HH
