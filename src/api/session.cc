#include "api/session.hh"

#include <cstdio>
#include <set>

#include "common/log.hh"
#include "core/report.hh"

namespace flywheel {

bool
VerifyReport::ok() const
{
    return failureCount() == 0;
}

std::size_t
VerifyReport::failureCount() const
{
    std::size_t failures = 0;
    for (const Entry &e : entries)
        failures += e.report.ok() ? 0 : 1;
    return failures;
}

std::string
VerifyReport::summary() const
{
    std::string out;
    for (const Entry &e : entries) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%-4s %-8s %-8s FE%.0f%%/BE%.0f%%%s%s: "
                      "%llu instructions cross-checked\n",
                      e.report.ok() ? "ok" : "FAIL",
                      e.point.bench.c_str(), coreKindName(e.point.kind),
                      e.point.clock.feBoost * 100.0,
                      e.point.clock.beBoost * 100.0,
                      e.point.label.empty() ? "" : " ",
                      e.point.label.c_str(),
                      (unsigned long long)e.report.instructionsChecked);
        out += line;
        if (!e.report.ok())
            out += e.report.summary() + "\n";
    }
    out += ok() ? "verification PASSED ("
                : "verification FAILED (";
    out += std::to_string(entries.size() - failureCount()) + "/" +
           std::to_string(entries.size()) + " points clean)";
    return out;
}

Session::Session(SessionOptions options)
    : runner_([&options] {
          SweepOptions sweep;
          sweep.jobs = options.jobs;
          sweep.checkpointDir = options.checkpointDir;
          sweep.checkpointCapBytes = options.checkpointCapBytes;
          sweep.progress = options.progress;
          sweep.obs = options.obs;
          return sweep;
      }())
{}

SweepTable
Session::run(const ExperimentSpec &spec)
{
    std::vector<SweepPoint> points = spec.expand();
    SweepTable table = runner_.run(points);

    for (unsigned rep = 1; rep < spec.repeat; ++rep) {
        // Repeats bypass the memo on purpose: their whole point is
        // to prove a fresh simulation reproduces the recorded result.
        runner_.pool().parallelFor(points.size(), [&](std::size_t i) {
            RunResult again = runSim(points[i].config);
            if (toJson(again).dump() !=
                toJson(table.at(i).result).dump())
                FW_FATAL("nondeterministic simulation: spec '%s' "
                         "point %s/%s repeat %u diverged",
                         spec.name.c_str(), points[i].bench.c_str(),
                         coreKindName(points[i].kind), rep);
        });
    }
    return table;
}

VerifyReport
Session::verify(const ExperimentSpec &spec)
{
    // Architectural behaviour is a property of the simulation, not of
    // the energy model: points with one simulationKey (e.g. fig15's
    // three nodes) verify once.
    std::vector<SweepPoint> candidates;
    std::set<std::string> seen;
    for (SweepPoint &pt : spec.expand()) {
        if (pt.kind == CoreKind::Baseline)
            continue;
        if (seen.insert(simulationKey(pt.config)).second)
            candidates.push_back(std::move(pt));
    }

    VerifyReport report;
    report.entries.resize(candidates.size());
    runner_.pool().parallelFor(candidates.size(), [&](std::size_t i) {
        const SweepPoint &pt = candidates[i];
        DiffOptions opts;
        opts.params = pt.config.params;
        opts.kind = pt.kind;
        opts.instructions = pt.config.measureInstrs;
        opts.reproHint = "spec '" + spec.name + "' bench " + pt.bench +
                         " kind " + coreKindName(pt.kind);
        report.entries[i].point = pt;
        report.entries[i].report =
            runDifferential(pt.config.profile, opts);
    });
    return report;
}

std::vector<GoldenDiff>
Session::checkGolden(const std::string &dir, const GoldenOptions &opts)
{
    return checkGoldenFiles(dir, opts);
}

bool
Session::refreshGolden(const std::string &dir, const GoldenOptions &opts)
{
    return writeGoldenFiles(dir, opts);
}

} // namespace flywheel
