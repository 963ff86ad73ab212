/**
 * @file
 * The paper's figure averages and the model's gap to them.  Each
 * target value is the one the matching bench/fig*.cc renderer prints
 * on its "paper:" line, and each model value averages the table the
 * same way that renderer's "average" row does.
 */

#include <algorithm>
#include <cmath>

#include "api/paper_grids.hh"
#include "api/table_index.hh"
#include "common/log.hh"
#include "perfbench.hh"
#include "workload/profiles.hh"

namespace perfbench {

using namespace flywheel;

const char *const kFigureSpecs[5] = {"fig11", "fig12", "fig13", "fig14",
                                     "fig15"};

bool
loadFigureSpecs(const std::string &root, std::vector<ExperimentSpec> *out,
                std::string *error)
{
    out->clear();
    for (const char *name : kFigureSpecs) {
        ExperimentSpec spec;
        if (!ExperimentSpec::load(root + "/specs/" + name + ".json", &spec,
                                  error))
            return false;
        out->push_back(std::move(spec));
    }
    return true;
}

namespace {

const SweepTable &
tableFor(const std::map<std::string, const SweepTable *> &tables,
         const std::string &name)
{
    auto it = tables.find(name);
    if (it == tables.end() || it->second == nullptr)
        FW_FATAL("paper targets need the %s table", name.c_str());
    return *it->second;
}

/** Mean over the ten paper benchmarks of @p f(bench). */
template <typename F>
double
benchAverage(F f)
{
    double sum = 0.0;
    const std::vector<std::string> names = benchmarkNames();
    for (const std::string &name : names)
        sum += f(name);
    return sum / double(names.size());
}

double
speedup(const RunResult &base, const RunResult &other)
{
    return double(base.timePs) / double(other.timePs);
}

} // namespace

std::vector<PaperTarget>
paperTargets(const std::map<std::string, const SweepTable *> &tables)
{
    std::vector<PaperTarget> out;
    const ClockPoint base_clock{0.0, 0.0};

    // Fig 11: "flywheel average ~1.05; residency 88% average".
    {
        TableIndex ix(tableFor(tables, "fig11"));
        out.push_back({"paper.fig11_flywheel", 1.05, benchAverage([&](
            const std::string &b) {
                return speedup(ix.get(b, CoreKind::Baseline, base_clock),
                               ix.get(b, CoreKind::Flywheel, base_clock));
            })});
        out.push_back({"paper.fig11_residency", 0.88, benchAverage([&](
            const std::string &b) {
                return ix.get(b, CoreKind::Flywheel, base_clock)
                    .ecResidency;
            })});
    }

    // Fig 12: "average 1.35 (FE0) .. ~1.6 (FE100); FE50/BE50 average
    // 1.54".
    {
        TableIndex ix(tableFor(tables, "fig12"));
        const std::pair<const char *, std::pair<double, double>> cols[] = {
            {"paper.fig12_fe0", {0.0, 1.35}},
            {"paper.fig12_fe50", {0.5, 1.54}},
            {"paper.fig12_fe100", {1.0, 1.6}},
        };
        for (const auto &col : cols) {
            const double fe = col.second.first;
            out.push_back({col.first, col.second.second, benchAverage([&](
                const std::string &b) {
                    return speedup(
                        ix.get(b, CoreKind::Baseline, base_clock),
                        ix.get(b, CoreKind::Flywheel, {fe, 0.5}));
                })});
        }
    }

    // Fig 13: "~0.70 average across the sweep" — every FE column.
    {
        TableIndex ix(tableFor(tables, "fig13"));
        double sum = 0.0;
        for (double fe : feBoostAxis()) {
            sum += benchAverage([&](const std::string &b) {
                return ix.get(b, CoreKind::Flywheel, {fe, 0.5})
                           .energy.totalPj() /
                       ix.get(b, CoreKind::Baseline, base_clock)
                           .energy.totalPj();
            });
        }
        out.push_back({"paper.fig13_energy", 0.70,
                       sum / double(feBoostAxis().size())});
    }

    // Fig 14: "average ~1.02 at FE0 rising to ~1.15 at FE100".
    {
        TableIndex ix(tableFor(tables, "fig14"));
        const std::pair<const char *, std::pair<double, double>> cols[] = {
            {"paper.fig14_fe0", {0.0, 1.02}},
            {"paper.fig14_fe100", {1.0, 1.15}},
        };
        for (const auto &col : cols) {
            const double fe = col.second.first;
            out.push_back({col.first, col.second.second, benchAverage([&](
                const std::string &b) {
                    return ix.get(b, CoreKind::Flywheel, {fe, 0.5})
                               .averageWatts /
                           ix.get(b, CoreKind::Baseline, base_clock)
                               .averageWatts;
                })});
        }
    }

    // Fig 15: "~0.70 at 130nm degrading to ~0.80 at 60nm".
    {
        TableIndex ix(tableFor(tables, "fig15"));
        const std::pair<const char *, std::pair<TechNode, double>> cols[] =
            {
                {"paper.fig15_130nm", {TechNode::N130, 0.70}},
                {"paper.fig15_60nm", {TechNode::N60, 0.80}},
            };
        for (const auto &col : cols) {
            const TechNode node = col.second.first;
            out.push_back({col.first, col.second.second, benchAverage([&](
                const std::string &b) {
                    return ix.get(b, CoreKind::Flywheel, {1.0, 0.5}, node)
                               .energy.totalPj() /
                           ix.get(b, CoreKind::Baseline, base_clock, node)
                               .energy.totalPj();
                })});
        }
    }
    return out;
}

double
paperGapMax(const std::vector<PaperTarget> &targets)
{
    double worst = 0.0;
    for (const PaperTarget &t : targets)
        worst = std::max(worst, std::abs(t.gap()));
    return worst;
}

} // namespace perfbench
