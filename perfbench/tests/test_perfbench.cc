/**
 * @file
 * The benchmark's own tests: seeding, the paper-target arithmetic
 * against the figure renderers, the metric catalog against
 * BENCHMARK.json, and the span recorder's self-time accounting.
 *
 * Build and run: python3 perfbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "api/figures.hh"
#include "api/session.hh"
#include "common/json.hh"
#include "perfbench.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

using namespace perfbench;
using namespace flywheel;

namespace {

/** FNV-1a hash of every block, op, terminator and data object. */
std::uint64_t
programFingerprint(const StaticProgram &program)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const BasicBlock &b : program.blocks()) {
        mix(b.pc);
        mix(b.fallthrough);
        mix(static_cast<std::uint64_t>(b.term.kind));
        mix(b.term.target);
        mix(static_cast<std::uint64_t>(b.term.pTaken * 1e9));
        mix(static_cast<std::uint64_t>(b.term.tripMean * 1e9));
        for (const StaticOp &op : b.ops) {
            mix(static_cast<std::uint64_t>(op.op));
            mix(op.dest);
            mix(op.src1);
            mix(op.src2);
            mix(op.memObj);
            mix(op.stride);
        }
    }
    for (const DataObject &o : program.objects()) {
        mix(o.base);
        mix(o.size);
    }
    mix(program.entryBlock());
    return h;
}

std::uint64_t
fingerprint(const CellProgram &p)
{
    return programFingerprint(StaticProgram(p.profile));
}

/** PCs and addresses of the first @p n instructions of the stream. */
std::vector<Addr>
streamPrefix(const CellProgram &p, std::size_t n)
{
    StaticProgram program(p.profile);
    WorkloadStream stream(program, p.streamSeed);
    std::vector<Addr> out;
    for (std::size_t i = 0; i < n; ++i) {
        const DynInst &d = stream.next();
        out.push_back(d.pc);
        out.push_back(d.effAddr);
    }
    return out;
}

/** The numbers on the renderer's "<label> ..." row. */
std::vector<double>
rowValues(const std::string &text, const std::string &label)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(label, 0) != 0)
            continue;
        std::istringstream cells(line.substr(label.size()));
        std::vector<double> v;
        double x = 0;
        while (cells >> x)
            v.push_back(x);
        return v;
    }
    return {};
}

std::string
lineStartingWith(const std::string &text, const std::string &prefix)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(prefix, 0) == 0)
            return line;
    return {};
}

} // namespace

TEST(PerfbenchSeeds, SameSeedGeneratesIdenticalPrograms)
{
    const auto a = cellPrograms(7);
    const auto b = cellPrograms(7);
    ASSERT_EQ(a.size(), paperBenchmarks().size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(fingerprint(a[i]), fingerprint(b[i])) << i;
        EXPECT_EQ(a[i].streamSeed, b[i].streamSeed) << i;
        EXPECT_EQ(streamPrefix(a[i], 2000), streamPrefix(b[i], 2000)) << i;
    }
}

TEST(PerfbenchSeeds, DifferentSeedsGenerateDifferentPrograms)
{
    const auto a = cellPrograms(7);
    const auto b = cellPrograms(8);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NE(fingerprint(a[i]), fingerprint(b[i])) << i;
        EXPECT_NE(a[i].streamSeed, b[i].streamSeed) << i;
        EXPECT_NE(streamPrefix(a[i], 2000), streamPrefix(b[i], 2000)) << i;
    }
}

TEST(PerfbenchSeeds, EachSetOfASeedHasItsOwnPrograms)
{
    const auto a = cellPrograms(7, 0);
    const auto b = cellPrograms(7, 1);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NE(fingerprint(a[i]), fingerprint(b[i])) << i;
        EXPECT_NE(a[i].streamSeed, b[i].streamSeed) << i;
        EXPECT_EQ(fingerprint(b[i]), fingerprint(cellPrograms(7, 1)[i]));
    }
}

TEST(PerfbenchSeeds, ReseedingKeepsTheProfileKnobs)
{
    const auto programs = cellPrograms(7);
    for (std::size_t i = 0; i < programs.size(); ++i) {
        BenchProfile p = programs[i].profile;
        const BenchProfile &paper = paperBenchmarks()[i];
        EXPECT_STREQ(p.name, paper.name);
        EXPECT_NE(p.seed, paper.seed);
        p.seed = paper.seed;
        EXPECT_EQ(programFingerprint(StaticProgram(p)),
                  programFingerprint(StaticProgram(paper)))
            << paper.name;
    }
}

TEST(PerfbenchPaper, TargetsMatchTheRendererAverages)
{
    std::vector<ExperimentSpec> specs;
    std::string error;
    ASSERT_TRUE(loadFigureSpecs(PERFBENCH_REPO_DIR, &specs, &error))
        << error;
    SessionOptions options;
    options.jobs = 2;
    Session session(options);

    std::map<std::string, SweepTable> tables;
    std::map<std::string, std::vector<double>> averages;
    std::map<std::string, std::string> paper_lines;
    for (ExperimentSpec &spec : specs) {
        // Short cells: the arithmetic, not the model, is under test.
        spec.warmupInstrs = 2000;
        spec.measureInstrs = 5000;
        tables[spec.name] = session.run(spec);
        const FigureDef *fig = figureByName(spec.render);
        ASSERT_NE(fig, nullptr) << spec.render;
        testing::internal::CaptureStdout();
        fig->render(tables[spec.name]);
        const std::string text = testing::internal::GetCapturedStdout();
        averages[spec.name] = rowValues(text, "average");
        paper_lines[spec.name] = lineStartingWith(text, "paper:");
        ASSERT_FALSE(averages[spec.name].empty()) << text;
        ASSERT_FALSE(paper_lines[spec.name].empty()) << text;
    }

    std::map<std::string, const SweepTable *> ptrs;
    for (const auto &kv : tables)
        ptrs[kv.first] = &kv.second;
    const std::vector<PaperTarget> targets = paperTargets(ptrs);

    const auto &f11 = averages["fig11"];
    const auto &f12 = averages["fig12"];
    const auto &f13 = averages["fig13"];
    const auto &f14 = averages["fig14"];
    const auto &f15 = averages["fig15"];
    ASSERT_EQ(f11.size(), 3u);
    ASSERT_EQ(f12.size(), 6u);
    ASSERT_EQ(f13.size(), 5u);
    ASSERT_EQ(f14.size(), 5u);
    ASSERT_EQ(f15.size(), 3u);
    double f13_mean = 0;
    for (double v : f13)
        f13_mean += v / double(f13.size());

    // metric -> (printed average, figure, text on its "paper:" line)
    const std::map<std::string, std::tuple<double, std::string, std::string>>
        printed = {
            {"paper.fig11_flywheel", {f11[1], "fig11", "1.05"}},
            {"paper.fig11_residency", {f11[2], "fig11", "88%"}},
            {"paper.fig12_fe0", {f12[0], "fig12", "1.35"}},
            {"paper.fig12_fe50", {f12[2], "fig12", "1.54"}},
            {"paper.fig12_fe100", {f12[4], "fig12", "1.6"}},
            {"paper.fig13_energy", {f13_mean, "fig13", "0.70"}},
            {"paper.fig14_fe0", {f14[0], "fig14", "1.02"}},
            {"paper.fig14_fe100", {f14[4], "fig14", "1.15"}},
            {"paper.fig15_130nm", {f15[0], "fig15", "0.70"}},
            {"paper.fig15_60nm", {f15[2], "fig15", "0.80"}},
        };
    ASSERT_EQ(targets.size(), printed.size());

    double worst = 0;
    for (const PaperTarget &t : targets) {
        auto it = printed.find(t.metric);
        ASSERT_NE(it, printed.end()) << t.metric;
        const auto &[value, figure, paper_text] = it->second;
        // The renderers print three decimals.
        EXPECT_NEAR(t.model, value, 0.0005 + 1e-12) << t.metric;
        EXPECT_NE(paper_lines[figure].find(paper_text), std::string::npos)
            << t.metric << " target is not on: " << paper_lines[figure];
        const double paper =
            paper_text == "88%" ? 0.88 : std::stod(paper_text);
        EXPECT_DOUBLE_EQ(t.paper, paper) << t.metric;
        worst = std::max(worst, std::abs(value / paper - 1.0));
    }
    EXPECT_NEAR(paperGapMax(targets), worst, 0.001);
}

TEST(PerfbenchContract, MetricsMatchBenchmarkJson)
{
    std::ifstream in(std::string(PERFBENCH_REPO_DIR) + "/BENCHMARK.json");
    std::stringstream text;
    text << in.rdbuf();
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(text.str(), doc, &error)) << error;

    const auto same = [](const Json &list,
                         const std::vector<MetricDef> &defs) {
        ASSERT_EQ(list.size(), defs.size());
        for (std::size_t i = 0; i < defs.size(); ++i) {
            EXPECT_EQ(list.at(i)["name"].asString(), defs[i].name);
            EXPECT_EQ(list.at(i)["unit"].asString(), defs[i].unit)
                << defs[i].name;
            EXPECT_EQ(list.at(i)["better"].asString(), defs[i].better)
                << defs[i].name;
        }
    };
    same(doc["end_to_end"], endToEndMetrics());
    same(doc["per_layer"], perLayerMetrics());

    const Json &workloads = doc["workloads"];
    ASSERT_EQ(workloads.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(workloads.at(i)["name"].asString(), kWorkloadNames[i]);
}

TEST(PerfbenchSpans, SelfTimeSubtractsChildren)
{
    SpanRecorder spans(true);
    {
        auto outer = spans.scope("outer", 3);
        for (int i = 0; i < 2; ++i) {
            auto inner = spans.scope("inner", 3);
            volatile double x = 0;
            for (int k = 0; k < 100000; ++k)
                x = x + k;
        }
    }
    ASSERT_EQ(spans.spans().size(), 3u);
    EXPECT_EQ(spans.spans()[0].parent, -1);
    EXPECT_EQ(spans.spans()[1].parent, 0);
    EXPECT_EQ(spans.spans()[2].parent, 0);
    for (const auto &s : spans.spans())
        EXPECT_EQ(s.id, 3u);

    double outer_total = 0, outer_self = 0, inner_total = 0;
    for (const auto &row : spans.selfTimes()) {
        if (row.name == "outer") {
            outer_total = row.totalSeconds;
            outer_self = row.selfSeconds;
        } else {
            EXPECT_EQ(row.count, 2u);
            EXPECT_DOUBLE_EQ(row.selfSeconds, row.totalSeconds);
            inner_total = row.totalSeconds;
        }
    }
    EXPECT_NEAR(outer_self, outer_total - inner_total, 1e-12);
    EXPECT_GE(outer_self, 0.0);

    const Json doc = spans.chromeJson();
    ASSERT_EQ(doc["traceEvents"].size(), 3u);
    EXPECT_EQ(doc["traceEvents"].at(1)["args"]["parent"].asDouble(), 0.0);

    SpanRecorder off(false);
    {
        auto s = off.scope("x", 1);
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(PerfbenchStats, PercentileInterpolates)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(percentile({0, 10}, 90), 9.0);
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}
