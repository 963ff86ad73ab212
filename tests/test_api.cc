/**
 * @file
 * Tests for the Experiment API: declarative spec JSON round-trip
 * across every axis, strict rejection of malformed documents, the
 * Session facade (run/repeat/verify), TableIndex lookup, the figure
 * registry, and identity between registered figure specs and the
 * shipped files under specs/ (which is what makes
 * `flywheel_bench --spec specs/figNN.json` reproduce the figure).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "api/experiment.hh"
#include "api/figures.hh"
#include "api/session.hh"
#include "api/table_index.hh"
#include "core/report.hh"
#include "workload/profiles.hh"

#ifndef FLYWHEEL_SPEC_DIR
#define FLYWHEEL_SPEC_DIR "specs"
#endif

namespace flywheel {
namespace {

/** A spec exercising every axis, both grids rich. */
ExperimentSpec
kitchenSinkSpec()
{
    ExperimentSpec spec;
    spec.name = "kitchen_sink";
    spec.title = "round-trip everything";
    spec.render = "fig12";
    spec.warmupInstrs = 1234;
    spec.measureInstrs = 5678;
    spec.repeat = 3;
    spec.verify = true;

    GridSpec a;
    a.label = "block, \"a\"";
    a.benchmarks = {"gzip", "gcc"};
    a.kinds = {CoreKind::Baseline, CoreKind::RegisterAllocation,
               CoreKind::Flywheel};
    a.clocks = {{0.0, 0.0}, {0.25, 0.5}, {1.0, 0.5}};
    a.nodes = {TechNode::N180, TechNode::N130, TechNode::N90,
               TechNode::N60};
    a.gating = {false, true};
    a.tweaks.extraFrontEndStages = 1;
    a.tweaks.wakeupExtraDelay = 2;
    a.tweaks.srtEnabled = false;
    a.tweaks.ecBlockSlots = 4;
    a.tweaks.ecTotalBlocks = 4096;
    a.tweaks.poolPhysRegs = 256;
    a.tweaks.minPoolSize = 2;
    spec.grids.push_back(a);

    GridSpec b; // all defaults: benchmarks empty = all ten
    spec.grids.push_back(b);
    return spec;
}

TEST(ExperimentSpec, JsonRoundTripIsIdentity)
{
    ExperimentSpec spec = kitchenSinkSpec();
    const std::string dumped = spec.toJson().dump(2);

    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(dumped, doc, &error)) << error;

    ExperimentSpec back;
    ASSERT_TRUE(ExperimentSpec::fromJson(doc, &back, &error)) << error;

    // parse -> serialize -> parse is the identity (canonical form).
    EXPECT_EQ(back.toJson().dump(2), dumped);

    // And the value itself survived.
    EXPECT_EQ(back.name, "kitchen_sink");
    EXPECT_EQ(back.render, "fig12");
    EXPECT_EQ(back.warmupInstrs, 1234u);
    EXPECT_EQ(back.measureInstrs, 5678u);
    EXPECT_EQ(back.repeat, 3u);
    EXPECT_TRUE(back.verify);
    ASSERT_EQ(back.grids.size(), 2u);
    EXPECT_EQ(back.grids[0].label, "block, \"a\"");
    EXPECT_EQ(back.grids[0].kinds.size(), 3u);
    EXPECT_EQ(back.grids[0].clocks.size(), 3u);
    EXPECT_EQ(back.grids[0].nodes.size(), 4u);
    EXPECT_EQ(back.grids[0].gating.size(), 2u);
    EXPECT_EQ(*back.grids[0].tweaks.ecTotalBlocks, 4096u);
    EXPECT_EQ(*back.grids[0].tweaks.srtEnabled, false);
    EXPECT_TRUE(back.grids[1].tweaks.empty());

    // Expansion agrees with the original on both shape and configs.
    std::vector<SweepPoint> p0 = spec.expand();
    std::vector<SweepPoint> p1 = back.expand();
    ASSERT_EQ(p0.size(), p1.size());
    ASSERT_EQ(p0.size(),
              2 * 3 * 3 * 4 * 2 + benchmarkNames().size());
    for (std::size_t i = 0; i < p0.size(); ++i) {
        EXPECT_EQ(configKey(p0[i].config), configKey(p1[i].config));
        EXPECT_EQ(p0[i].label, p1[i].label);
    }
}

TEST(ExperimentSpec, MinimalDocumentGetsDefaults)
{
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(
        "{\"schema\": \"flywheel-experiment-v1\", \"name\": \"x\","
        " \"grids\": [{}]}",
        doc, &error)) << error;
    ExperimentSpec spec;
    ASSERT_TRUE(ExperimentSpec::fromJson(doc, &spec, &error)) << error;
    EXPECT_EQ(spec.repeat, 1u);
    EXPECT_FALSE(spec.verify);
    EXPECT_EQ(spec.warmupInstrs, 0u);
    ASSERT_EQ(spec.grids.size(), 1u);
    EXPECT_TRUE(spec.grids[0].benchmarks.empty());
    ASSERT_EQ(spec.grids[0].kinds.size(), 1u);
    EXPECT_EQ(spec.grids[0].kinds[0], CoreKind::Flywheel);
    // Empty benchmarks = all ten.
    EXPECT_EQ(spec.expand().size(), benchmarkNames().size());
}

/** Expect fromJson to fail and mention @p fragment in the error. */
void
expectRejected(const std::string &json, const std::string &fragment)
{
    Json doc;
    std::string error;
    ASSERT_TRUE(Json::parse(json, doc, &error))
        << "test bug, unparseable: " << error;
    ExperimentSpec spec;
    EXPECT_FALSE(ExperimentSpec::fromJson(doc, &spec, &error)) << json;
    EXPECT_NE(error.find(fragment), std::string::npos)
        << "error '" << error << "' does not mention '" << fragment
        << "'";
}

TEST(ExperimentSpec, RejectsMalformedDocuments)
{
    const std::string head =
        "{\"schema\": \"flywheel-experiment-v1\", \"name\": \"x\"";

    // Schema handling.
    expectRejected("{\"name\": \"x\"}", "schema");
    expectRejected("{\"schema\": \"flywheel-experiment-v999\"}",
                   "schema");

    // Unknown fields at every level.
    expectRejected(head + ", \"grid\": []}", "unknown field 'grid'");
    expectRejected(head + ", \"grids\": [{\"bench\": []}]}",
                   "unknown field 'bench'");
    expectRejected(head +
                   ", \"grids\": [{\"tweaks\": {\"fetchWidth\": 8}}]}",
                   "unknown field 'fetchWidth'");
    expectRejected(head +
                   ", \"grids\": [{\"clocks\": [{\"fe\": 0, "
                   "\"boost\": 1}]}]}",
                   "unknown field 'boost'");

    // Bad enum values.
    expectRejected(head + ", \"grids\": [{\"kinds\": [\"turbo\"]}]}",
                   "unknown core kind");
    expectRejected(head + ", \"grids\": [{\"nodes\": [\"7nm\"]}]}",
                   "unknown tech node");
    expectRejected(head +
                   ", \"grids\": [{\"benchmarks\": [\"doom\"]}]}",
                   "unknown benchmark");

    // Bad shapes and ranges.
    expectRejected(head + ", \"grids\": [{\"kinds\": []}]}",
                   "non-empty");
    expectRejected(head + ", \"grids\": [{\"gating\": [1]}]}",
                   "expected bools");
    expectRejected(head + ", \"grids\": [{\"clocks\": [0.5]}]}",
                   "expected {fe, be}");
    // Boosts whose period rounds to 0 ps or is not positive.
    for (const char *clock : {"{\"fe\": 1e9, \"be\": 0.5}",
                              "{\"fe\": 0, \"be\": -1}",
                              "{\"fe\": -3}"})
        expectRejected(head + ", \"grids\": [{\"clocks\": [" + clock +
                           "]}]}",
                       "gives no clock period");
    expectRejected(head + ", \"repeat\": 0}", "repeat");
    expectRejected(head + ", \"warmupInstrs\": -5}",
                   "non-negative integer");

    // Sampling block: degenerate window counts, unknown members, and
    // parameters that would be silently inert without windows.
    expectRejected(head + ", \"sampling\": {\"windows\": 1}}",
                   "0 or 2..10000");
    expectRejected(head + ", \"sampling\": {\"slices\": 4}}",
                   "unknown field 'slices'");
    expectRejected(head + ", \"sampling\": {\"fastForward\": 1000}}",
                   "require windows >= 2");
    expectRejected(head + ", \"measureInstrs\": 1.5}",
                   "non-negative integer");
    expectRejected(head + ", \"verify\": \"yes\"}", "expected a bool");
    expectRejected(head +
                   ", \"grids\": [{\"tweaks\": {\"srtEnabled\": 1}}]}",
                   "expected a bool");
}

TEST(ExperimentSpec, LoadReportsFileAndParseErrors)
{
    ExperimentSpec spec;
    std::string error;
    EXPECT_FALSE(ExperimentSpec::load("no/such/file.json", &spec,
                                      &error));
    EXPECT_NE(error.find("no/such/file.json"), std::string::npos);

    const char *path = "test_api_bad_spec.json";
    {
        std::ofstream out(path);
        out << "{\"schema\": \"flywheel-experiment-v1\", "
               "\"name\": \"x\", \"bogus\": 1}";
    }
    EXPECT_FALSE(ExperimentSpec::load(path, &spec, &error));
    EXPECT_NE(error.find("bogus"), std::string::npos);
    std::remove(path);
}

TEST(GridSpec, TweaksAndLabelReachTheConfig)
{
    GridSpec grid;
    grid.label = "tweaked";
    grid.benchmarks = {"gzip"};
    grid.kinds = {CoreKind::Flywheel};
    grid.clocks = {{0.5, 0.5}};
    grid.tweaks.srtEnabled = false;
    grid.tweaks.poolPhysRegs = 384;

    std::vector<SweepPoint> points = grid.expand(100, 200);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].label, "tweaked");
    EXPECT_FALSE(points[0].config.params.srtEnabled);
    EXPECT_EQ(points[0].config.params.poolPhysRegs, 384u);
    EXPECT_EQ(points[0].config.warmupInstrs, 100u);
    EXPECT_EQ(points[0].config.measureInstrs, 200u);

    // An untweaked grid leaves the defaults alone.
    GridSpec plain = grid;
    plain.tweaks = ParamTweaks();
    std::vector<SweepPoint> base = plain.expand(100, 200);
    EXPECT_TRUE(base[0].config.params.srtEnabled);
    EXPECT_NE(configKey(points[0].config), configKey(base[0].config));
}

/** Small two-bench spec with pinned run lengths. */
ExperimentSpec
smallSpec()
{
    ExperimentSpec spec;
    spec.name = "small";
    spec.warmupInstrs = 2000;
    spec.measureInstrs = 5000;
    GridSpec grid;
    grid.benchmarks = {"gzip", "gcc"};
    grid.kinds = {CoreKind::Baseline, CoreKind::Flywheel};
    grid.clocks = {{0.5, 0.5}};
    spec.grids.push_back(grid);
    return spec;
}

TEST(Session, RunMatchesDirectSweepRunner)
{
    ExperimentSpec spec = smallSpec();

    SessionOptions opts;
    opts.jobs = 2;
    Session session(opts);
    SweepTable via_session = session.run(spec);

    SweepRunner runner;
    SweepTable direct = runner.run(spec.expand());

    ASSERT_EQ(via_session.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(toJson(via_session.at(i).result).dump(),
                  toJson(direct.at(i).result).dump());
}

TEST(Session, RepeatedPointsComeFromTheCache)
{
    ExperimentSpec spec = smallSpec();
    Session session;
    session.run(spec);
    SweepTable second = session.run(spec);
    for (const SweepRecord &row : second.rows())
        EXPECT_TRUE(row.fromCache);
}

TEST(Session, RepeatFlagReRunsDeterministically)
{
    ExperimentSpec spec = smallSpec();
    spec.repeat = 2; // diverging repeats would be a fatal error
    Session session;
    EXPECT_EQ(session.run(spec).size(), spec.expand().size());
}

TEST(Session, VerifyCrossChecksNonBaselinePoints)
{
    ExperimentSpec spec;
    spec.name = "verify_me";
    spec.warmupInstrs = 1000;
    spec.measureInstrs = 4000;
    GridSpec grid;
    grid.benchmarks = {"gzip"};
    grid.kinds = {CoreKind::Baseline, CoreKind::Flywheel};
    grid.clocks = {{0.0, 0.5}};
    // Node/gating axes must not multiply verification work.
    grid.nodes = {TechNode::N130, TechNode::N60};
    spec.grids.push_back(grid);

    Session session;
    VerifyReport report = session.verify(spec);
    ASSERT_EQ(report.entries.size(), 1u); // deduped: 1 non-baseline
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_GT(report.entries[0].report.instructionsChecked, 0u);
    EXPECT_NE(report.summary().find("PASSED"), std::string::npos);
}

TEST(TableIndex, FindsRowsByIdentityNotPosition)
{
    ExperimentSpec spec = smallSpec();
    Session session;
    SweepTable table = session.run(spec);

    TableIndex ix(table);
    EXPECT_EQ(ix.size(), table.size());
    const RunResult *base =
        ix.find("gzip", CoreKind::Baseline, {0.5, 0.5});
    ASSERT_NE(base, nullptr);
    EXPECT_GT(base->instructions, 0u);
    // Absent identities: wrong clock, wrong label.
    EXPECT_EQ(ix.find("gzip", CoreKind::Baseline, {0.0, 0.0}), nullptr);
    EXPECT_EQ(ix.find("gzip", CoreKind::Baseline, {0.5, 0.5},
                      TechNode::N130, false, "nope"),
              nullptr);
}

TEST(TableIndex, IdenticalDuplicateRowsAreNotAmbiguous)
{
    // The same point appearing twice (e.g. a merged multi-figure
    // table) is harmless: both rows carry the same config.
    SweepRecord rec;
    rec.point.bench = "gzip";
    rec.point.kind = CoreKind::Flywheel;
    rec.result.instructions = 1;
    SweepTable table;
    table.add(rec);
    table.add(rec);
    TableIndex ix(table);
    EXPECT_NE(ix.find("gzip", CoreKind::Flywheel, {0.0, 0.0}), nullptr);
}

TEST(TableIndexDeathTest, AmbiguousIdentityLookupIsFatal)
{
    // Two rows sharing the renderer-visible identity but carrying
    // different configs (unlabelled tweak blocks): serving either
    // would present one configuration's numbers as another's.
    SweepRecord a;
    a.point.bench = "gzip";
    a.point.kind = CoreKind::Flywheel;
    SweepRecord b = a;
    b.point.config.params.srtEnabled = false;
    SweepTable table;
    table.add(a);
    table.add(b);
    TableIndex ix(table);
    EXPECT_EXIT(ix.find("gzip", CoreKind::Flywheel, {0.0, 0.0}),
                ::testing::ExitedWithCode(1), "ambiguous");
    // Other identities stay usable.
    EXPECT_EQ(ix.find("gcc", CoreKind::Flywheel, {0.0, 0.0}), nullptr);
}

TEST(FigureRegistry, AllPaperFiguresAreRegistered)
{
    const std::set<std::string> expected{
        "abl_ec_block", "abl_pool_size", "abl_power_gating", "abl_srt",
        "abl_sync", "fig01", "fig02", "fig11", "fig12", "fig13",
        "fig14", "fig15", "table1"};

    std::set<std::string> got;
    std::string previous;
    for (const FigureDef *def : allFigures()) {
        EXPECT_LT(previous, def->name) << "unsorted registry";
        previous = def->name;
        got.insert(def->name);
        EXPECT_FALSE(def->title.empty()) << def->name;
        EXPECT_TRUE(def->render != nullptr) << def->name;
        // Renderable spec: the spec's render field names the figure.
        EXPECT_EQ(def->spec.render, def->name);
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(figureByName("fig12")->name, "fig12");
    EXPECT_EQ(figureByName("nope"), nullptr);
}

TEST(FigureRegistry, SharedGridAcrossFig121314)
{
    // fig12/13/14 must expand to the identical grid so one session
    // simulates it once.
    std::vector<SweepPoint> p12 = figureByName("fig12")->spec.expand();
    for (const char *other : {"fig13", "fig14"}) {
        std::vector<SweepPoint> po =
            figureByName(other)->spec.expand();
        ASSERT_EQ(po.size(), p12.size());
        for (std::size_t i = 0; i < p12.size(); ++i)
            EXPECT_EQ(configKey(p12[i].config), configKey(po[i].config));
    }
}

TEST(FigureRegistry, ShippedSpecsMatchRegisteredSpecs)
{
    // Byte-identical canonical documents: what guarantees that
    // `flywheel_bench --spec specs/figNN.json` reproduces the figure
    // exactly as `--figure figNN` does.
    for (const FigureDef *def : allFigures()) {
        const std::string path =
            std::string(FLYWHEEL_SPEC_DIR) + "/" + def->name + ".json";
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << "missing shipped spec " << path;
        std::ostringstream text;
        text << in.rdbuf();

        ExperimentSpec spec;
        std::string error;
        ASSERT_TRUE(ExperimentSpec::load(path, &spec, &error)) << error;
        EXPECT_EQ(spec.toJson().dump(2),
                  def->spec.toJson().dump(2))
            << path << " diverges from the registered spec";
        // The shipped file itself is the canonical serialization.
        EXPECT_EQ(text.str(), def->spec.toJson().dump(2) + "\n")
            << path << " is not in canonical form (regenerate with "
                       "flywheel_bench --dump-spec " << def->name << ")";
    }
}

} // namespace
} // namespace flywheel
