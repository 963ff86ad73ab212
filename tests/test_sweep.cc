/**
 * @file
 * Tests for the parallel sweep engine: thread-pool behaviour,
 * determinism across worker counts, reuse of finished simulations
 * within one runner, and export stability.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "core/config_key.hh"
#include "core/report.hh"
#include "sweep/sweep.hh"
#include "sweep/thread_pool.hh"

namespace flywheel {
namespace {

/** Small grid used by most tests: 2 benches x {baseline, flywheel}. */
std::vector<SweepPoint>
smallGrid()
{
    std::vector<SweepPoint> points;
    for (const char *bench : {"gzip", "gcc"}) {
        points.push_back(makePoint(bench, CoreKind::Baseline, {0.0, 0.0}));
        points.push_back(
            makePoint(bench, CoreKind::Flywheel, {0.5, 0.5}));
    }
    // Keep the grid cheap: the engine's properties do not depend on
    // the simulated instruction count.
    for (auto &pt : points) {
        pt.config.warmupInstrs = 2000;
        pt.config.measureInstrs = 5000;
    }
    return points;
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, DefaultJobsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

TEST(ThreadPool, ParseJobsValueAcceptsOnlySaneCounts)
{
    unsigned v = 0;
    EXPECT_TRUE(ThreadPool::parseJobsValue("1", &v));
    EXPECT_EQ(v, 1u);
    EXPECT_TRUE(ThreadPool::parseJobsValue("8", &v));
    EXPECT_EQ(v, 8u);
    EXPECT_TRUE(ThreadPool::parseJobsValue("4096", &v));
    EXPECT_EQ(v, ThreadPool::kMaxJobs);

    // Zero workers can execute nothing; submit() would hang forever.
    EXPECT_FALSE(ThreadPool::parseJobsValue("0", &v));
    // Garbage, prefixes and suffixes.
    EXPECT_FALSE(ThreadPool::parseJobsValue("", &v));
    EXPECT_FALSE(ThreadPool::parseJobsValue("abc", &v));
    EXPECT_FALSE(ThreadPool::parseJobsValue("8x", &v));
    EXPECT_FALSE(ThreadPool::parseJobsValue(" 8", &v));
    EXPECT_FALSE(ThreadPool::parseJobsValue("0x10", &v));
    // Negative input must not wrap to a huge unsigned.
    EXPECT_FALSE(ThreadPool::parseJobsValue("-2", &v));
    // Overflow and absurd counts.
    EXPECT_FALSE(ThreadPool::parseJobsValue("4097", &v));
    EXPECT_FALSE(ThreadPool::parseJobsValue("99999999999999999999999",
                                            &v));
}

class FlywheelJobsEnv : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const char *old = std::getenv("FLYWHEEL_JOBS");
        if (old)
            saved_ = old;
        had_ = old != nullptr;
    }

    void
    TearDown() override
    {
        if (had_)
            setenv("FLYWHEEL_JOBS", saved_.c_str(), 1);
        else
            unsetenv("FLYWHEEL_JOBS");
    }

  private:
    std::string saved_;
    bool had_ = false;
};

TEST_F(FlywheelJobsEnv, ValidValueIsHonoured)
{
    setenv("FLYWHEEL_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
    ThreadPool pool;
    EXPECT_EQ(pool.threadCount(), 3u);
}

TEST_F(FlywheelJobsEnv, InvalidValuesFallBackToHardwareConcurrency)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    for (const char *bad : {"0", "garbage", "8 threads", "-1",
                            "184467440737095516160", ""}) {
        setenv("FLYWHEEL_JOBS", bad, 1);
        EXPECT_EQ(ThreadPool::defaultJobs(), hw)
            << "FLYWHEEL_JOBS='" << bad << "'";
    }
}

TEST(ConfigKey, DistinguishesEveryAxis)
{
    SweepPoint base = makePoint("gcc", CoreKind::Flywheel, {0.5, 0.5});
    std::string key = configKey(base.config);

    SweepPoint other_bench =
        makePoint("gzip", CoreKind::Flywheel, {0.5, 0.5});
    EXPECT_NE(key, configKey(other_bench.config));

    SweepPoint other_kind =
        makePoint("gcc", CoreKind::Baseline, {0.5, 0.5});
    EXPECT_NE(key, configKey(other_kind.config));

    SweepPoint other_clock =
        makePoint("gcc", CoreKind::Flywheel, {0.25, 0.5});
    EXPECT_NE(key, configKey(other_clock.config));

    SweepPoint other_node = makePoint("gcc", CoreKind::Flywheel,
                                      {0.5, 0.5}, TechNode::N60);
    EXPECT_NE(key, configKey(other_node.config));

    RunConfig longer = base.config;
    longer.measureInstrs += 1;
    EXPECT_NE(key, configKey(longer));

    SweepPoint same = makePoint("gcc", CoreKind::Flywheel, {0.5, 0.5});
    EXPECT_EQ(key, configKey(same.config));
}

/** Shorten @p points to keep the grid cheap. */
void
shorten(std::vector<SweepPoint> &points)
{
    for (auto &pt : points) {
        pt.config.warmupInstrs = 2000;
        pt.config.measureInstrs = 5000;
    }
}

/**
 * Variants of three simulations: one Flywheel run over node x gating,
 * the baseline at two clock plans and two nodes (it never reads the
 * FE/BE clocks), and one more Flywheel clock plan.
 */
std::vector<SweepPoint>
variantGrid()
{
    std::vector<SweepPoint> points;
    for (TechNode node : {TechNode::N130, TechNode::N60})
        for (bool gating : {false, true})
            points.push_back(makePoint("gcc", CoreKind::Flywheel,
                                       {0.5, 0.5}, node, gating));
    for (ClockPoint clock : {ClockPoint{0.0, 0.0}, ClockPoint{0.5, 0.25}})
        for (TechNode node : {TechNode::N130, TechNode::N90})
            points.push_back(
                makePoint("gcc", CoreKind::Baseline, clock, node));
    points.push_back(makePoint("gcc", CoreKind::Flywheel, {0.0, 0.5}));
    shorten(points);
    return points;
}

TEST(SimulationKey, DropsOnlyWhatTheSimulatorNeverReads)
{
    const RunConfig fly =
        makePoint("gcc", CoreKind::Flywheel, {0.5, 0.5}).config;
    const RunConfig base =
        makePoint("gcc", CoreKind::Baseline, {0.0, 0.0}).config;

    struct Pair
    {
        const char *what;
        RunConfig a, b;
        bool same;
    };
    std::vector<Pair> pairs;
    const auto add = [&](const char *what, const RunConfig &a,
                         bool same, auto edit) {
        RunConfig b = a;
        edit(b);
        pairs.push_back({what, a, b, same});
    };
    add("flywheel node", fly, true,
        [](RunConfig &c) { c.node = TechNode::N60; });
    add("flywheel gating", fly, true,
        [](RunConfig &c) { c.frontEndPowerGating = true; });
    add("baseline clock plan", base, true,
        [](RunConfig &c) { c.params = clockedParams(0.5, 0.25); });
    add("baseline EC knobs", base, true, [](RunConfig &c) {
        c.params.ecTotalBlocks /= 2;
        c.params.poolPhysRegs += 8;
    });
    add("flywheel clock plan", fly, false,
        [](RunConfig &c) { c.params = clockedParams(0.0, 0.5); });
    add("flywheel EC size", fly, false,
        [](RunConfig &c) { c.params.ecTotalBlocks /= 2; });
    add("baseline period", base, false,
        [](RunConfig &c) { c.params.basePeriodPs = 800.0; });
    add("core kind", base, false,
        [](RunConfig &c) { c.kind = CoreKind::RegisterAllocation; });
    add("benchmark", fly, false, [](RunConfig &c) {
        c.profile = makePoint("gzip", CoreKind::Flywheel, {}).config.profile;
    });
    add("warmup", fly, false, [](RunConfig &c) { c.warmupInstrs += 1; });

    for (const Pair &p : pairs) {
        EXPECT_EQ(simulationKey(p.a) == simulationKey(p.b), p.same)
            << p.what;
        EXPECT_EQ(checkpointKey(p.a) == checkpointKey(p.b), p.same)
            << p.what;
        // The point identity still tells every variant apart.
        EXPECT_NE(configKey(p.a), configKey(p.b)) << p.what;
    }
}

TEST(SweepRunner, EachDistinctSimulationRunsOnce)
{
    const std::vector<SweepPoint> points = variantGrid();
    const std::size_t distinct = 3;

    std::vector<std::string> json, csv;
    for (unsigned jobs : {1u, 4u, 8u}) {
        SweepOptions opts;
        opts.jobs = jobs;
        SweepRunner runner(opts);
        const SweepTable table = runner.run(points);
        ASSERT_EQ(table.size(), points.size());
        EXPECT_EQ(table.telemetry().cacheHits, points.size() - distinct)
            << "jobs " << jobs;
        // The first point of each simulation in grid order runs.
        for (std::size_t i = 0; i < table.size(); ++i)
            EXPECT_EQ(table.at(i).fromCache, i != 0 && i != 4 && i != 8)
                << "point " << i;
        // The runner kept every simulation it ran.
        EXPECT_EQ(runner.run(points).telemetry().cacheHits, points.size())
            << "jobs " << jobs;
        if (jobs == 1) {
            for (std::size_t i = 0; i < table.size(); ++i)
                EXPECT_EQ(toJson(table.at(i).result).dump(),
                          toJson(runSim(points[i].config)).dump())
                    << "point " << i;
        }
        std::ostringstream j, c;
        table.writeJson(j);
        table.writeCsv(c);
        json.push_back(j.str());
        csv.push_back(c.str());
    }
    for (std::size_t t = 1; t < json.size(); ++t) {
        EXPECT_EQ(json[t], json[0]);
        EXPECT_EQ(csv[t], csv[0]);
    }
}

TEST(SweepRunner, CacheHitIsReducedForTheRequestingNode)
{
    RunConfig at130 = makePoint("gcc", CoreKind::Flywheel, {0.5, 0.5},
                                TechNode::N130)
                          .config;
    at130.warmupInstrs = 2000;
    at130.measureInstrs = 5000;
    RunConfig at60 = at130;
    at60.node = TechNode::N60;
    SweepPoint point;
    point.config = at130;

    SweepOptions opts;
    opts.jobs = 1;
    SweepRunner runner(opts);
    const SweepTable filled = runner.run({point});
    EXPECT_FALSE(filled.at(0).fromCache);
    // A later grid asks for the same simulation at another node.
    point.config = at60;
    const SweepTable read = runner.run({point});
    EXPECT_TRUE(read.at(0).fromCache);
    EXPECT_EQ(toJson(read.at(0).result).dump(), toJson(runSim(at60)).dump());
    EXPECT_NE(read.at(0).result.energy.totalPj(),
              filled.at(0).result.energy.totalPj());
}

TEST(SweepRunner, ObservedGridSimulatesEveryRow)
{
    const std::vector<SweepPoint> points = variantGrid();
    SweepOptions opts;
    opts.jobs = 2;
    opts.obs.collectStats = true;
    SweepRunner runner(opts);
    const SweepTable table = runner.run(points);
    EXPECT_EQ(table.telemetry().cacheHits, 0u);
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_FALSE(table.at(i).fromCache) << "point " << i;
        EXPECT_NE(table.at(i).result.statsDoc, nullptr) << "point " << i;
    }
}

TEST(SweepRunner, DeterministicAcrossJobCounts)
{
    std::vector<SweepPoint> points = smallGrid();

    std::vector<SweepTable> tables;
    for (unsigned jobs : {1u, 4u, 8u}) {
        SweepOptions opts;
        opts.jobs = jobs;
        SweepRunner runner(opts);
        tables.push_back(runner.run(points));
    }

    for (std::size_t t = 1; t < tables.size(); ++t) {
        ASSERT_EQ(tables[t].size(), tables[0].size());
        for (std::size_t i = 0; i < tables[0].size(); ++i) {
            const RunResult &a = tables[0].at(i).result;
            const RunResult &b = tables[t].at(i).result;
            EXPECT_EQ(a.timePs, b.timePs) << "point " << i;
            EXPECT_EQ(a.instructions, b.instructions) << "point " << i;
            EXPECT_EQ(toJson(a).dump(), toJson(b).dump())
                << "point " << i;
        }
        // Byte-identical structured export, the acceptance criterion.
        std::ostringstream ja, jb, ca, cb;
        tables[0].writeJson(ja);
        tables[t].writeJson(jb);
        EXPECT_EQ(ja.str(), jb.str());
        tables[0].writeCsv(ca);
        tables[t].writeCsv(cb);
        EXPECT_EQ(ca.str(), cb.str());
    }
}

TEST(SweepRunner, CacheHitsOnRerun)
{
    std::vector<SweepPoint> points = smallGrid();

    SweepOptions opts;
    opts.jobs = 4;
    SweepRunner runner(opts);

    SweepTable first = runner.run(points);
    for (const auto &row : first.rows())
        EXPECT_FALSE(row.fromCache);
    EXPECT_EQ(first.telemetry().cacheHits, 0u);

    SweepTable second = runner.run(points);
    for (const auto &row : second.rows())
        EXPECT_TRUE(row.fromCache);
    EXPECT_EQ(second.telemetry().cacheHits, points.size());
    EXPECT_EQ(second.telemetry().poolTasks, 0u);
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(toJson(first.at(i).result).dump(),
                  toJson(second.at(i).result).dump());
}

TEST(SweepRunner, ProgressCallbackFiresOncePerPoint)
{
    std::vector<SweepPoint> points = smallGrid();
    std::size_t calls = 0;
    std::size_t last_done = 0;

    SweepOptions opts;
    opts.jobs = 4;
    opts.progress = [&](std::size_t done, std::size_t total,
                        const SweepPoint &, const RunResult &, bool) {
        ++calls;
        EXPECT_EQ(total, points.size());
        EXPECT_EQ(done, last_done + 1); // serialized, monotonic
        last_done = done;
    };
    SweepRunner runner(opts);
    runner.run(points);
    EXPECT_EQ(calls, points.size());
}

TEST(SweepAxes, ExpandIsCartesianAndOrdered)
{
    SweepAxes axes;
    axes.benchmarks = {"gzip", "gcc"};
    axes.kinds = {CoreKind::Baseline, CoreKind::Flywheel};
    axes.clocks = {{0.0, 0.0}, {0.5, 0.5}};
    axes.nodes = {TechNode::N130, TechNode::N60};

    std::vector<SweepPoint> points = axes.expand();
    ASSERT_EQ(points.size(), 16u);
    // Benchmark-major nesting order.
    EXPECT_EQ(points[0].bench, "gzip");
    EXPECT_EQ(points[8].bench, "gcc");
    EXPECT_EQ(points[0].kind, CoreKind::Baseline);
    EXPECT_EQ(points[4].kind, CoreKind::Flywheel);
    EXPECT_EQ(points[0].config.node, TechNode::N130);
    EXPECT_EQ(points[1].config.node, TechNode::N60);
    EXPECT_EQ(points[2].clock.feBoost, 0.5);
}

TEST(Serialization, CsvHasOneLinePerPointPlusHeader)
{
    SweepOptions opts;
    opts.jobs = 2;
    SweepRunner runner(opts);
    SweepTable table = runner.run(smallGrid());

    std::ostringstream os;
    table.writeCsv(os);
    std::string csv = os.str();
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, table.size() + 1);
    EXPECT_EQ(csv.rfind("bench,kind,node,", 0), 0u);
}

/** Minimal RFC-4180 reader: one record per line, quoted fields. */
std::vector<std::string>
parseCsvRecord(const std::string &line)
{
    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (quoted) {
            if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
                field += '"';
                ++i;
            } else if (c == '"') {
                quoted = false;
            } else {
                field += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            fields.push_back(field);
            field.clear();
        } else {
            field += c;
        }
    }
    fields.push_back(field);
    return fields;
}

TEST(Serialization, CsvEscapesPathologicalLabels)
{
    EXPECT_EQ(csvField("plain"), "plain");
    EXPECT_EQ(csvField("with,comma"), "\"with,comma\"");
    EXPECT_EQ(csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvField("two\nlines"), "\"two\nlines\"");

    // A custom point whose labels need every escaping rule at once.
    const std::string evil_bench = "my,\"bench\"";
    const std::string evil_label = "block \"a\", step 2";
    SweepRecord rec;
    rec.point.bench = evil_bench;
    rec.point.label = evil_label;
    rec.point.kind = CoreKind::Flywheel;
    rec.result.instructions = 42;
    SweepTable table;
    table.add(rec);

    std::ostringstream os;
    table.writeCsv(os);
    std::string csv = os.str();

    // Two lines: header + the (escaped) record.
    std::size_t newline = csv.find('\n');
    ASSERT_NE(newline, std::string::npos);
    std::string header = csv.substr(0, newline);
    std::string row = csv.substr(newline + 1);
    ASSERT_FALSE(row.empty());
    row.pop_back(); // trailing '\n'

    // Field count survives the embedded commas...
    std::vector<std::string> header_fields = parseCsvRecord(header);
    std::vector<std::string> fields = parseCsvRecord(row);
    ASSERT_EQ(fields.size(), header_fields.size());
    // ...and the pathological values round-trip exactly.
    EXPECT_EQ(fields[0], evil_bench);
    EXPECT_EQ(fields[1], "flywheel");
    EXPECT_EQ(fields[6], "42");
    EXPECT_EQ(fields.back(), evil_label);
}

TEST(Json, ParsesWhatItWrites)
{
    Json obj = Json::object();
    obj.set("name", "sweep");
    obj.set("count", std::uint64_t(42));
    obj.set("ratio", 0.30000000000000004);
    obj.set("flag", true);
    obj.set("none", Json());
    Json arr = Json::array();
    arr.push(1);
    arr.push("two\nlines");
    arr.push(false);
    obj.set("items", std::move(arr));

    for (int indent : {0, 2}) {
        Json back;
        std::string error;
        ASSERT_TRUE(Json::parse(obj.dump(indent), back, &error)) << error;
        EXPECT_EQ(back["name"].asString(), "sweep");
        EXPECT_EQ(back["count"].asU64(), 42u);
        EXPECT_DOUBLE_EQ(back["ratio"].asDouble(), 0.30000000000000004);
        EXPECT_TRUE(back["flag"].asBool());
        EXPECT_TRUE(back["none"].isNull());
        EXPECT_EQ(back["items"].size(), 3u);
        EXPECT_EQ(back["items"].at(1).asString(), "two\nlines");
    }
}

TEST(Json, RejectsMalformedInput)
{
    Json out;
    EXPECT_FALSE(Json::parse("{\"a\": 1,", out));
    EXPECT_FALSE(Json::parse("[1, 2", out));
    EXPECT_FALSE(Json::parse("{\"a\" 1}", out));
    EXPECT_FALSE(Json::parse("nope", out));
    EXPECT_FALSE(Json::parse("1 2", out));
}

} // namespace
} // namespace flywheel
