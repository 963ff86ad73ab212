/**
 * @file
 * The figures-cold and figures-warm workloads: a Session runs the
 * fig11..fig15 specs (270 grid points) on a fixed worker pool, grid
 * after grid until the time budget is spent.  figures-cold gives
 * every grid a new empty checkpoint store, so every warmup is
 * simulated and written; figures-warm fills one store during set-up
 * and gives every grid a new Session over it, so every warmup is
 * read back and restored and the result cache starts empty.
 */

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "api/session.hh"
#include "common/log.hh"
#include "core/report.hh"
#include "core/sim_driver.hh"
#include "perfbench.hh"
#include "snapshot/snapshot.hh"
#include "verify/golden.hh"
#include "workload/profiles.hh"

namespace perfbench {

using namespace flywheel;
namespace fs = std::filesystem;

namespace {

/**
 * Fixed so grids compare across hosts; two workers leave headroom on
 * a shared four-thread host, which keeps the spread down.
 */
constexpr unsigned kFigureJobs = 2;
/** Spec loads and Session constructions timed per run. */
constexpr std::size_t kSetupSamples = 41;
/** A grid simulates ~130 cells, so p90 leaves more than ten beyond. */
constexpr double kFigureTailPercentile = 90.0;

unsigned
figureJobs()
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(kFigureJobs, hw);
}

SessionOptions
sessionOptions(const std::string &checkpoint_dir)
{
    SessionOptions o;
    o.jobs = figureJobs();
    o.checkpointDir = checkpoint_dir;
    return o;
}

/** One pass over the five specs. */
struct Grid
{
    std::vector<SweepTable> tables;
    double wallS = 0.0;  ///< first Session::run to the last table
};

Grid
runGrid(Session &session, const std::vector<ExperimentSpec> &specs,
        SpanRecorder &spans, std::uint64_t id)
{
    Grid g;
    const auto t0 = Clock::now();
    for (const ExperimentSpec &spec : specs) {
        auto s = spans.scope("sweep.run", id);
        g.tables.push_back(session.run(spec));
    }
    g.wallS = secondsBetween(t0, Clock::now());
    return g;
}

std::string
tableBytes(const SweepTable &table)
{
    std::ostringstream os;
    table.writeJson(os);
    return os.str();
}

/** Per-grid aggregates over the simulated (non-cache-hit) cells. */
struct GridStats
{
    std::vector<double> cellS;
    double instrs = 0, runS = 0, warmupS = 0, restoreS = 0, reduceS = 0;
    double beCycles = 0, baseCycles = 0;
    CoreStats stats, flywheel;
    EnergyEvents events;
    double busy = 0, budget = 0, cells = 0, hits = 0;
    double ckptComputes = 0, diskHits = 0, bytesWritten = 0, bytesRead = 0;
};

GridStats
gridStats(const Grid &g)
{
    GridStats s;
    for (const SweepTable &table : g.tables) {
        const SweepTelemetry &t = table.telemetry();
        s.busy += t.poolBusySeconds;
        s.budget += t.wallSeconds * double(t.jobs);
        s.cells += double(t.cells);
        s.hits += double(t.cacheHits);
        s.ckptComputes += double(t.checkpointComputes);
        s.diskHits += double(t.checkpointDiskHits);
        s.bytesWritten += double(t.checkpointBytesWritten);
        s.bytesRead += double(t.checkpointBytesRead);
        for (const SweepRecord &rec : table.rows()) {
            if (rec.fromCache)
                continue;
            const RunResult &r = rec.result;
            const RunTelemetry &tel = r.telemetry;
            s.cellS.push_back(rec.wallSeconds);
            s.instrs += double(r.instructions);
            s.runS += tel.measureSeconds;
            s.warmupS += tel.warmupSeconds;
            if (tel.warmupRestored)
                s.restoreS += tel.warmupSeconds;
            s.reduceS += tel.reduceSeconds;
            s.beCycles += double(r.events.beCycles);
            s.baseCycles +=
                double(r.timePs) / rec.point.config.params.basePeriodPs;
            s.stats += r.stats;
            s.events += r.events;
            if (rec.point.kind == CoreKind::Flywheel)
                s.flywheel += r.stats;
        }
    }
    return s;
}

/**
 * Compare @p got against @p want table by table; every differing row
 * is one failed cell (a differing table with equal rows counts once).
 */
void
compareGrids(const Grid &want, const Grid &got, const std::string &what,
             WorkloadResult *out)
{
    for (std::size_t i = 0; i < want.tables.size(); ++i) {
        if (tableBytes(want.tables[i]) == tableBytes(got.tables[i]))
            continue;
        std::size_t rows = 0;
        const auto &a = want.tables[i].rows();
        const auto &b = got.tables[i].rows();
        for (std::size_t r = 0; r < std::min(a.size(), b.size()); ++r) {
            if (toJson(a[r].result).dump() != toJson(b[r].result).dump()) {
                out->fail(std::string(kFigureSpecs[i]) + " " +
                          a[r].point.bench + ": " + what);
                ++rows;
            }
        }
        if (rows == 0)
            out->fail(std::string(kFigureSpecs[i]) + ": table bytes " + what);
    }
}

void
checkInstructions(const Grid &g, WorkloadResult *out)
{
    for (std::size_t i = 0; i < g.tables.size(); ++i)
        for (const SweepRecord &rec : g.tables[i].rows())
            if (!retiredAsRequested(rec.result.instructions,
                                    rec.point.config.measureInstrs,
                                    rec.point.config.params))
                out->fail(std::string(kFigureSpecs[i]) + " " +
                          rec.point.bench + ": retired " +
                          std::to_string(rec.result.instructions) +
                          " instructions");
}

struct StoreProbe
{
    double payload = 0, encodeS = 0, decodeS = 0;
};

/** Snapshot::readFile and serialize over every file in @p dir. */
StoreProbe
probeStore(const std::string &dir, WorkloadResult *out)
{
    StoreProbe p;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        Snapshot snap;
        std::string error;
        auto t0 = Clock::now();
        if (!Snapshot::readFile(entry.path().string(), &snap, &error)) {
            out->fail("checkpoint store: " + error);
            continue;
        }
        p.decodeS += secondsBetween(t0, Clock::now());
        t0 = Clock::now();
        const std::string bytes = snap.serialize();
        p.encodeS += secondsBetween(t0, Clock::now());
        p.payload += double(snap.payloadBytes());
    }
    return p;
}

} // namespace

WorkloadResult
runFiguresWorkload(const RunOptions &opts, SpanRecorder &spans)
{
    const bool warm = opts.workload == "figures-warm";
    WorkloadResult out;
    std::vector<ExperimentSpec> specs;
    std::string error;
    std::vector<double> setup_s, spec_load_s;

    // ---- set-up ---------------------------------------------------------
    const std::string store = opts.workDir + "/store";
    Grid cold;  // figures-warm: the grid that filled the store
    double fill_s = 0.0;
    if (warm) {
        auto s = spans.scope("setup", 0);
        const auto t0 = Clock::now();
        {
            auto a = spans.scope("api.load", 0);
            if (!loadFigureSpecs(opts.root, &specs, &error))
                FW_FATAL("%s", error.c_str());
        }
        spec_load_s.push_back(secondsBetween(t0, Clock::now()));
        Session session(sessionOptions(store));
        cold = runGrid(session, specs, spans, 0);
        fill_s = secondsBetween(t0, Clock::now());
        checkInstructions(cold, &out);
    }

    // ---- timed grids ----------------------------------------------------
    std::vector<Grid> grids;
    std::vector<std::string> dirs;
    const auto start = Clock::now();
    for (unsigned rep = 0;; ++rep) {
        if (rep > 0) {
            const double elapsed = secondsBetween(start, Clock::now());
            if (elapsed + grids.back().wallS + setup_s.back() > opts.seconds)
                break;
        }
        const std::uint64_t id = rep + 1;
        auto gs = spans.scope("grid", id);
        const std::string dir =
            warm ? store : opts.workDir + "/store-" + std::to_string(rep);
        const auto t0 = Clock::now();
        {
            auto s = spans.scope("api.load", id);
            if (!loadFigureSpecs(opts.root, &specs, &error))
                FW_FATAL("%s", error.c_str());
        }
        const auto t1 = Clock::now();
        std::unique_ptr<Session> session;
        {
            auto s = spans.scope("session.make", id);
            session = std::make_unique<Session>(sessionOptions(dir));
        }
        setup_s.push_back(secondsBetween(t0, Clock::now()));
        spec_load_s.push_back(secondsBetween(t0, t1));
        grids.push_back(runGrid(*session, specs, spans, id));
        for (const SweepTable &t : grids.back().tables)
            out.attempted += t.size();
        if (!warm)
            dirs.push_back(dir);
    }
    // More set-up samples than grids, so its median is steady.
    while (setup_s.size() < kSetupSamples) {
        const std::string dir = opts.workDir + "/store-setup";
        const auto t0 = Clock::now();
        std::vector<ExperimentSpec> loaded;
        if (!loadFigureSpecs(opts.root, &loaded, &error))
            FW_FATAL("%s", error.c_str());
        const auto t1 = Clock::now();
        Session session(sessionOptions(warm ? store : dir));
        setup_s.push_back(secondsBetween(t0, Clock::now()));
        spec_load_s.push_back(secondsBetween(t0, t1));
    }
    fs::remove_all(opts.workDir + "/store-setup");
    // The last cold store stays for the snapshot probe; older ones go.
    for (std::size_t i = 0; i + 1 < dirs.size(); ++i)
        fs::remove_all(dirs[i]);

    // ---- correctness gate, outside the timed grids -----------------------
    {
        auto s = spans.scope("checks", 0);
        for (const Grid &g : grids)
            checkInstructions(g, &out);
        if (warm) {
            for (const Grid &g : grids)
                compareGrids(cold, g, "warm table differs from cold", &out);
        } else {
            if (grids.size() < 2) {
                Session again(sessionOptions(opts.workDir + "/store-again"));
                SpanRecorder quiet(false);
                grids.push_back(runGrid(again, specs, quiet, 0));
                fs::remove_all(opts.workDir + "/store-again");
            }
            for (std::size_t i = 1; i < grids.size(); ++i)
                compareGrids(grids[0], grids[i],
                             "differs between cold grids", &out);
        }
        GoldenOptions golden;
        golden.jobs = figureJobs();
        for (const GoldenDiff &d :
             checkGoldenFiles(opts.root + "/tests/golden", golden)) {
            if (d.ok())
                continue;
            std::string why = "golden " + d.figure + ":";
            for (const std::string &line : d.differences)
                why += "\n  " + line;
            out.fail(why);
        }
        out.attempted += goldenFigureNames().size();
    }

    // ---- end-to-end -------------------------------------------------------
    std::vector<GridStats> gstats;
    const std::size_t timed = warm ? grids.size() : dirs.size();
    for (std::size_t i = 0; i < timed; ++i)
        gstats.push_back(gridStats(grids[i]));
    const auto per_grid = [&](auto f) {
        std::vector<double> v;
        for (const GridStats &g : gstats)
            v.push_back(f(g));
        return median(v);
    };
    std::vector<double> cell_s;
    for (const GridStats &g : gstats)
        cell_s.insert(cell_s.end(), g.cellS.begin(), g.cellS.end());

    auto &m = out.metrics;
    double instrs = 0, run_s = 0;
    for (const GridStats &g : gstats) {
        instrs += g.instrs;
        run_s += g.runS;
    }
    m["sim_minstr_per_s"] = instrs / run_s / 1e6;
    std::vector<double> walls;
    for (std::size_t i = 0; i < timed; ++i)
        walls.push_back(grids[i].wallS);
    m["grid_s"] = median(walls);
    out.samples["grid_s"] = walls;
    out.samples["setup_s"] = setup_s;
    out.samples["cell_s"] = cell_s;
    {
        std::vector<double> v;
        for (const GridStats &g : gstats)
            v.push_back(g.instrs / g.runS / 1e6);
        out.samples["grid_minstr_per_s"] = v;
    }
    m["cell_s_p50"] = median(cell_s);
    m["cell_s_tail"] = percentile(cell_s, kFigureTailPercentile);
    // figures-warm pays the store fill once; a grid's own set-up is
    // the spec load and the Session.
    m["setup_s"] = warm ? fill_s + median(setup_s) : median(setup_s);
    out.notes.push_back({"grids", std::to_string(timed)});
    out.notes.push_back({"workers", std::to_string(figureJobs())});
    out.notes.push_back({"cell_s_tail",
                         "p" + std::to_string(int(kFigureTailPercentile)) +
                             " of " + std::to_string(cell_s.size()) +
                             " simulated cells"});

    // ---- per-layer ---------------------------------------------------------
    const GridStats &g0 = gstats.front();
    m["core.run_s"] = per_grid([](const GridStats &g) { return g.runS; });
    m["core.warmup_s"] =
        per_grid([](const GridStats &g) { return g.warmupS; });
    m["core.ns_per_be_cycle"] =
        per_grid([](const GridStats &g) { return g.runS * 1e9 / g.beCycles; });
    m["core.ns_per_instr"] =
        per_grid([](const GridStats &g) { return g.runS * 1e9 / g.instrs; });
    reportCoreCounts(g0.stats, g0.flywheel, g0.events, g0.baseCycles, &m);
    m["power.reduce_s"] =
        per_grid([](const GridStats &g) { return g.reduceS; });
    m["snapshot.warmups_computed"] = g0.ckptComputes;
    m["snapshot.disk_hits"] = g0.diskHits;
    m["snapshot.bytes_written"] = g0.bytesWritten;
    m["snapshot.bytes_read"] = g0.bytesRead;
    m["snapshot.restore_s"] =
        per_grid([](const GridStats &g) { return g.restoreS; });
    m["sweep.busy_s"] = per_grid([](const GridStats &g) { return g.busy; });
    m["sweep.idle_s"] =
        per_grid([](const GridStats &g) { return g.budget - g.busy; });
    m["sweep.utilization"] =
        per_grid([](const GridStats &g) { return g.busy / g.budget; });
    m["sweep.cache_hit_ratio"] = ratio(g0.hits, g0.cells);
    m["api.spec_load_s"] = median(spec_load_s);

    std::map<std::string, const SweepTable *> tables;
    for (std::size_t i = 0; i < grids.front().tables.size(); ++i)
        tables[kFigureSpecs[i]] = &grids.front().tables[i];
    const std::vector<PaperTarget> targets = paperTargets(tables);
    for (const PaperTarget &t : targets) {
        m[t.metric] = std::abs(t.gap());
        char line[96];
        std::snprintf(line, sizeof line, "model %.3f, paper %.2f",
                      t.model, t.paper);
        out.notes.push_back({t.metric, line});
    }
    m["paper.gap_max"] = paperGapMax(targets);

    if (opts.trace) {
        auto ps = spans.scope("probe", 0);
        // The figures' programs: the calibrated profiles, the default
        // stream seed and the default run lengths.
        ReplayProbe replay;
        std::vector<double> build_s, make_s;
        std::uint64_t id = 0;
        for (const BenchProfile &profile : paperBenchmarks()) {
            auto t0 = Clock::now();
            StaticProgram program(profile);
            build_s.push_back(secondsBetween(t0, Clock::now()));
            for (CoreKind kind : {CoreKind::Baseline, CoreKind::Flywheel}) {
                RunConfig config;
                config.profile = profile;
                config.kind = kind;
                config.params = clockedParams(1.0, 0.5);
                WorkloadStream stream(program);
                t0 = Clock::now();
                std::unique_ptr<CoreBase> core = makeCore(config, stream);
                make_s.push_back(secondsBetween(t0, Clock::now()));
            }
            replay.add(program, 0xfeedULL, defaultWarmupInstrs(),
                       defaultMeasureInstrs(), clockedParams(0.0, 0.0), spans,
                       id++);
        }
        m["workload.build_s"] = median(build_s);
        m["core.make_s"] = median(make_s);
        replay.report(&m);
        StoreProbe sp;
        {
            auto s = spans.scope("probe.snapshot", 0);
            sp = probeStore(warm ? store : dirs.back(), &out);
        }
        m["snapshot.decode_mb_per_s"] = sp.payload / sp.decodeS / 1e6;
        m["snapshot.encode_mb_per_s"] = sp.payload / sp.encodeS / 1e6;
    }
    return out;
}

} // namespace perfbench
