/**
 * @file
 * The cell-baseline and cell-flywheel workloads: one thread runs the
 * ten reseeded paper programs, one long detailed cell at a time, in
 * passes until the time budget is spent (a closed loop with one
 * worker).  The traced run adds replay probes that feed the workload,
 * branch, memory and snapshot layers the inputs each cell consumed.
 */

#include <cstdio>
#include <fstream>
#include <memory>

#include "core/report.hh"
#include "core/sim_driver.hh"
#include "perfbench.hh"
#include "snapshot/snapshot.hh"
#include "verify/differential.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace perfbench {

using namespace flywheel;

namespace {

constexpr std::uint64_t kWarmupInstrs = 100000;
/**
 * Five times the warmup, so per-cell set-up stays small beside the
 * window, and short enough that a run covers several program sets.
 */
constexpr std::uint64_t kCellInstrs = 500000;
/** Short cross-check of each reseeded program (outside the timing). */
constexpr std::uint64_t kDiffInstrs = 20000;
/** Cells per run are 100 or more, so p90 leaves ten beyond it. */
constexpr double kCellTailPercentile = 90.0;

/** One simulated cell; members are declared so the core dies first. */
struct Cell
{
    std::unique_ptr<StaticProgram> program;
    std::unique_ptr<WorkloadStream> stream;
    std::unique_ptr<CoreBase> core;
    RunResult result;
    double buildS = 0.0, makeS = 0.0, warmupS = 0.0, runS = 0.0;
    double reduceS = 0.0, totalS = 0.0;
};

RunConfig
cellConfig(const CellProgram &program, CoreKind kind)
{
    RunConfig config;
    config.profile = program.profile;
    config.kind = kind;
    // The paper's headline Flywheel clock: FE +100%, BE +50%.
    config.params = kind == CoreKind::Baseline ? clockedParams(0.0, 0.0)
                                               : clockedParams(1.0, 0.5);
    config.warmupInstrs = kWarmupInstrs;
    config.measureInstrs = kCellInstrs;
    return config;
}

Cell
runCell(const RunConfig &config, std::uint64_t stream_seed,
        SpanRecorder &spans, std::uint64_t id)
{
    Cell cell;
    auto cell_span = spans.scope("cell", id);
    const auto t0 = Clock::now();
    {
        auto s = spans.scope("workload.build", id);
        cell.program = std::make_unique<StaticProgram>(config.profile);
    }
    const auto t1 = Clock::now();
    {
        auto s = spans.scope("core.make", id);
        cell.stream =
            std::make_unique<WorkloadStream>(*cell.program, stream_seed);
        cell.core = makeCore(config, *cell.stream);
    }
    const auto t2 = Clock::now();
    {
        auto s = spans.scope("core.warmup", id);
        runSimWarmup(config, *cell.core, nullptr);
    }
    const auto t3 = Clock::now();
    EnergyEvents events;
    CoreStats stats;
    forEachMeasureWindow(
        config, *cell.stream, cell.core,
        [&](CoreBase &core, std::uint64_t instrs) {
            auto s = spans.scope("core.run", id);
            const EnergyEvents events0 = core.events();
            const CoreStats stats0 = core.stats();
            const auto w0 = Clock::now();
            core.run(instrs);
            cell.runS += secondsBetween(w0, Clock::now());
            events += core.events() - events0;
            stats += core.stats() - stats0;
        });
    const auto t4 = Clock::now();
    {
        auto s = spans.scope("power.reduce", id);
        cell.result = reduceToResult(config, events, stats);
    }
    const auto t5 = Clock::now();
    cell.buildS = secondsBetween(t0, t1);
    cell.makeS = secondsBetween(t1, t2);
    cell.warmupS = secondsBetween(t2, t3);
    cell.reduceS = secondsBetween(t4, t5);
    cell.totalS = secondsBetween(t0, t5);
    return cell;
}

// ---- snapshot probe --------------------------------------------------------

struct SnapProbe
{
    std::uint64_t payloadBytes = 0;
    std::uint64_t fileBytes = 0;
    double encodeS = 0.0, decodeS = 0.0, restoreS = 0.0;
    bool roundTrips = false;
};

/**
 * Save the cell's final state, write and read it back through the
 * on-disk container, and restore it into a fresh core.
 */
SnapProbe
probeSnapshot(const Cell &cell, const RunConfig &config,
              std::uint64_t stream_seed, const std::string &path)
{
    SnapProbe p;
    Snapshot snap;
    cell.core->save(snap);
    p.payloadBytes = snap.payloadBytes();
    auto t0 = Clock::now();
    const std::string bytes = snap.serialize();
    p.encodeS = secondsBetween(t0, Clock::now());
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), std::streamsize(bytes.size()));
    }
    p.fileBytes = bytes.size();

    Snapshot back;
    std::string error;
    t0 = Clock::now();
    const bool read = Snapshot::readFile(path, &back, &error);
    p.decodeS = secondsBetween(t0, Clock::now());
    std::remove(path.c_str());
    if (!read)
        return p;

    WorkloadStream stream(*cell.program, stream_seed);
    std::unique_ptr<CoreBase> core = makeCore(config, stream);
    t0 = Clock::now();
    core->restore(back);
    p.restoreS = secondsBetween(t0, Clock::now());
    p.roundTrips = back.contentHash() == snap.contentHash() &&
                   core->stats().retired == cell.core->stats().retired &&
                   core->elapsedPs() == cell.core->elapsedPs();
    return p;
}

/** splitmix64 of the workload seed and a stream index. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

std::vector<CellProgram>
cellPrograms(std::uint64_t seed, unsigned set)
{
    std::vector<CellProgram> out;
    std::uint64_t index = 2 * std::uint64_t(set) * paperBenchmarks().size();
    for (const BenchProfile &base : paperBenchmarks()) {
        CellProgram p;
        p.profile = base;
        p.profile.seed = deriveSeed(seed, index++);
        p.streamSeed = deriveSeed(seed, index++);
        out.push_back(p);
    }
    return out;
}

WorkloadResult
runCellWorkload(const RunOptions &opts, SpanRecorder &spans)
{
    const CoreKind kind = opts.workload == "cell-flywheel"
        ? CoreKind::Flywheel
        : CoreKind::Baseline;
    const std::size_t n = paperBenchmarks().size();

    WorkloadResult out;
    // Passes run in pairs over one program set: every cell runs twice,
    // which is the determinism check, and a run still averages over
    // several reseeded sets, so one set's programs do not set the
    // throughput.
    std::vector<CellProgram> programs;
    std::vector<std::string> first(n);

    struct Pass
    {
        double instrs = 0, runS = 0, warmupS = 0, reduceS = 0;
        double setupS = 0, busyS = 0, wallS = 0;
    };
    std::vector<Pass> passes;
    std::vector<double> cell_s, make_s, build_s;
    double total_run_s = 0, total_instrs = 0, total_be_cycles = 0;
    std::vector<RunResult> first_pass;
    double base_period_ps = 0;

    // Traced run only: replay probes over the first pass's cells.
    ReplayProbe replay;
    SnapProbe snap_total;
    std::uint64_t snap_cells = 0;

    const auto start = Clock::now();
    for (unsigned pass = 0;; ++pass) {
        if (pass % 2 == 0 && pass > 0) {
            // A pair starts only if both of its passes fit.
            const double elapsed = secondsBetween(start, Clock::now());
            if (elapsed + 2 * passes.back().wallS > opts.seconds)
                break;
        }
        if (pass % 2 == 0)
            programs = cellPrograms(opts.seed, pass / 2);
        Pass p;
        double probe_s = 0;
        const auto pass_start = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t id = pass * n + i;
            const RunConfig config = cellConfig(programs[i], kind);
            ++out.attempted;
            Cell cell = runCell(config, programs[i].streamSeed, spans, id);
            const RunResult &r = cell.result;

            const std::string name = programs[i].profile.name;
            if (!retiredAsRequested(r.instructions, config.measureInstrs,
                                    config.params))
                out.fail(name + ": retired " +
                         std::to_string(r.instructions) + " of " +
                         std::to_string(config.measureInstrs));
            const std::string json = toJson(r).dump();
            if (pass % 2 == 0)
                first[i] = json;
            else if (json != first[i])
                out.fail(name + ": RunResult differs between passes");

            p.instrs += double(r.instructions);
            p.runS += cell.runS;
            p.warmupS += cell.warmupS;
            p.reduceS += cell.reduceS;
            p.setupS += cell.buildS + cell.makeS + cell.warmupS;
            p.busyS += cell.totalS;
            cell_s.push_back(cell.totalS);
            make_s.push_back(cell.makeS);
            build_s.push_back(cell.buildS);
            total_run_s += cell.runS;
            total_instrs += double(r.instructions);
            total_be_cycles += double(r.events.beCycles);
            if (pass == 0) {
                first_pass.push_back(r);
                base_period_ps = config.params.basePeriodPs;
            }

            if (opts.trace && pass == 0) {
                const auto probe_start = Clock::now();
                auto ps = spans.scope("probe", id);
                replay.add(*cell.program, programs[i].streamSeed,
                           kWarmupInstrs, kCellInstrs, config.params, spans,
                           id);
                {
                    auto s = spans.scope("probe.snapshot", id);
                    const SnapProbe sp = probeSnapshot(
                        cell, config, programs[i].streamSeed,
                        opts.workDir + "/cell.snap");
                    if (!sp.roundTrips)
                        out.fail(name + ": snapshot round trip differs");
                    snap_total.payloadBytes += sp.payloadBytes;
                    snap_total.fileBytes += sp.fileBytes;
                    snap_total.encodeS += sp.encodeS;
                    snap_total.decodeS += sp.decodeS;
                    snap_total.restoreS += sp.restoreS;
                    ++snap_cells;
                }
                probe_s += secondsBetween(probe_start, Clock::now());
            }
        }
        p.wallS = secondsBetween(pass_start, Clock::now()) - probe_s;
        passes.push_back(p);
    }

    // ---- correctness gate, outside the timed passes ----------------------
    for (unsigned set = 0;
         kind == CoreKind::Flywheel && set < passes.size() / 2; ++set) {
        for (const CellProgram &program : cellPrograms(opts.seed, set)) {
            DiffOptions d;
            d.instructions = kDiffInstrs;
            d.streamSeed = program.streamSeed;
            d.params = cellConfig(program, kind).params;
            d.kind = kind;
            const DiffReport report = runDifferential(program.profile, d);
            if (!report.ok())
                out.fail(std::string(program.profile.name) +
                         ": differential check failed\n" +
                         report.summary());
        }
    }

    // ---- end-to-end -------------------------------------------------------
    std::vector<double> minstr, grid, setup;
    for (const Pass &p : passes) {
        minstr.push_back(p.instrs / p.runS / 1e6);
        grid.push_back(p.wallS);
        setup.push_back(p.setupS);
    }
    out.samples["pass_minstr_per_s"] = minstr;
    out.samples["pass_s"] = grid;
    out.samples["pass_setup_s"] = setup;
    out.samples["cell_s"] = cell_s;
    auto &m = out.metrics;
    m["sim_minstr_per_s"] = total_instrs / total_run_s / 1e6;
    m["grid_s"] = median(grid);
    m["cell_s_p50"] = median(cell_s);
    m["cell_s_tail"] = percentile(cell_s, kCellTailPercentile);
    m["setup_s"] = median(setup);
    out.notes.push_back({"passes", std::to_string(passes.size())});
    out.notes.push_back({"cell_s_tail",
                         "p" + std::to_string(int(kCellTailPercentile)) +
                             " of " + std::to_string(cell_s.size()) +
                             " cells"});

    // ---- per-layer ---------------------------------------------------------
    std::vector<double> run_s, warm_s, reduce_s, busy_s, idle_s, util;
    for (const Pass &p : passes) {
        run_s.push_back(p.runS);
        warm_s.push_back(p.warmupS);
        reduce_s.push_back(p.reduceS);
        busy_s.push_back(p.busyS);
        idle_s.push_back(p.wallS - p.busyS);
        util.push_back(p.busyS / p.wallS);
    }
    m["core.run_s"] = median(run_s);
    m["core.warmup_s"] = median(warm_s);
    m["core.make_s"] = median(make_s);
    m["core.ns_per_be_cycle"] = total_run_s * 1e9 / total_be_cycles;
    m["core.ns_per_instr"] = total_run_s * 1e9 / total_instrs;
    m["workload.build_s"] = median(build_s);
    m["power.reduce_s"] = median(reduce_s);
    m["sweep.busy_s"] = median(busy_s);
    m["sweep.idle_s"] = median(idle_s);
    m["sweep.utilization"] = median(util);
    m["sweep.cache_hit_ratio"] = 0.0;  // cells bypass the result cache

    CoreStats st;
    EnergyEvents ev;
    double base_cycles = 0;
    for (std::size_t i = 0; i < first_pass.size(); ++i) {
        st += first_pass[i].stats;
        ev += first_pass[i].events;
        base_cycles += double(first_pass[i].timePs) / base_period_ps;
    }
    // The baseline core never counts EC events, so its totals serve
    // for the flywheel.* ratios too (they read 0).
    reportCoreCounts(st, st, ev, base_cycles, &m);

    if (opts.trace) {
        replay.report(&m);
        m["snapshot.warmups_computed"] = double(n);
        m["snapshot.disk_hits"] = double(snap_cells);
        m["snapshot.bytes_written"] = double(snap_total.fileBytes);
        m["snapshot.bytes_read"] = double(snap_total.fileBytes);
        m["snapshot.restore_s"] = snap_total.restoreS;
        m["snapshot.encode_mb_per_s"] =
            double(snap_total.payloadBytes) / snap_total.encodeS / 1e6;
        m["snapshot.decode_mb_per_s"] =
            double(snap_total.payloadBytes) / snap_total.decodeS / 1e6;
        m["api.spec_load_s"] = probeSpecLoad(opts.root, 5, &out);
        // No figure grid runs here, so no paper target is evaluated.
        for (const MetricDef &d : perLayerMetrics())
            if (std::string(d.name).rfind("paper.", 0) == 0)
                m[d.name] = 0.0;
    }
    return out;
}

} // namespace perfbench
