/**
 * @file
 * Replay probes: feed one program's dynamic stream to the workload,
 * branch and memory layers' public functions, outside any core, and
 * time them per operation.  The warmup part of the stream only
 * trains the components; counts and times cover the measured part.
 */

#include <vector>

#include "branch/btb.hh"
#include "branch/gshare.hh"
#include "mem/hierarchy.hh"
#include "perfbench.hh"
#include "workload/generator.hh"

namespace perfbench {

using namespace flywheel;

namespace {

/** Keeps replayed results observable so the loops are not elided. */
volatile std::uint64_t gSink = 0;

/** The branch and address streams one program produced. */
struct StreamTrace
{
    struct Branch
    {
        Addr pc;
        Addr target;
        bool cond;
        bool taken;
    };
    struct Data
    {
        Addr addr;
        bool write;
    };
    std::vector<Addr> fetches;  ///< first PC of each fetch group
    std::vector<Data> data;
    std::vector<Branch> branches;
    // Index of the first measured entry in each list.
    std::size_t fetchBegin = 0, dataBegin = 0, branchBegin = 0;
};

StreamTrace
recordStream(const StaticProgram &program, std::uint64_t seed,
             std::uint64_t warmup, std::uint64_t measure,
             unsigned fetch_width)
{
    StreamTrace t;
    WorkloadStream stream(program, seed);
    unsigned in_group = 0;
    for (std::uint64_t i = 0; i < warmup + measure; ++i) {
        if (i == warmup) {
            t.fetchBegin = t.fetches.size();
            t.dataBegin = t.data.size();
            t.branchBegin = t.branches.size();
            in_group = 0;
        }
        const DynInst &d = stream.next();
        // Fetch reads one line per group; a group ends at the fetch
        // width or at a taken branch, as in the core's fetch stage.
        if (in_group == 0)
            t.fetches.push_back(d.pc);
        const bool ends_group =
            (d.isBranch() && d.taken) || in_group + 1 == fetch_width;
        in_group = ends_group ? 0 : in_group + 1;
        if (d.isLoad() || d.isStore())
            t.data.push_back({d.effAddr, d.isStore()});
        if (d.isBranch())
            t.branches.push_back({d.pc, d.target, d.isCondBranch, d.taken});
    }
    return t;
}

} // namespace

void
ReplayProbe::add(const StaticProgram &program, std::uint64_t stream_seed,
                 std::uint64_t warmup, std::uint64_t measure,
                 const CoreParams &params, SpanRecorder &spans,
                 std::uint64_t id)
{
    {
        // Generator: the whole stream the cell consumed.
        auto s = spans.scope("probe.workload", id);
        WorkloadStream stream(program, stream_seed);
        std::uint64_t acc = 0;
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < warmup + measure; ++i)
            acc += stream.next().pc;
        genSeconds_ += secondsBetween(t0, Clock::now());
        genInstrs_ += double(warmup + measure);
        gSink = gSink + acc;
    }

    StreamTrace t;
    {
        auto s = spans.scope("probe.record", id);
        t = recordStream(program, stream_seed, warmup, measure,
                         params.fetchWidth);
    }

    {
        // Branch: predict + train at once, as fetch and retire do.
        auto s = spans.scope("probe.branch", id);
        Arena arena;
        Gshare gshare(arena, params.bpred);
        Btb btb(arena, params.btb);
        std::uint64_t lookups = 0, acc = 0;
        const auto replay = [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                const StreamTrace::Branch &b = t.branches[i];
                if (b.cond) {
                    acc += gshare.predict(b.pc);
                    const std::uint16_t history = gshare.history();
                    gshare.pushHistory(b.taken);
                    gshare.update(b.pc, history, b.taken);
                    ++lookups;
                }
                if (b.taken) {
                    acc += btb.lookup(b.pc).has_value();
                    btb.update(b.pc, b.target);
                    ++lookups;
                }
            }
        };
        replay(0, t.branchBegin);
        lookups = 0;
        const auto t0 = Clock::now();
        replay(t.branchBegin, t.branches.size());
        branchSeconds_ += secondsBetween(t0, Clock::now());
        branchLookups_ += double(lookups);
        gSink = gSink + acc;
    }

    {
        auto s = spans.scope("probe.mem", id);
        Arena arena;
        MemoryHierarchy hier(arena, params.mem);
        for (std::size_t i = 0; i < t.fetchBegin; ++i)
            hier.fetch(t.fetches[i]);
        for (std::size_t i = 0; i < t.dataBegin; ++i)
            hier.data(t.data[i].addr, t.data[i].write);
        const Cache *caches[3] = {&hier.icache(), &hier.dcache(), &hier.l2()};
        std::uint64_t acc0[3], miss0[3];
        for (int c = 0; c < 3; ++c) {
            acc0[c] = caches[c]->accesses();
            miss0[c] = caches[c]->misses();
        }
        const auto t0 = Clock::now();
        for (std::size_t i = t.fetchBegin; i < t.fetches.size(); ++i)
            hier.fetch(t.fetches[i]);
        for (std::size_t i = t.dataBegin; i < t.data.size(); ++i)
            hier.data(t.data[i].addr, t.data[i].write);
        memSeconds_ += secondsBetween(t0, Clock::now());
        memAccesses_ += double(t.fetches.size() - t.fetchBegin) +
                       double(t.data.size() - t.dataBegin);
        for (int c = 0; c < 3; ++c) {
            cacheAccesses_[c] += double(caches[c]->accesses() - acc0[c]);
            cacheMisses_[c] += double(caches[c]->misses() - miss0[c]);
        }
    }
}

void
ReplayProbe::report(std::map<std::string, double> *m) const
{
    auto &out = *m;
    out["workload.gen_ns_per_instr"] = ratio(genSeconds_ * 1e9, genInstrs_);
    out["workload.gen_share_of_run"] =
        ratio(out["workload.gen_ns_per_instr"], out["core.ns_per_instr"]);
    out["branch.ns_per_lookup"] = ratio(branchSeconds_ * 1e9, branchLookups_);
    out["mem.l1i_miss_ratio"] = ratio(cacheMisses_[0], cacheAccesses_[0]);
    out["mem.l1d_miss_ratio"] = ratio(cacheMisses_[1], cacheAccesses_[1]);
    out["mem.l2_miss_ratio"] = ratio(cacheMisses_[2], cacheAccesses_[2]);
    out["mem.ns_per_access"] = ratio(memSeconds_ * 1e9, memAccesses_);
}

double
probeSpecLoad(const std::string &root, unsigned repeats,
              WorkloadResult *out)
{
    std::vector<double> times;
    for (unsigned i = 0; i < repeats; ++i) {
        std::vector<ExperimentSpec> specs;
        std::string error;
        const auto t0 = Clock::now();
        const bool ok = loadFigureSpecs(root, &specs, &error);
        times.push_back(secondsBetween(t0, Clock::now()));
        if (!ok) {
            out->fail("spec load: " + error);
            break;
        }
    }
    return median(times);
}

} // namespace perfbench
