/**
 * @file
 * Metric catalog, statistics, the span recorder and process probes.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "perfbench.hh"

namespace perfbench {

using flywheel::Json;

const char *const kWorkloadNames[4] = {"cell-baseline", "cell-flywheel",
                                       "figures-cold", "figures-warm"};

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sim_minstr_per_s", "Minstr/s", "higher"},
        {"grid_s", "s", "lower"},
        {"cell_s_p50", "s", "lower"},
        {"cell_s_tail", "s", "lower"},
        {"setup_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"core.run_s", "s", "lower"},
        {"core.ns_per_be_cycle", "ns", "lower"},
        {"core.ns_per_instr", "ns", "lower"},
        {"core.warmup_s", "s", "lower"},
        {"core.make_s", "s", "lower"},
        {"core.ipc", "instr/cycle", "higher"},
        {"core.iw_issue_share", "ratio", "lower"},
        {"core.iw_full_stalls", "count", "lower"},
        {"core.rob_full_stalls", "count", "lower"},
        {"core.lsq_full_stalls", "count", "lower"},
        {"core.rename_stalls", "count", "lower"},
        {"flywheel.ec_residency", "ratio", "higher"},
        {"flywheel.ec_hit_ratio", "ratio", "higher"},
        {"flywheel.trace_divergence_ratio", "ratio", "lower"},
        {"flywheel.redistributions", "count", "higher"},
        {"flywheel.checkpoint_stall_cycles", "count", "lower"},
        {"workload.build_s", "s", "lower"},
        {"workload.gen_ns_per_instr", "ns", "lower"},
        {"workload.gen_share_of_run", "ratio", "lower"},
        {"branch.mispredict_ratio", "ratio", "lower"},
        {"branch.btb_miss_bubbles", "count", "lower"},
        {"branch.ns_per_lookup", "ns", "lower"},
        {"mem.l1i_miss_ratio", "ratio", "lower"},
        {"mem.l1d_miss_ratio", "ratio", "lower"},
        {"mem.l2_miss_ratio", "ratio", "lower"},
        {"mem.ns_per_access", "ns", "lower"},
        {"power.reduce_s", "s", "lower"},
        {"snapshot.warmups_computed", "count", "lower"},
        {"snapshot.disk_hits", "count", "higher"},
        {"snapshot.bytes_written", "B", "lower"},
        {"snapshot.bytes_read", "B", "lower"},
        {"snapshot.restore_s", "s", "lower"},
        {"snapshot.decode_mb_per_s", "MB/s", "higher"},
        {"snapshot.encode_mb_per_s", "MB/s", "higher"},
        {"sweep.busy_s", "s", "lower"},
        {"sweep.utilization", "ratio", "higher"},
        {"sweep.idle_s", "s", "lower"},
        {"sweep.cache_hit_ratio", "ratio", "higher"},
        {"api.spec_load_s", "s", "lower"},
        {"paper.gap_max", "ratio", "lower"},
        {"paper.fig11_flywheel", "ratio", "lower"},
        {"paper.fig11_residency", "ratio", "lower"},
        {"paper.fig12_fe0", "ratio", "lower"},
        {"paper.fig12_fe50", "ratio", "lower"},
        {"paper.fig12_fe100", "ratio", "lower"},
        {"paper.fig13_energy", "ratio", "lower"},
        {"paper.fig14_fe0", "ratio", "lower"},
        {"paper.fig14_fe100", "ratio", "lower"},
        {"paper.fig15_130nm", "ratio", "lower"},
        {"paper.fig15_60nm", "ratio", "lower"},
    };
    return defs;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * double(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

// ---- spans -----------------------------------------------------------------

SpanRecorder::Scope
SpanRecorder::scope(const char *name, std::uint64_t id)
{
    if (!enabled_)
        return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.id = id;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = secondsBetween(epoch_, Clock::now());
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size() - 1);
    open_.push_back(index);
    return Scope(this, index);
}

SpanRecorder::Scope::~Scope()
{
    if (recorder_ == nullptr)
        return;
    recorder_->spans_[index_].end =
        secondsBetween(recorder_->epoch_, Clock::now());
    // Scopes nest lexically, so the closing span is the innermost.
    recorder_->open_.pop_back();
}

std::vector<SpanRecorder::SelfTime>
SpanRecorder::selfTimes() const
{
    // Spans are recorded from one thread and nest strictly, so the
    // time children cover is the sum of their durations.
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[s.parent] += s.end - s.start;

    std::map<std::string, SelfTime> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        SelfTime &row = by_name[spans_[i].name];
        row.name = spans_[i].name;
        ++row.count;
        const double dur = spans_[i].end - spans_[i].start;
        row.totalSeconds += dur;
        row.selfSeconds += dur - child[i];
    }
    std::vector<SelfTime> rows;
    for (auto &kv : by_name)
        rows.push_back(kv.second);
    std::sort(rows.begin(), rows.end(),
              [](const SelfTime &a, const SelfTime &b) {
                  return a.selfSeconds > b.selfSeconds;
              });
    return rows;
}

Json
SpanRecorder::chromeJson() const
{
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        Json ev = Json::object();
        ev.add("name", Json(s.name));
        ev.add("cat", Json("perfbench"));
        ev.add("ph", Json("X"));
        ev.add("ts", Json(s.start * 1e6));
        ev.add("dur", Json((s.end - s.start) * 1e6));
        ev.add("pid", Json(1));
        ev.add("tid", Json(1));
        Json args = Json::object();
        args.add("span", Json(std::uint64_t(i)));
        args.add("id", Json(s.id));
        args.add("parent", Json(std::int64_t(s.parent)));
        ev.add("args", std::move(args));
        events.push(std::move(ev));
    }
    Json doc = Json::object();
    doc.add("schema", Json("perfbench.spans.v1"));
    doc.add("displayTimeUnit", Json("ms"));
    doc.add("traceEvents", std::move(events));
    return doc;
}

// ---- simulated counts ------------------------------------------------------

void
reportCoreCounts(const flywheel::CoreStats &all,
                 const flywheel::CoreStats &fw,
                 const flywheel::EnergyEvents &events, double base_cycles,
                 std::map<std::string, double> *metrics)
{
    auto &m = *metrics;
    m["core.ipc"] = ratio(double(all.retired), base_cycles);
    m["core.iw_issue_share"] =
        ratio(double(events.iwIssues), double(all.retired));
    m["core.iw_full_stalls"] = double(all.iwFullStalls);
    m["core.rob_full_stalls"] = double(all.robFullStalls);
    m["core.lsq_full_stalls"] = double(all.lsqFullStalls);
    m["core.rename_stalls"] = double(all.renameStalls);
    m["flywheel.ec_residency"] =
        ratio(double(fw.ecRetired), double(fw.retired));
    m["flywheel.ec_hit_ratio"] = ratio(double(fw.ecHits), double(fw.ecLookups));
    m["flywheel.trace_divergence_ratio"] =
        ratio(double(fw.traceDivergences), double(fw.tracesBuilt));
    m["flywheel.redistributions"] = double(fw.redistributions);
    m["flywheel.checkpoint_stall_cycles"] = double(fw.checkpointStallCycles);
    m["branch.mispredict_ratio"] =
        ratio(double(all.mispredicts), double(all.condBranches));
    m["branch.btb_miss_bubbles"] = double(all.btbMissBubbles);
}

// ---- process ---------------------------------------------------------------

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

} // namespace perfbench
