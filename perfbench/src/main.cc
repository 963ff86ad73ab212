/**
 * @file
 * perfbench CLI: run one workload and print its result.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--root DIR] [--out DIR]
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics: the end-to-end metrics when
 * --trace 0, the per-layer metrics when --trace 1.  A human report
 * goes to stderr, and <out>/<workload>-seed<N>-trace<T>.report.json
 * keeps every metric, note and (traced) the span self-time table;
 * a traced run also writes the spans as a Chrome/Perfetto trace to
 * <out>/<workload>-seed<N>.trace.json.
 */

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/log.hh"
#include "perfbench.hh"

namespace fs = std::filesystem;
using flywheel::Json;

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--root DIR] [--out DIR]\n"
                 "workloads: cell-baseline cell-flywheel figures-cold "
                 "figures-warm\n",
                 why);
    std::exit(2);
}

bool
parseU64(const char *text, std::uint64_t *out)
{
    if (text == nullptr || *text == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || text[0] == '-')
        return false;
    *out = v;
    return true;
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The contract line: metrics of @p defs, in catalog order. */
std::string
resultLine(const WorkloadResult &r, const std::vector<MetricDef> &defs)
{
    std::string s = "{\"correct\": ";
    s += r.failed == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(r.attempted);
    s += ", \"failed\": " + std::to_string(r.failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : defs) {
        s += first ? "" : ", ";
        first = false;
        s += "\"" + std::string(d.name) + "\": {\"value\": " +
             number(r.metrics.at(d.name)) + ", \"unit\": \"" + d.unit +
             "\"}";
    }
    return s + "}}";
}

void
writeJsonFile(const std::string &path, const Json &doc)
{
    std::ofstream out(path);
    doc.write(out, 1);
    out << "\n";
    if (!out)
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    std::string out_dir = ".bench_build/perfbench-out";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (v == nullptr)
            usage(("missing value for " + a).c_str());
        ++i;
        std::uint64_t n = 0;
        if (a == "--workload") {
            opts.workload = v;
        } else if (a == "--seed") {
            if (!parseU64(v, &opts.seed))
                usage("--seed takes a non-negative integer");
            have_seed = true;
        } else if (a == "--seconds") {
            if (!parseU64(v, &n) || n == 0 || n > 3600)
                usage("--seconds takes an integer from 1 to 3600");
            opts.seconds = double(n);
            have_seconds = true;
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            opts.trace = v[0] == '1';
            have_trace = true;
        } else if (a == "--root") {
            opts.root = v;
        } else if (a == "--out") {
            out_dir = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    bool known = false;
    for (const char *w : kWorkloadNames)
        known = known || opts.workload == w;
    if (!known)
        usage("unknown or missing --workload");
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");

    flywheel::setLogLevel(flywheel::LogLevel::Quiet);
    std::error_code ec;
    fs::create_directories(out_dir, ec);
    opts.workDir = out_dir + "/work-" + std::to_string(::getpid());
    fs::remove_all(opts.workDir, ec);
    fs::create_directories(opts.workDir, ec);
    if (ec)
        usage(("cannot create " + opts.workDir).c_str());

    SpanRecorder spans(opts.trace);
    WorkloadResult r = opts.workload.rfind("cell-", 0) == 0
        ? runCellWorkload(opts, spans)
        : runFiguresWorkload(opts, spans);
    r.metrics["peak_rss_mb"] = peakRssMb();
    if (opts.trace) {
        // What the recorder itself adds, to read the tracing overhead
        // (traced minus untraced headline) against host noise.
        SpanRecorder calib(true);
        const int n = 20000;
        const auto t0 = Clock::now();
        for (int i = 0; i < n; ++i)
            auto s = calib.scope("calibration", 0);
        const double per_span = secondsBetween(t0, Clock::now()) / n;
        char line[128];
        std::snprintf(line, sizeof line, "%zu spans x %.0f ns = %.6f s",
                      spans.spans().size(), per_span * 1e9,
                      per_span * double(spans.spans().size()));
        r.notes.push_back({"span_cost", line});
    }
    fs::remove_all(opts.workDir, ec);

    const std::vector<MetricDef> &defs =
        opts.trace ? perLayerMetrics() : endToEndMetrics();
    for (const MetricDef &d : defs) {
        auto it = r.metrics.find(d.name);
        if (it == r.metrics.end() || !std::isfinite(it->second)) {
            r.fail(std::string("metric ") + d.name + " was not measured");
            r.metrics[d.name] = 0.0;
        }
    }

    // ---- human report (stderr) and report file --------------------------
    const std::string stem = out_dir + "/" + opts.workload + "-seed" +
                             std::to_string(opts.seed);
    Json report = Json::object();
    report.add("workload", Json(opts.workload));
    report.add("seed", Json(opts.seed));
    report.add("trace", Json(opts.trace));
    report.add("attempted", Json(r.attempted));
    report.add("failed", Json(r.failed));
    Json failures = Json::array();
    for (const std::string &f : r.failures)
        failures.push(Json(f));
    report.add("failures", std::move(failures));
    Json metrics = Json::object();
    for (const auto &kv : r.metrics)
        metrics.add(kv.first, Json(kv.second));
    report.add("metrics", std::move(metrics));
    Json notes = Json::object();
    for (const auto &kv : r.notes)
        notes.add(kv.first, Json(kv.second));
    report.add("notes", std::move(notes));
    Json samples = Json::object();
    for (const auto &kv : r.samples) {
        Json list = Json::array();
        for (double v : kv.second)
            list.push(Json(v));
        samples.add(kv.first, std::move(list));
    }
    report.add("samples", std::move(samples));

    std::fprintf(stderr, "perfbench %s seed=%llu seconds=%g trace=%d\n",
                 opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.seed), opts.seconds,
                 int(opts.trace));
    for (const MetricDef &d : defs)
        std::fprintf(stderr, "  %-34s %16.6g %s\n", d.name,
                     r.metrics.at(d.name), d.unit);
    for (const auto &kv : r.notes)
        std::fprintf(stderr, "  note %-29s %s\n", kv.first.c_str(),
                     kv.second.c_str());
    std::fprintf(stderr, "  cells attempted %llu, failed %llu\n",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed));
    for (const std::string &f : r.failures)
        std::fprintf(stderr, "  FAILED %s\n", f.c_str());

    if (opts.trace) {
        Json self = Json::array();
        std::fprintf(stderr, "  %-20s %8s %12s %12s\n", "span", "count",
                     "total_s", "self_s");
        for (const SpanRecorder::SelfTime &row : spans.selfTimes()) {
            std::fprintf(stderr, "  %-20s %8zu %12.6f %12.6f\n",
                         row.name.c_str(), row.count, row.totalSeconds,
                         row.selfSeconds);
            Json j = Json::object();
            j.add("name", Json(row.name));
            j.add("count", Json(std::uint64_t(row.count)));
            j.add("total_s", Json(row.totalSeconds));
            j.add("self_s", Json(row.selfSeconds));
            self.push(std::move(j));
        }
        report.add("self_times", std::move(self));
        writeJsonFile(stem + ".trace.json", spans.chromeJson());
    }
    writeJsonFile(stem + "-trace" + std::to_string(int(opts.trace)) +
                      ".report.json",
                  report);

    std::printf("%s\n", resultLine(r, defs).c_str());
    return 0;
}
