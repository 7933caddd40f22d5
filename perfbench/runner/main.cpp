/**
 * @file
 * perfbench_runner: runs one benchmark workload in this process and
 * writes its results as JSON lines to --out, one line per record, each
 * flushed as soon as it is known.  Records: the run manifest, each
 * set-up time, each pass (timing, then its cells), and a summary.
 * perfbench/run.py turns them into the benchmark's result line.
 *
 *   perfbench_runner --workload W --seed N --seconds S --out FILE
 *                    [--workdir DIR] [--trace FILE] [--setups K]
 *                    [--passes K] [--smoke]
 *
 * Without --trace: at least K set-ups (median is setup_s), then passes
 * until S seconds have elapsed (median is wall_s).  With --trace: one
 * traced set-up, a traced pass and an untraced pass; the traced pass's
 * spans give the per-layer metrics and are written to FILE as Chrome
 * trace events.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "core/client/client_model.hpp"
#include "core/sim/curve.hpp"
#include "core/sim/experiments.hpp"
#include "core/sim/sweep.hpp"
#include "spans.hpp"
#include "util/flat_map.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

extern char **environ;

namespace perfbench {

extern const std::size_t kHeapTailBytes; // alloc.cpp

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    std::string out;
    std::string workdir = ".";
    std::string traceFile; ///< non-empty = traced run
    int setups = 3;
    int passes = 0; ///< 0 = as many as fit in `seconds`
    bool smoke = false;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\nusage: perfbench_runner "
                 "--workload W --seed N --seconds S --out FILE "
                 "[--workdir DIR] [--trace FILE] [--setups K] "
                 "[--passes K] [--smoke]\n",
                 error.c_str());
    std::exit(2);
}

long long
parseInt(const std::string &flag, const char *text, long long lo)
{
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || v < lo)
        usage(flag + " expects an integer >= " + std::to_string(lo));
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const char *value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = static_cast<std::uint64_t>(parseInt(flag, value, 0));
        else if (flag == "--seconds")
            a.seconds = static_cast<double>(parseInt(flag, value, 1));
        else if (flag == "--out")
            a.out = value;
        else if (flag == "--workdir")
            a.workdir = value;
        else if (flag == "--trace")
            a.traceFile = value;
        else if (flag == "--setups")
            a.setups = static_cast<int>(parseInt(flag, value, 1));
        else if (flag == "--passes")
            a.passes = static_cast<int>(parseInt(flag, value, 1));
        else
            usage("unknown flag " + flag);
    }
    if (a.workload.empty() || a.out.empty())
        usage("--workload and --out are required");
    return a;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

/** The JSON-lines result file; every record is flushed at once. */
class Results
{
  public:
    explicit Results(const std::string &path)
        : file_(std::fopen(path.c_str(), "w"))
    {
        if (file_ == nullptr)
            usage("cannot write " + path);
    }
    ~Results() { std::fclose(file_); }

    Results(const Results &) = delete;
    Results &operator=(const Results &) = delete;

    void
    line(const std::string &json)
    {
        std::fputs(json.c_str(), file_);
        std::fputc('\n', file_);
        std::fflush(file_);
    }

  private:
    std::FILE *file_;
};

const char *
simdMode()
{
#if defined(NVFS_FLATMAP_SSE2)
    return "sse2";
#elif defined(NVFS_FLATMAP_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

std::string
manifest(const Args &a, const Workload &w)
{
    std::string env = "{";
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string var = *e;
        if (var.rfind("NVFS_", 0) != 0)
            continue;
        const auto eq = var.find('=');
        env += (env.size() > 1 ? "," : "") +
               jsonString(var.substr(0, eq)) + ":" +
               jsonString(var.substr(eq + 1));
    }
    env += "}";
    std::string params = "{";
    for (const auto &[key, value] : w.params()) {
        params += (params.size() > 1 ? "," : "") + jsonString(key) +
                  ":" + jsonString(value);
    }
    params += "}";
#ifdef NVFS_NO_STATS
    const bool no_stats = true;
#else
    const bool no_stats = false;
#endif
    return "{\"type\":\"manifest\",\"workload\":" +
           jsonString(a.workload) +
           ",\"seed\":" + std::to_string(a.seed) +
           ",\"smoke\":" + (a.smoke ? "true" : "false") +
           ",\"params\":" + params +
           ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
           ",\"simd\":" + jsonString(simdMode()) +
           ",\"nvfs_no_stats\":" + (no_stats ? "true" : "false") +
           ",\"heap_tail_zero_bytes\":" + std::to_string(kHeapTailBytes) +
           ",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"jobs\":" + std::to_string(nvfs::util::defaultJobCount()) +
           ",\"grid_jobs\":" +
           std::to_string(nvfs::core::gridJobCount()) +
           ",\"block_engine\":" +
           jsonString(nvfs::core::defaultExtentEngine() ? "extent"
                                                        : "legacy") +
           ",\"curve_engine\":" +
           jsonString(nvfs::core::curveEngineEnabled() ? "on" : "off") +
           ",\"pipeline\":" +
           jsonString(nvfs::core::pipelineEnabled() ? "on" : "off") +
           ",\"trace_cache_unset\":" +
           (std::getenv("NVFS_TRACE_CACHE") == nullptr ? "true"
                                                       : "false") +
           ",\"env\":" + env + "}";
}

/** CPU seconds (user + system) this process has used so far. */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

struct PassTiming
{
    double seconds = 0;
    std::uint64_t events = 0;
    std::map<std::string, double> counts;
};

/** Run one pass and record its timing line and cells. */
PassTiming
runPass(Workload &w, Results &results, int index, bool traced)
{
    results.line("{\"type\":\"pass_begin\",\"index\":" +
                 std::to_string(index) + "}");
    tracer().setEnabled(traced);
    tracer().setRun(static_cast<std::uint32_t>(index) + 1);
    const double start = nowSeconds();
    PassOutput out = w.pass();
    const double seconds = nowSeconds() - start;
    tracer().setEnabled(false);
    w.check(out);
    results.line("{\"type\":\"pass\",\"index\":" + std::to_string(index) +
                 ",\"seconds\":" + jsonNumber(seconds) +
                 ",\"traced\":" + (traced ? "true" : "false") +
                 ",\"events\":" + std::to_string(out.events) +
                 ",\"cells\":" + std::to_string(out.cells.size()) + "}");
    for (const Cell &cell : out.cells) {
        std::string fields = "[";
        for (const auto &[name, value] : cell.fields) {
            fields += (fields.size() > 1 ? "," : "") + std::string("[") +
                      jsonString(name) + "," + std::to_string(value) +
                      "]";
        }
        results.line("{\"type\":\"cell\",\"pass\":" +
                     std::to_string(index) +
                     ",\"name\":" + jsonString(cell.name) +
                     ",\"error\":" + jsonString(cell.error) +
                     ",\"wrong\":" + jsonString(cell.wrong) +
                     ",\"fields\":" + fields + "]}");
    }
    return {seconds, out.events, std::move(out.counts)};
}

/** Spans of `run` grouped by parent id. */
std::map<std::uint64_t, std::vector<const SpanRecord *>>
childrenOf(const std::vector<SpanRecord> &records, std::uint32_t run)
{
    std::map<std::uint64_t, std::vector<const SpanRecord *>> out;
    for (const SpanRecord &r : records) {
        if (r.run == run)
            out[r.parent].push_back(&r);
    }
    return out;
}

/**
 * Per-layer metrics of traced pass `run`: span totals by name, sweep
 * statistics from the map/task and pipeline span trees, and the work
 * counts the workload read from its results.
 */
std::map<std::string, double>
layerMetrics(const Tracer &t, std::uint32_t run,
             const std::map<std::string, double> &counts, unsigned jobs)
{
    const auto setup = t.totals(0);
    const auto spans = t.totals(run);
    auto total = [](const std::map<std::string, SpanTotals> &m,
                    const std::string &name) {
        const auto it = m.find(name);
        return it == m.end() ? 0.0 : it->second.total;
    };
    auto count = [&counts](const std::string &name) {
        const auto it = counts.find(name);
        return it == counts.end() ? 0.0 : it->second;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    std::map<std::string, double> m;
    m["workload.generate_s"] = total(setup, "workload.generate");
    m["trace.read_bin_s"] = total(spans, "trace.read_bin");
    m["trace.read_text_s"] = total(spans, "trace.read_text");
    m["trace.mb_per_s"] =
        ratio(count("trace.bytes") / 1e6,
              m["trace.read_bin_s"] + m["trace.read_text_s"]);
    m["prep.convert_s"] = total(spans, "prep.convert");
    m["prep.characterize_s"] = total(spans, "prep.characterize");
    m["prep.ops_per_event"] =
        ratio(count("prep.ops_out"), count("prep.events_in"));
    m["core.lifetime.analyze_s"] = total(spans, "core.lifetime.analyze");
    m["core.lifetime.oracle_s"] = total(spans, "core.lifetime.oracle");
    double replay = 0;
    for (const char *model : {"volatile", "write_aside", "unified", "lru",
                              "random", "clock", "omniscient"}) {
        const std::string name = std::string("core.client.replay.") + model;
        m[std::string("core.client.replay_s.") + model] = total(spans, name);
        replay += total(spans, name);
    }
    m["core.client.ops_per_s"] =
        ratio(count("core.client.op_replays"), replay);

    // Sweep statistics over every SweepRunner::map of the pass.
    const auto children = childrenOf(t.records(), run);
    double busy = 0, wait = 0, sweep_wall = 0, longest_sum = 0;
    double hidden = 0;
    for (const SpanRecord &r : t.records()) {
        if (r.run != run)
            continue;
        const auto kids = children.find(r.id);
        if (kids == children.end())
            continue;
        if (r.name == "core.sim.map") {
            double longest = 0;
            for (const SpanRecord *k : kids->second) {
                if (k->name != "core.sim.task")
                    continue;
                busy += k->seconds();
                wait += k->start - r.start;
                longest = std::max(longest, k->seconds());
            }
            sweep_wall += r.seconds();
            longest_sum += longest;
        } else if (r.name == "core.sim.pipeline") {
            // Prepare time that ran while a replay step was running.
            for (const SpanRecord *p : kids->second) {
                if (p->name != "core.sim.prepare")
                    continue;
                busy += p->seconds();
                for (const SpanRecord *q : kids->second) {
                    if (q->name != "core.sim.replay_step")
                        continue;
                    hidden += std::max(0.0, std::min(p->end, q->end) -
                                                std::max(p->start, q->start));
                }
            }
        }
    }
    m["core.sim.busy_s"] = busy;
    m["core.sim.task_wait_s"] = wait;
    m["core.sim.parallel_eff"] = ratio(busy, sweep_wall * jobs);
    m["core.sim.straggler_share"] = ratio(longest_sum, sweep_wall);
    m["core.sim.curve_s"] = total(spans, "core.sim.curve");
    m["core.sim.pipeline_hidden_s"] = hidden;

    m["server.run_s"] = total(spans, "server.run");
    m["server.ops_per_s"] = ratio(count("server.ops"), m["server.run_s"]);
    m["lfs.segments_written"] = count("lfs.segments_written");
    m["lfs.disk_mb"] = count("lfs.disk_bytes") / 1e6;

    m["crash.explore_s"] = total(spans, "crash.explore");
    m["crash.sites_total"] = count("crash.sites_total");
    m["crash.crashes"] = count("crash.crashes");
    m["crash.ms_per_crash"] =
        ratio(m["crash.explore_s"] * 1e3, m["crash.crashes"]);
    return m;
}

/** The per-layer self-time table of traced pass `run`. */
void
printLayerTable(const Tracer &t, std::uint32_t run)
{
    std::printf("%-34s %8s %12s %12s\n", "span (traced pass)", "count",
                "total s", "self s");
    for (const auto &[name, s] : t.totals(run)) {
        std::printf("%-34s %8llu %12.4f %12.4f\n", name.c_str(),
                    static_cast<unsigned long long>(s.count), s.total,
                    s.self);
    }
}

std::string
metricsJson(const std::map<std::string, double> &m)
{
    std::string out = "{";
    for (const auto &[name, value] : m) {
        out += (out.size() > 1 ? "," : "") + jsonString(name) + ":" +
               jsonNumber(value);
    }
    return out + "}";
}

int
run(const Args &a)
{
    if (std::getenv("NVFS_TRACE_CACHE") != nullptr) {
        std::fprintf(stderr, "perfbench_runner: NVFS_TRACE_CACHE is set; "
                             "set-up would time a cache hit, not "
                             "generation\n");
        return 2;
    }
    Options options;
    options.seed = a.seed;
    options.smoke = a.smoke;
    options.workdir = a.workdir;
    const std::unique_ptr<Workload> w = makeWorkload(a.workload, options);
    if (!w)
        usage("unknown workload " + a.workload);
    Results results(a.out);
    results.line(manifest(a, *w));

    const bool traced = !a.traceFile.empty();
    tracer().setEnabled(traced);
    tracer().setRun(0);
    std::vector<double> setups;
    // At least `setups` set-ups, and more (up to 100) while they add
    // up to under two seconds, so a cheap set-up still gets a steady
    // median.
    double setup_total = 0;
    for (int i = 0; i < (traced ? 1 : 100); ++i) {
        if (i >= a.setups && (traced || setup_total >= 2.0))
            break;
        const double start = nowSeconds();
        w->setup();
        setups.push_back(nowSeconds() - start);
        setup_total += setups.back();
        results.line("{\"type\":\"setup\",\"index\":" + std::to_string(i) +
                     ",\"seconds\":" + jsonNumber(setups.back()) + "}");
    }
    tracer().setEnabled(false);

    std::map<std::string, double> metrics;
    if (traced) {
        // The traced pass is compared with the untraced one after it.
        const PassTiming spanned = runPass(*w, results, 0, true);
        const double cpu_before = cpuSeconds();
        const PassTiming plain = runPass(*w, results, 1, false);
        const double cpu = cpuSeconds() - cpu_before;
        metrics = layerMetrics(tracer(), 1, spanned.counts,
                               nvfs::util::defaultJobCount());
        metrics["bench.tracing_overhead_share"] =
            (spanned.seconds - plain.seconds) / plain.seconds;
        metrics["process.cpu_s"] = cpu;
        printLayerTable(tracer(), 1);
        tracer().writeChromeTrace(a.traceFile);
    } else {
        // The pass and set-up records carry the timings; run.py takes
        // their medians, so a process that dies later still reports
        // the passes it finished.
        const double start = nowSeconds();
        for (int i = 0;; ++i) {
            runPass(*w, results, i, false);
            if (a.passes > 0 ? i + 1 >= a.passes
                             : nowSeconds() - start >= a.seconds)
                break;
        }
    }
    results.line("{\"type\":\"summary\",\"metrics\":" +
                 metricsJson(metrics) + "}");
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
