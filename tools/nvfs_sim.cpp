/**
 * @file
 * nvfs_sim — command-line driver for the whole pipeline.
 *
 *   nvfs_sim generate --trace 7 --scale 0.25 --out t7.trace [--text]
 *                     [--compat]
 *   nvfs_sim validate --in t7.trace [--text]
 *   nvfs_sim lifetime --trace 7 [--scale S] | --in t7.trace
 *   nvfs_sim client   --trace 7 [--scale S] --model unified
 *                     [--volatile 8M] [--nvram 1M] [--policy lru]
 *                     [--block-callbacks] [--crash 300s:0]
 *   nvfs_sim server   [--hours 24] [--buffer 512K] [--scale S]
 *   nvfs_sim sweep    --trace 7 [--scale S] [--jobs N]
 *                     [--models volatile,write-aside,unified]
 *                     [--nvram 0.5M,1M,2M,4M] [--volatile 8M]
 *                     [--policy lru]
 *   nvfs_sim check    [--runs 20] [--ops 2000] [--seed 1]
 *                     [--audit 64] [--max-seconds T] [--no-shrink]
 *   nvfs_sim crashsweep --trace 3,4,7 [--scale S]
 *                     [--models volatile,write-aside,unified]
 *                     [--buffers 0,512K] [--seed 42] [--sample N]
 *                     [--no-shrink]
 *
 * Sizes accept K/M/G suffixes; durations accept s/min/h.  Sweeps run
 * --jobs experiments in parallel (default NVFS_JOBS, else all cores).
 */

#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "core/sim/experiments.hpp"
#include "crash/explore.hpp"
#include "core/sim/sweep.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "prep/characterize.hpp"
#include "prep/converter.hpp"
#include "trace/stream.hpp"
#include "trace/validate.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"

using namespace nvfs;

namespace {

/** Parsed --key value arguments. */
class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                util::fatal("expected --option, got '" + key + "'");
            key = key.substr(2);
            // A negative number is a value (for the range checks to
            // reject by flag name), not the next option.
            if (i + 1 < argc &&
                (argv[i + 1][0] != '-' ||
                 util::tryParseDouble(argv[i + 1]).has_value())) {
                values_[key] = argv[++i];
            } else {
                values_[key] = "1"; // boolean flag
            }
        }
    }

    bool has(const std::string &key) const { return values_.count(key); }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    /**
     * Integer flag in [min, max].  Strict parse: "--jobs 4x" used to
     * silently become 4 via atoi (and "--jobs x" became 0), and an
     * unchecked value wrapped in the casts to int and on to unsigned
     * types ("--ops 4294967297" ran 1 op); both are rejected with the
     * flag name instead.
     */
    std::int64_t
    getInt(const std::string &key, std::int64_t fallback,
           std::int64_t min = std::numeric_limits<int>::min(),
           std::int64_t max = std::numeric_limits<int>::max()) const
    {
        if (!has(key))
            return fallback;
        const auto parsed = util::tryParseInt(get(key));
        if (!parsed.has_value()) {
            util::fatal("--" + key + " expects an integer, got '" +
                        get(key) + "'");
        }
        if (*parsed < min || *parsed > max) {
            util::fatal("--" + key + " expects an integer in [" +
                        std::to_string(min) + ", " +
                        std::to_string(max) + "], got '" + get(key) +
                        "'");
        }
        return *parsed;
    }

    /** Number flag; no number flag of this tool takes a negative. */
    double
    getDouble(const std::string &key, double fallback) const
    {
        if (!has(key))
            return fallback;
        const auto parsed = util::tryParseDouble(get(key));
        if (!parsed.has_value()) {
            util::fatal("--" + key + " expects a number, got '" +
                        get(key) + "'");
        }
        if (*parsed < 0.0) {
            util::fatal("--" + key +
                        " expects a non-negative number, got '" +
                        get(key) + "'");
        }
        return *parsed;
    }

    Bytes
    getBytes(const std::string &key, Bytes fallback) const
    {
        return has(key) ? util::parseBytes(get(key)) : fallback;
    }

  private:
    std::map<std::string, std::string> values_;
};

/** Split a comma-separated option value. */
std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= value.size()) {
        const auto comma = value.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(value.substr(start));
            break;
        }
        out.push_back(value.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

core::ModelKind
parseModelKind(const std::string &name)
{
    if (name == "volatile")
        return core::ModelKind::Volatile;
    if (name == "write-aside")
        return core::ModelKind::WriteAside;
    if (name == "unified")
        return core::ModelKind::Unified;
    util::fatal("unknown model '" + name + "'");
}

cache::PolicyKind
parsePolicy(const std::string &name)
{
    if (name == "lru")
        return cache::PolicyKind::Lru;
    if (name == "random")
        return cache::PolicyKind::Random;
    if (name == "clock")
        return cache::PolicyKind::Clock;
    util::fatal("unknown policy '" + name + "' (lru|random|clock)");
}

trace::TraceBuffer
loadOrGenerate(const Args &args)
{
    if (args.has("in")) {
        return args.has("text")
                   ? trace::readTraceText(args.get("in"))
                   : trace::readTraceFile(args.get("in"));
    }
    const auto trace_number = static_cast<int>(args.getInt("trace", 7));
    const double scale = args.getDouble("scale", 0.25);
    return workload::generateStandardTrace(trace_number, scale,
                                           args.has("compat"));
}

int
cmdGenerate(const Args &args)
{
    const auto buffer = loadOrGenerate(args);
    const std::string out = args.get("out", "out.trace");
    if (args.has("text"))
        trace::writeTraceText(out, buffer);
    else
        trace::writeTraceFile(out, buffer);
    std::printf("wrote %zu events to %s\n", buffer.events.size(),
                out.c_str());
    return 0;
}

int
cmdValidate(const Args &args)
{
    const auto buffer = loadOrGenerate(args);
    const auto report = trace::validateTrace(buffer);
    std::printf("%zu events checked, %zu issues\n",
                report.eventsChecked, report.issues.size());
    for (std::size_t i = 0;
         i < std::min<std::size_t>(10, report.issues.size()); ++i) {
        std::printf("  event %zu: %s\n", report.issues[i].eventIndex,
                    report.issues[i].message.c_str());
    }
    return report.ok() ? 0 : 1;
}

int
cmdLifetime(const Args &args)
{
    const auto buffer = loadOrGenerate(args);
    const auto ops = prep::convertTrace(buffer);
    const auto life = core::analyzeLifetimes(ops);

    util::TextTable fate({"fate", "MB", "%"});
    for (int f = 0; f < static_cast<int>(core::ByteFate::Count_); ++f) {
        const auto kind = static_cast<core::ByteFate>(f);
        fate.addRow({core::byteFateName(kind),
                     util::format("%.1f", toMiB(life.fateBytes(kind))),
                     util::format("%.1f",
                                  100.0 *
                                      static_cast<double>(
                                          life.fateBytes(kind)) /
                                      static_cast<double>(
                                          life.totalWritten))});
    }
    std::printf("%s\n",
                fate.render("byte fate (infinite NVRAM)").c_str());

    util::TextTable sweep({"write-back delay", "net write traffic %"});
    for (const double minutes : {0.1, 0.5, 1.0, 10.0, 60.0, 1440.0}) {
        sweep.addRow({util::formatDuration(static_cast<TimeUs>(
                          minutes * kUsPerMinute)),
                      util::format("%.1f",
                                   life.netWriteTrafficPct(
                                       static_cast<TimeUs>(
                                           minutes * kUsPerMinute)))});
    }
    std::printf("%s\n", sweep.render().c_str());
    return 0;
}

int
cmdProfile(const Args &args)
{
    const auto buffer = loadOrGenerate(args);
    const auto ops = prep::convertTrace(buffer);
    std::printf("%s\n",
                prep::characterize(ops)
                    .render("workload characterization")
                    .c_str());
    return 0;
}

int
cmdClient(const Args &args)
{
    const auto buffer = loadOrGenerate(args);
    const auto ops = prep::convertTrace(buffer);

    core::ClusterConfig config;
    config.model.kind = parseModelKind(args.get("model", "unified"));
    config.model.volatileBytes = args.getBytes("volatile", 8 * kMiB);
    config.model.nvramBytes = args.getBytes("nvram", kMiB);
    config.model.nvramPolicy = parsePolicy(args.get("policy", "lru"));
    config.blockLevelCallbacks = args.has("block-callbacks");
    if (args.has("crash")) {
        // --crash 300s:0 — time and client id.
        const std::string spec = args.get("crash");
        const auto colon = spec.find(':');
        if (colon == std::string::npos)
            util::fatal("--crash expects <duration>:<client>");
        const auto client = util::tryParseInt(spec.substr(colon + 1));
        if (!client.has_value() || *client < 0 ||
            *client > std::numeric_limits<ClientId>::max()) {
            util::fatal("--crash expects <duration>:<client>, got "
                        "client '" +
                        spec.substr(colon + 1) + "'");
        }
        config.crashes.emplace_back(
            util::parseDuration(spec.substr(0, colon)),
            static_cast<ClientId>(*client));
    }

    core::ClusterSim sim(config, std::max<std::uint32_t>(
                                     1, ops.clientCount));
    const core::Metrics m = sim.run(ops);

    util::TextTable table({"metric", "value"});
    table.addRow({"app writes", util::formatBytes(m.appWriteBytes)});
    table.addRow({"app reads", util::formatBytes(m.appReadBytes)});
    table.addRow({"server writes",
                  util::formatBytes(m.totalServerWrites())});
    table.addRow({"server reads",
                  util::formatBytes(m.serverReadBytes)});
    table.addRow({"net write traffic",
                  util::format("%.1f %%", m.netWriteTrafficPct())});
    table.addRow({"net total traffic",
                  util::format("%.1f %%", m.netTotalTrafficPct())});
    for (int c = 0; c < static_cast<int>(core::WriteCause::Count_);
         ++c) {
        const auto cause = static_cast<core::WriteCause>(c);
        if (m.serverWrites(cause) == 0)
            continue;
        table.addRow({"  writes by " + core::writeCauseName(cause),
                      util::formatBytes(m.serverWrites(cause))});
    }
    if (m.lostDirtyBytes > 0) {
        table.addRow({"dirty bytes LOST to crashes",
                      util::formatBytes(m.lostDirtyBytes)});
    }
    std::printf("%s\n", table.render("client simulation").c_str());
    return 0;
}

int
cmdServer(const Args &args)
{
    const double hours = args.getDouble("hours", 24.0);
    const double scale = args.getDouble("scale", 1.0);
    const Bytes buffer = args.getBytes("buffer", 0);
    const auto result = core::runServerSim(
        static_cast<TimeUs>(hours * kUsPerHour), scale, buffer);

    util::TextTable table({"file system", "segments", "partial",
                           "by fsync", "data MB", "fsyncs absorbed"});
    for (const auto &fs : result.fs) {
        table.addRow(
            {fs.name,
             util::format("%llu", static_cast<unsigned long long>(
                                      fs.log.segmentsWritten)),
             util::format("%llu", static_cast<unsigned long long>(
                                      fs.log.partialSegments)),
             util::format("%llu", static_cast<unsigned long long>(
                                      fs.log.partialsByFsync)),
             util::format("%.1f", toMiB(fs.log.dataBytes)),
             util::format("%llu", static_cast<unsigned long long>(
                                      fs.fsyncsAbsorbed))});
    }
    std::printf("%s\n", table.render(util::format(
                            "server, %.3g h, buffer=%s", hours,
                            util::formatBytes(buffer).c_str()))
                            .c_str());
    std::printf("total disk write accesses: %llu\n",
                static_cast<unsigned long long>(
                    result.totalDiskWrites));
    return 0;
}

/** Render one sweep grid's results (model x NVRAM size). */
void
printSweepTable(const std::string &title,
                const std::vector<std::string> &model_names,
                const std::vector<std::string> &nvram_sizes,
                const std::vector<core::Metrics> &results)
{
    std::vector<std::string> headers = {"NVRAM"};
    for (const std::string &name : model_names) {
        headers.push_back(name + " write%");
        headers.push_back(name + " total%");
    }
    util::TextTable table(std::move(headers));
    std::size_t next = 0;
    for (const std::string &size_text : nvram_sizes) {
        std::vector<std::string> row = {size_text};
        for (std::size_t m = 0; m < model_names.size(); ++m) {
            const core::Metrics &metrics = results[next++];
            row.push_back(
                util::format("%.1f", metrics.netWriteTrafficPct()));
            row.push_back(
                util::format("%.1f", metrics.netTotalTrafficPct()));
        }
        table.addRow(std::move(row));
    }
    std::printf("%s\n", table.render(title).c_str());
}

int
cmdSweep(const Args &args)
{
    const auto model_names =
        splitList(args.get("models", "volatile,write-aside,unified"));
    const auto nvram_sizes =
        splitList(args.get("nvram", "0.5M,1M,2M,4M"));
    const Bytes volatile_bytes = args.getBytes("volatile", 8 * kMiB);
    const auto policy = parsePolicy(args.get("policy", "lru"));

    // The (model x NVRAM size) grid, row-major by NVRAM size.  The
    // volatile model ignores NVRAM, so it contributes one run per
    // size with the NVRAM budget added as volatile memory instead.
    std::vector<core::ModelConfig> models;
    for (const std::string &size_text : nvram_sizes) {
        const Bytes nvram = util::parseBytes(size_text);
        for (const std::string &name : model_names) {
            core::ModelConfig model;
            model.kind = parseModelKind(name);
            model.nvramPolicy = policy;
            if (model.kind == core::ModelKind::Volatile) {
                model.volatileBytes = volatile_bytes + nvram;
            } else {
                model.volatileBytes = volatile_bytes;
                model.nvramBytes = nvram;
            }
            models.push_back(model);
        }
    }

    const core::SweepRunner runner(
        static_cast<unsigned>(args.getInt("jobs", 0, 0, 65536)));

    // Comma lists (--trace 3,4,7 or --in a,b,c) sweep trace by
    // trace: ingest, prep, then the model grid, one table per trace.
    const auto point_list = args.has("in")
                                ? splitList(args.get("in"))
                                : splitList(args.get("trace", ""));
    if (point_list.size() > 1) {
        const double scale = args.getDouble("scale", 0.25);
        const bool from_files = args.has("in");
        const bool text = args.has("text");
        const bool compat = args.has("compat");
        const auto per_trace = runner.runPipelined(
            point_list,
            [&](const std::string &point) {
                trace::TraceBuffer buffer = [&] {
                    const obs::StageTimer stage("sweep.ingest",
                                                point);
                    if (from_files) {
                        return text ? trace::readTraceText(point)
                                    : trace::readTraceFile(point);
                    }
                    const auto number = util::tryParseInt(point);
                    if (!number.has_value())
                        util::fatal("--trace expects integers, got '" +
                                    point + "'");
                    return workload::generateStandardTrace(
                        static_cast<int>(*number), scale, compat);
                }();
                const obs::StageTimer stage("sweep.prep", point);
                return prep::convertTrace(buffer);
            },
            [&](prep::OpStream ops) {
                const obs::StageTimer stage("sweep.replay");
                return core::runClientGrid(ops, models, 42,
                                           runner.jobs());
            });
        for (std::size_t t = 0; t < point_list.size(); ++t) {
            printSweepTable(
                util::format("trace sweep %s, %u jobs, %zu runs",
                             point_list[t].c_str(), runner.jobs(),
                             models.size()),
                model_names, nvram_sizes, per_trace[t]);
        }
        return 0;
    }

    const auto buffer = [&] {
        const obs::StageTimer stage("sweep.ingest");
        return loadOrGenerate(args);
    }();
    const auto ops = [&] {
        const obs::StageTimer stage("sweep.prep");
        return prep::convertTrace(buffer);
    }();
    const auto results = [&] {
        const obs::StageTimer stage("sweep.replay");
        return runner.runClientSweep(ops, models);
    }();
    printSweepTable(
        util::format("parallel sweep, %u jobs, %zu runs",
                     runner.jobs(), models.size()),
        model_names, nvram_sizes, results);
    return 0;
}

/**
 * Crash-schedule exploration across the full grid: every requested
 * trace, client model (whose server-bound traffic differs), and
 * server engine (unbuffered vs NVRAM-buffered).  Each cell censuses
 * the workload's persistence sites, then crashes at every selected
 * site (NVFS_CRASH_SITES / NVFS_CRASH_SAMPLE narrow the selection)
 * and oracle-checks the recovery.
 */
int
cmdCrashsweep(const Args &args)
{
    const auto model_names =
        splitList(args.get("models", "volatile,write-aside,unified"));
    const auto buffer_names = splitList(args.get("buffers", "0,512K"));
    const double scale = args.getDouble("scale", 0.05);
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 42, 0));
    const auto point_list = args.has("in")
                                ? splitList(args.get("in"))
                                : splitList(args.get("trace", "3,4,7"));

    util::TextTable table({"trace", "model", "buffer", "sites",
                           "crashes", "violations", "quarantined",
                           "blocks lost"});
    crash::SiteCounts census{};
    std::uint64_t violations = 0;
    for (const std::string &point : point_list) {
        const trace::TraceBuffer buffer = [&] {
            if (args.has("in")) {
                return args.has("text") ? trace::readTraceText(point)
                                        : trace::readTraceFile(point);
            }
            const auto number = util::tryParseInt(point);
            if (!number.has_value())
                util::fatal("--trace expects integers, got '" + point +
                            "'");
            return workload::generateStandardTrace(
                static_cast<int>(*number), scale, args.has("compat"));
        }();
        const auto ops = prep::convertTrace(buffer);
        for (const std::string &name : model_names) {
            core::ModelConfig model;
            model.kind = parseModelKind(name);
            const auto server_ops =
                core::collectServerOps(ops, model, seed);
            for (const std::string &size_text : buffer_names) {
                crash::ExploreConfig config;
                config.server.nvramBufferBytes =
                    util::parseBytes(size_text);
                config.seed = seed;
                config.sampleSites = static_cast<std::uint64_t>(
                    args.getInt("sample", 0, 0));
                config.shrinkOnFailure = !args.has("no-shrink");
                const crash::ExploreResult result =
                    crash::explore(server_ops, config);
                for (std::size_t k = 0; k < crash::kSiteKinds; ++k)
                    census[k] += result.sitesByKind[k];
                violations += result.violations.size();
                table.addRow(
                    {point, name, size_text,
                     util::format("%llu",
                                  static_cast<unsigned long long>(
                                      result.sitesTotal)),
                     util::format("%llu",
                                  static_cast<unsigned long long>(
                                      result.crashesExplored)),
                     util::format("%zu", result.violations.size()),
                     util::format("%llu",
                                  static_cast<unsigned long long>(
                                      result.segmentsQuarantined)),
                     util::format("%llu",
                                  static_cast<unsigned long long>(
                                      result.blocksLost))});
                for (const crash::Violation &violation :
                     result.violations) {
                    std::fprintf(
                        stderr,
                        "VIOLATION trace %s model %s buffer %s site "
                        "%llu (%s): %s (repro: %zu ops)\n",
                        point.c_str(), name.c_str(),
                        size_text.c_str(),
                        static_cast<unsigned long long>(
                            violation.site),
                        nvram::crashSiteKindName(violation.kind)
                            .c_str(),
                        violation.what.c_str(),
                        violation.repro.size());
                }
            }
        }
    }
    std::printf("%s\n", table.render("crash-schedule sweep").c_str());

    util::TextTable kinds({"site kind", "sites"});
    for (std::size_t k = 0; k < crash::kSiteKinds; ++k) {
        kinds.addRow(
            {nvram::crashSiteKindName(
                 static_cast<nvram::CrashSiteKind>(k)),
             util::format("%llu",
                          static_cast<unsigned long long>(census[k]))});
    }
    std::printf("%s\n", kinds.render("site census").c_str());
    if (violations > 0) {
        std::fprintf(stderr, "crashsweep: %llu oracle violation(s)\n",
                     static_cast<unsigned long long>(violations));
        return 1;
    }
    return 0;
}

int
cmdCheck(const Args &args)
{
    check::FuzzConfig config;
    config.seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1, 0));
    config.opsPerRun = static_cast<std::size_t>(
        args.getInt("ops", 2000, 1));
    config.clients = static_cast<std::uint32_t>(
        args.getInt("clients", 4, 1));
    config.files = static_cast<std::uint32_t>(
        args.getInt("files", 48, 1));
    config.auditEvery = static_cast<std::uint64_t>(
        args.getInt("audit", 64, 0));
    config.maxSeconds = args.getDouble("max-seconds", 0.0);
    config.shrink = !args.has("no-shrink");
    const auto runs =
        static_cast<std::size_t>(args.getInt("runs", 20, 1));

    const check::FuzzResult result = check::fuzz(config, runs);
    if (result.ok()) {
        std::printf("check: %zu runs, %zu ops, extent == legacy, "
                    "all audits clean\n",
                    result.runs, result.opsExecuted);
        return 0;
    }
    const check::FuzzFailure &failure = *result.failure;
    std::fprintf(stderr,
                 "check FAILED (seed %llu): %s\n"
                 "reproducer (%zu ops, shrunk from %zu):\n%s",
                 static_cast<unsigned long long>(failure.seed),
                 failure.what.c_str(), failure.ops.ops.size(),
                 failure.originalOps,
                 check::describeOps(failure.ops).c_str());
    return 1;
}

void
usage()
{
    std::printf(
        "usage: nvfs_sim <command> [options]\n"
        "  generate --trace N [--scale S] --out FILE [--text] "
        "[--compat]\n"
        "  validate --in FILE [--text]\n"
        "  lifetime --trace N | --in FILE\n"
        "  profile  --trace N | --in FILE\n"
        "  client   --trace N --model volatile|write-aside|unified\n"
        "           [--volatile 8M] [--nvram 1M] [--policy "
        "lru|random|clock]\n"
        "           [--block-callbacks] [--crash 300s:0]\n"
        "  server   [--hours 24] [--buffer 512K] [--scale S]\n"
        "  sweep    --trace N[,N...] [--scale S] [--jobs N]\n"
        "           [--models volatile,write-aside,unified]\n"
        "           [--nvram 0.5M,1M,2M,4M] [--volatile 8M]\n"
        "           [--policy lru]\n"
        "  check    [--runs 20] [--ops 2000] [--seed 1] "
        "[--clients 4]\n"
        "           [--files 48] [--audit 64] [--max-seconds T]\n"
        "           [--no-shrink]   differential fuzz with audits\n"
        "  crashsweep --trace N[,N...] | --in FILE[,FILE...]\n"
        "           [--scale 0.05] [--models "
        "volatile,write-aside,unified]\n"
        "           [--buffers 0,512K] [--seed 42] [--sample N]\n"
        "           [--no-shrink]\n"
        "           crash at every persistence site and verify "
        "recovery\n"
        "           (NVFS_CRASH_SITES=3,17 or NVFS_CRASH_SAMPLE=64\n"
        "           narrow the site selection; --sample N draws a\n"
        "           seeded sample of N sites)\n"
        "\n"
        "Every command also accepts --stats (print the observability\n"
        "counter/timer table after the run).  NVFS_STATS_OUT=FILE\n"
        "writes the same snapshot as JSON at exit; NVFS_TRACE_OUT=FILE\n"
        "writes Chrome trace-event spans (open in about:tracing).\n");
}

} // namespace

int
dispatch(const std::string &command, const Args &args)
{
    if (command == "generate")
        return cmdGenerate(args);
    if (command == "validate")
        return cmdValidate(args);
    if (command == "lifetime")
        return cmdLifetime(args);
    if (command == "profile")
        return cmdProfile(args);
    if (command == "client")
        return cmdClient(args);
    if (command == "server")
        return cmdServer(args);
    if (command == "sweep")
        return cmdSweep(args);
    if (command == "check")
        return cmdCheck(args);
    if (command == "crashsweep")
        return cmdCrashsweep(args);
    usage();
    return 1;
}

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    // Registers the NVFS_STATS_OUT / NVFS_TRACE_OUT exit hooks (and
    // enables span buffering) before any simulation starts.
    obs::autoExportFromEnv();
    const std::string command = argv[1];
    const Args args(argc, argv, 2);
    const int rc = dispatch(command, args);
    if (args.has("stats")) {
        std::printf("%s\n",
                    obs::renderTable(obs::snapshot()).c_str());
    }
    return rc;
}
