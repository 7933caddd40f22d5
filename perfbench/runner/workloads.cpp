#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>

#include "bench/bench_util.hpp"
#include "core/lifetime/lifetime.hpp"
#include "core/lifetime/next_modify.hpp"
#include "core/sim/experiments.hpp"
#include "core/sim/sweep.hpp"
#include "crash/explore.hpp"
#include "nvram/crash_site.hpp"
#include "prep/characterize.hpp"
#include "prep/converter.hpp"
#include "server/file_server.hpp"
#include "spans.hpp"
#include "trace/stream.hpp"
#include "workload/generator.hpp"
#include "workload/profile.hpp"
#include "workload/server_workload.hpp"

namespace perfbench {

namespace {

using namespace nvfs;

/** fig5 / fig6 / cost-effectiveness extra-memory axis, in MB. */
constexpr double kExtraMb[] = {0, 0.5, 1, 2, 4, 6, 8};

/** fig2 write-back delays, in minutes. */
constexpr double kDelaysMin[] = {0.01, 0.03, 0.1, 0.3, 0.5, 1,    3,
                                 10,   30,   60,  180, 600, 1440, 10000};

constexpr Bytes kBufferSizes[] = {0, 512 * kKiB};

std::int64_t
i64(std::uint64_t value)
{
    return static_cast<std::int64_t>(value);
}

/** A statistic's name as a golden-file token: spaces become '_'. */
std::string
fieldName(std::string name)
{
    for (char &c : name) {
        if (c == ' ')
            c = '_';
    }
    return name;
}

std::string
label(double mb)
{
    return util::format("%gMB", mb);
}

std::string
bufferLabel(Bytes bytes)
{
    return bytes == 0 ? "buf0" : util::format("buf%lluK",
                                               static_cast<unsigned long long>(
                                                   bytes / kKiB));
}

/** Word-at-a-time hash of a vector's bytes, chained through `h`. */
template <typename T>
std::uint64_t
hashColumn(const std::vector<T> &column, std::uint64_t h)
{
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(column.data());
    const std::size_t size = column.size() * sizeof(T);
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes + i, 8);
        h = (h ^ word) * 0x100000001b3ULL;
        h ^= h >> 29;
    }
    for (; i < size; ++i)
        h = (h ^ bytes[i]) * 0x100000001b3ULL;
    return (h ^ size) * 0x9e3779b97f4a7c15ULL;
}

/**
 * Content digest of an op stream's columns.  The header (client count,
 * duration) is left out: the text dialect stores it as a comment line,
 * which the text reader skips.
 */
std::int64_t
opsDigest(const prep::OpStream &s)
{
    const prep::OpColumns &c = s.ops;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = hashColumn(c.time, h);
    h = hashColumn(c.offset, h);
    h = hashColumn(c.length, h);
    h = hashColumn(c.file, h);
    h = hashColumn(c.pid, h);
    h = hashColumn(c.client, h);
    h = hashColumn(c.targetClient, h);
    h = hashColumn(c.type, h);
    h = hashColumn(c.openFlags, h);
    return static_cast<std::int64_t>(h);
}

/** A real-valued statistic as a fixed-point integer (1e-6 units). */
std::int64_t
fixed(double value)
{
    return std::llround(value * 1e6);
}

Fields
metricsFields(const core::Metrics &m)
{
    Fields f = {
        {"app_write_bytes", i64(m.appWriteBytes)},
        {"app_read_bytes", i64(m.appReadBytes)},
        {"server_read_bytes", i64(m.serverReadBytes)},
        {"bus_bytes", i64(m.busBytes)},
        {"nvram_read_accesses", i64(m.nvramReadAccesses)},
        {"nvram_write_accesses", i64(m.nvramWriteAccesses)},
        {"cache_to_nvram_bytes", i64(m.cacheToNvramBytes)},
        {"nvram_to_cache_bytes", i64(m.nvramToCacheBytes)},
        {"absorbed_deleted_bytes", i64(m.absorbedDeletedBytes)},
        {"absorbed_overwritten_bytes", i64(m.absorbedOverwrittenBytes)},
        {"lost_dirty_bytes", i64(m.lostDirtyBytes)},
    };
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(core::WriteCause::Count_); ++c) {
        const auto cause = static_cast<core::WriteCause>(c);
        f.emplace_back(fieldName("server_write." + core::writeCauseName(cause)),
                       i64(m.serverWrites(cause)));
    }
    return f;
}

Fields
fsFields(const server::FsStats &s, const std::string &prefix)
{
    const lfs::LogStats &l = s.log;
    return {
        {prefix + "segments_written", i64(l.segmentsWritten)},
        {prefix + "full_segments", i64(l.fullSegments)},
        {prefix + "partial_segments", i64(l.partialSegments)},
        {prefix + "partials_by_fsync", i64(l.partialsByFsync)},
        {prefix + "partials_by_timeout", i64(l.partialsByTimeout)},
        {prefix + "cleaner_segments", i64(l.cleanerSegments)},
        {prefix + "data_bytes", i64(l.dataBytes)},
        {prefix + "metadata_bytes", i64(l.metadataBytes)},
        {prefix + "summary_bytes", i64(l.summaryBytes)},
        {prefix + "fsync_data_bytes", i64(l.fsyncDataBytes)},
        {prefix + "partial_data_bytes", i64(l.partialDataBytes)},
        {prefix + "cleaner_copied_bytes", i64(l.cleanerCopiedBytes)},
        {prefix + "arrived_bytes", i64(s.arrivedBytes)},
        {prefix + "fsyncs", i64(s.fsyncs)},
        {prefix + "fsyncs_absorbed", i64(s.fsyncsAbsorbed)},
        {prefix + "buffer_overflows", i64(s.bufferOverflows)},
    };
}

std::string
exceptionText()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

/**
 * Run `produce` (one Fields per name) and append the cells; if it
 * throws, every cell it was to produce fails with the message.
 */
template <typename Produce>
void
addCells(PassOutput &out, const std::vector<std::string> &names,
         std::uint64_t events_each, Produce &&produce)
{
    std::vector<Fields> fields;
    std::string error;
    try {
        fields = produce();
        if (fields.size() != names.size())
            error = util::format("produced %zu cells, expected %zu",
                                 fields.size(), names.size());
    } catch (...) {
        error = exceptionText();
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
        Cell cell{names[i], {}, error, {}};
        if (error.empty()) {
            cell.fields = std::move(fields[i]);
            out.events += events_each;
        }
        out.cells.push_back(std::move(cell));
    }
}

/** Cell lookup for the cross-checks (nullptr if absent or failed). */
Cell *
findCell(PassOutput &out, const std::string &name)
{
    for (Cell &cell : out.cells) {
        if (cell.name == name)
            return cell.error.empty() ? &cell : nullptr;
    }
    return nullptr;
}

/** Fail `b` unless cells `a` and `b` hold identical statistics. */
void
checkSame(PassOutput &out, const std::string &a, const std::string &b,
          const char *why)
{
    const Cell *ca = findCell(out, a);
    Cell *cb = findCell(out, b);
    if (ca == nullptr || cb == nullptr)
        return; // already failed
    for (std::size_t i = 0; i < cb->fields.size(); ++i) {
        if (i >= ca->fields.size() || ca->fields[i] != cb->fields[i]) {
            cb->wrong = util::format(
                "differs from %s in field %s (%s)", a.c_str(),
                cb->fields[i].first.c_str(), why);
            return;
        }
    }
}

/**
 * Client-side artifacts of the paper: fig2, table2, fig3 (omniscient
 * grid plus LRU baseline), fig4, fig5, fig6 and the cost table, with
 * the bench binaries' configurations, over all eight traces.
 */
class PaperClient : public Workload
{
  public:
    explicit PaperClient(const Options &o)
        : seed_(o.seed), scale_(o.smoke ? 0.02 : 1.0)
    {
    }

    std::map<std::string, std::string>
    params() const override
    {
        return {{"scale", util::format("%g", scale_)},
                {"traces", "1-8"}};
    }

    void
    setup() override
    {
        const core::SweepRunner runner;
        std::vector<std::function<prep::OpStream()>> tasks;
        const Span root("core.sim.map");
        for (int t = 1; t <= 8; ++t) {
            tasks.push_back([this, t, parent = root.id()] {
                const Span span("workload.generate", parent);
                return core::opsWithSeed(t, scale_, seed_);
            });
        }
        ops_ = runner.map(tasks);
    }

    PassOutput
    pass() override
    {
        PassOutput out;
        const core::SweepRunner runner;
        lifetimes(out);
        std::vector<std::unique_ptr<core::NextModifyIndex>> oracles =
            buildOracles(out);
        fig3Omniscient(out, runner, oracles);
        const std::vector<double> grid_mb(std::begin(bench::kNvramSizeGrid),
                                          std::end(bench::kNvramSizeGrid));
        for (int t = 1; t <= 8; ++t) {
            curve(out, runner, util::format("fig3.lru.t%d", t), t,
                  nvramGridSpec(), grid_mb);
        }
        fig4(out, runner, oracles[6].get());
        fig5(out, runner);
        // The cost table sweeps the same four series as fig6.
        const std::vector<double> extra_mb(std::begin(kExtraMb),
                                           std::end(kExtraMb));
        for (const char *table : {"fig6", "cost"}) {
            for (const Bytes base : {8 * kMiB, 16 * kMiB}) {
                for (const auto kind : {core::ModelKind::Volatile,
                                        core::ModelKind::Unified}) {
                    curve(out, runner,
                          util::format("%s.%s%llu", table,
                                       kind == core::ModelKind::Volatile
                                           ? "vol"
                                           : "uni",
                                       static_cast<unsigned long long>(
                                           base / kMiB)),
                          7, extraMemorySpec(kind, base), extra_mb);
                }
            }
        }
        // Lifetime and oracle cells are one pass over each trace;
        // every other cell is one client replay of its trace.
        std::uint64_t trace_passes = 0;
        for (int t = 1; t <= 8; ++t)
            trace_passes += 2 * opCount(t);
        out.counts["core.client.op_replays"] =
            static_cast<double>(out.events - trace_passes);
        return out;
    }

    void
    check(PassOutput &out) const override
    {
        // The per-size grid (fig5) against the single-pass curve
        // engine (fig6): the same configurations by two engines.
        for (const double extra : kExtraMb) {
            checkSame(out, "fig6.vol8." + label(extra),
                      "fig5.volatile." + label(extra),
                      "grid vs curve engine");
            checkSame(out, "fig6.uni8." + label(extra),
                      "fig5.unified." + label(extra),
                      "grid vs curve engine");
            for (const char *series : {"vol8", "uni8", "vol16", "uni16"})
                checkSame(out,
                          util::format("fig6.%s.", series) + label(extra),
                          util::format("cost.%s.", series) + label(extra),
                          "repeated curve");
        }
        for (const double mb : bench::kNvramSizeGrid) {
            checkSame(out, "fig3.omniscient.t7." + label(mb),
                      "fig4.omniscient." + label(mb),
                      "sweep map vs replay grid");
            checkSame(out, "fig3.lru.t7." + label(mb),
                      "fig4.lru." + label(mb), "repeated curve");
        }
        for (int t = 1; t <= 8; ++t) {
            Cell *cell = findCell(out, util::format("life.t%d", t));
            if (cell == nullptr)
                continue;
            std::int64_t fates = 0;
            std::int64_t prev = std::numeric_limits<std::int64_t>::max();
            std::int64_t written = 0;
            for (const auto &[name, value] : cell->fields) {
                if (name.rfind("fate.", 0) == 0)
                    fates += value;
                if (name == "total_written")
                    written = value;
                if (name.rfind("net_pct.", 0) == 0) {
                    if (value > prev)
                        cell->wrong = "net write traffic rises with "
                                      "the write-back delay at " + name;
                    prev = value;
                }
            }
            if (fates != written)
                cell->wrong = "byte fates do not sum to total_written";
        }
    }

  private:
    std::uint64_t
    opCount(int t) const
    {
        return ops_[t - 1].ops.size();
    }

    void
    lifetimes(PassOutput &out)
    {
        for (int t = 1; t <= 8; ++t) {
            addCells(out, {util::format("life.t%d", t)}, opCount(t), [&] {
                const Span span("core.lifetime.analyze");
                const core::LifetimeResult life =
                    core::analyzeLifetimes(ops_[t - 1]);
                Fields f = {{"total_written", i64(life.totalWritten)},
                            {"runs", i64(life.runs.size())}};
                for (std::size_t k = 0;
                     k < static_cast<std::size_t>(core::ByteFate::Count_);
                     ++k) {
                    f.emplace_back(
                        fieldName("fate." +
                                  core::byteFateName(
                                      static_cast<core::ByteFate>(k))),
                        i64(life.byFate[k]));
                }
                for (const double d : kDelaysMin) {
                    f.emplace_back(
                        util::format("net_pct.%gmin", d),
                        fixed(life.netWriteTrafficPct(
                            static_cast<TimeUs>(d * kUsPerMinute))));
                }
                return std::vector<Fields>{std::move(f)};
            });
        }
    }

    std::vector<std::unique_ptr<core::NextModifyIndex>>
    buildOracles(PassOutput &out)
    {
        std::vector<std::unique_ptr<core::NextModifyIndex>> oracles(8);
        for (int t = 1; t <= 8; ++t) {
            addCells(out, {util::format("oracle.t%d", t)}, opCount(t),
                     [&] {
                         const Span span("core.lifetime.oracle");
                         oracles[t - 1] =
                             std::make_unique<core::NextModifyIndex>(
                                 ops_[t - 1]);
                         return std::vector<Fields>{
                             {{"blocks",
                               i64(oracles[t - 1]->blockCount())}}};
                     });
        }
        return oracles;
    }

    static core::ModelConfig
    unified(Bytes nvram, cache::PolicyKind policy,
            const cache::NextModifyOracle *oracle)
    {
        core::ModelConfig model;
        model.kind = core::ModelKind::Unified;
        model.volatileBytes = 8 * kMiB;
        model.nvramBytes = nvram;
        model.nvramPolicy = policy;
        model.oracle = oracle;
        return model;
    }

    /** fig3's (size x trace) omniscient grid on SweepRunner::map. */
    void
    fig3Omniscient(
        PassOutput &out, const core::SweepRunner &runner,
        const std::vector<std::unique_ptr<core::NextModifyIndex>> &oracles)
    {
        const Span replay("core.client.replay.omniscient");
        const Span sweep("core.sim.map");
        std::vector<std::function<Cell()>> tasks;
        for (const double mb : bench::kNvramSizeGrid) {
            for (int t = 1; t <= 8; ++t) {
                const std::string name =
                    util::format("fig3.omniscient.t%d.", t) + label(mb);
                const cache::NextModifyOracle *oracle =
                    oracles[t - 1].get();
                tasks.push_back([this, t, mb, name, oracle,
                                 parent = sweep.id()] {
                    const Span task("core.sim.task", parent);
                    Cell cell{name, {}, {}, {}};
                    try {
                        if (oracle == nullptr)
                            throw std::runtime_error("no oracle");
                        cell.fields = metricsFields(core::runClientSim(
                            ops_[t - 1],
                            unified(static_cast<Bytes>(mb * kMiB),
                                    cache::PolicyKind::Omniscient,
                                    oracle)));
                    } catch (...) {
                        cell.error = exceptionText();
                    }
                    return cell;
                });
            }
        }
        std::vector<Cell> cells = runner.map(tasks);
        std::size_t next = 0;
        for (Cell &cell : cells) {
            if (cell.error.empty())
                out.events += opCount(static_cast<int>(next % 8) + 1);
            ++next;
            out.cells.push_back(std::move(cell));
        }
    }

    /** fig3/fig4's unified-model LRU sweep over the NVRAM size grid. */
    static core::CurveSpec
    nvramGridSpec()
    {
        core::CurveSpec spec;
        spec.base.kind = core::ModelKind::Unified;
        spec.base.volatileBytes = 8 * kMiB;
        spec.axis = core::CurveAxis::NvramBytes;
        spec.sizes = bench::nvramSizeGridBytes();
        return spec;
    }

    /**
     * fig6/cost-table series: `base` plus kExtraMb of volatile memory
     * (volatile model) or of NVRAM (unified model, one block for 0).
     */
    static core::CurveSpec
    extraMemorySpec(core::ModelKind kind, Bytes base)
    {
        core::CurveSpec spec;
        spec.base.kind = kind;
        for (const double extra : kExtraMb) {
            const auto bytes = static_cast<Bytes>(extra * kMiB);
            if (kind == core::ModelKind::Volatile) {
                spec.axis = core::CurveAxis::VolatileBytes;
                spec.sizes.push_back(base + bytes);
            } else {
                spec.base.volatileBytes = base;
                spec.axis = core::CurveAxis::NvramBytes;
                spec.sizes.push_back(extra == 0 ? kBlockSize : bytes);
            }
        }
        return spec;
    }

    /**
     * One LRU size sweep of trace `t` through
     * SweepRunner::runCurveSweep; cell i is named prefix.points[i].
     */
    void
    curve(PassOutput &out, const core::SweepRunner &runner,
          const std::string &prefix, int t, const core::CurveSpec &spec,
          const std::vector<double> &points)
    {
        std::vector<std::string> names;
        for (const double p : points)
            names.push_back(prefix + "." + label(p));
        const Span replay(spec.base.kind == core::ModelKind::Volatile
                              ? "core.client.replay.volatile"
                              : "core.client.replay.lru");
        addCells(out, names, opCount(t), [&] {
            const Span span("core.sim.curve");
            std::vector<Fields> rows;
            for (const core::Metrics &m :
                 runner.runCurveSweep(ops_[t - 1], spec))
                rows.push_back(metricsFields(m));
            return rows;
        });
    }

    /** One replay grid of same-model cells via core::runClientGrid. */
    void
    grid(PassOutput &out, const core::SweepRunner &runner,
         const char *span_name, const std::vector<std::string> &names,
         const std::vector<core::ModelConfig> &models)
    {
        const Span replay(span_name);
        addCells(out, names, opCount(7), [&] {
            std::vector<Fields> rows;
            for (const core::Metrics &m : core::runClientGrid(
                     ops_[6], models, 42, runner.jobs()))
                rows.push_back(metricsFields(m));
            return rows;
        });
    }

    void
    fig4(PassOutput &out, const core::SweepRunner &runner,
         const cache::NextModifyOracle *oracle7)
    {
        curve(out, runner, "fig4.lru", 7, nvramGridSpec(),
              {std::begin(bench::kNvramSizeGrid),
               std::end(bench::kNvramSizeGrid)});
        const std::pair<cache::PolicyKind, const char *> policies[] = {
            {cache::PolicyKind::Random, "random"},
            {cache::PolicyKind::Clock, "clock"},
            {cache::PolicyKind::Omniscient, "omniscient"}};
        for (const auto &[policy, name] : policies) {
            std::vector<std::string> names;
            std::vector<core::ModelConfig> models;
            for (const double mb : bench::kNvramSizeGrid) {
                names.push_back(util::format("fig4.%s.", name) + label(mb));
                models.push_back(unified(
                    static_cast<Bytes>(mb * kMiB), policy,
                    policy == cache::PolicyKind::Omniscient ? oracle7
                                                            : nullptr));
            }
            if (policy == cache::PolicyKind::Omniscient && !oracle7) {
                addCells(out, names, 0, []() -> std::vector<Fields> {
                    throw std::runtime_error("no oracle for trace 7");
                });
                continue;
            }
            grid(out, runner,
                 policy == cache::PolicyKind::Random
                     ? "core.client.replay.random"
                 : policy == cache::PolicyKind::Clock
                     ? "core.client.replay.clock"
                     : "core.client.replay.omniscient",
                 names, models);
        }
    }

    void
    fig5(PassOutput &out, const core::SweepRunner &runner)
    {
        const std::pair<core::ModelKind, const char *> kinds[] = {
            {core::ModelKind::Volatile, "volatile"},
            {core::ModelKind::WriteAside, "write_aside"},
            {core::ModelKind::Unified, "unified"}};
        for (const auto &[kind, name] : kinds) {
            std::vector<std::string> names;
            std::vector<core::ModelConfig> models;
            for (const double extra : kExtraMb) {
                names.push_back(util::format("fig5.%s.", name) +
                                label(extra));
                core::ModelConfig model;
                model.kind = kind;
                if (kind == core::ModelKind::Volatile) {
                    model.volatileBytes =
                        static_cast<Bytes>((8 + extra) * kMiB);
                } else {
                    model.volatileBytes = 8 * kMiB;
                    model.nvramBytes =
                        extra == 0 ? kBlockSize
                                   : static_cast<Bytes>(extra * kMiB);
                }
                models.push_back(model);
            }
            grid(out, runner,
                 kind == core::ModelKind::Volatile
                     ? "core.client.replay.volatile"
                 : kind == core::ModelKind::WriteAside
                     ? "core.client.replay.write_aside"
                     : "core.client.replay.unified",
                 names, models);
        }
    }

    std::uint64_t seed_;
    double scale_;
    std::vector<prep::OpStream> ops_;
};

/** A server op stream replayed by server_replay and crashsweep. */
struct ServerStream
{
    std::string name;
    std::vector<std::string> fsNames;
    std::vector<workload::ServerOp> ops;
    std::string error; ///< set-up failure: every cell of it fails
};

const std::pair<core::ModelKind, const char *> kClientModels[] = {
    {core::ModelKind::Volatile, "volatile"},
    {core::ModelKind::WriteAside, "write_aside"},
    {core::ModelKind::Unified, "unified"}};

/**
 * The server-bound streams of `traces`' client output, one per
 * client model, built in parallel: `generate(t)` for each trace, then
 * client replay with `seed`.
 */
std::vector<ServerStream>
clientServerStreams(const std::vector<int> &traces,
                    const std::function<prep::OpStream(int)> &generate,
                    std::uint64_t seed)
{
    struct Generated
    {
        prep::OpStream ops;
        std::string error;
    };
    const core::SweepRunner runner;
    std::vector<Generated> generated;
    {
        const Span sweep("core.sim.map");
        std::vector<std::function<Generated()>> tasks;
        for (const int t : traces) {
            tasks.push_back([t, &generate, parent = sweep.id()] {
                const Span span("workload.generate", parent);
                Generated g;
                try {
                    g.ops = generate(t);
                } catch (...) {
                    g.error = exceptionText();
                }
                return g;
            });
        }
        generated = runner.map(tasks);
    }
    const Span sweep("core.sim.map");
    std::vector<std::function<ServerStream()>> tasks;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        for (const auto &[kind, name] : kClientModels) {
            tasks.push_back([&generated, i, kind = kind, name = name,
                             t = traces[i], seed, parent = sweep.id()] {
                const Span span("core.client.collect", parent);
                ServerStream stream{util::format("t%d.%s", t, name),
                                    {"/fs"}, {}, generated[i].error};
                if (!stream.error.empty())
                    return stream;
                try {
                    core::ModelConfig model;
                    model.kind = kind;
                    stream.ops =
                        core::collectServerOps(generated[i].ops, model, seed);
                } catch (...) {
                    stream.error = exceptionText();
                }
                return stream;
            });
        }
    }
    return runner.map(tasks);
}

/** Cell name of one run of `stream`. */
std::string
runName(const char *kind, const ServerStream &stream, Bytes buffer)
{
    return std::string(kind) + "." + stream.name + "." + bufferLabel(buffer);
}

/**
 * FileServer::run over the eight traces' server-bound client output
 * (per client model) and over Section 3 file-system profile days,
 * each unbuffered and with a 512 KB NVRAM write buffer.
 */
class ServerReplay : public Workload
{
  public:
    explicit ServerReplay(const Options &o)
        : seed_(o.seed), clientScale_(o.smoke ? 0.02 : 0.25),
          fsScale_(o.smoke ? 0.05 : 1.0),
          days_(o.smoke ? 1 : 4)
    {
    }

    std::map<std::string, std::string>
    params() const override
    {
        return {{"client_scale", util::format("%g", clientScale_)},
                {"traces", "1-8"},
                {"fs_profile_scale", util::format("%g", fsScale_)},
                {"fs_profile_days", std::to_string(days_)}};
    }

    void
    setup() override
    {
        streams_ = clientServerStreams(
            {1, 2, 3, 4, 5, 6, 7, 8},
            [this](int t) {
                return core::opsWithSeed(t, clientScale_, seed_);
            },
            seed_);
        const auto profiles = workload::standardFsProfiles(fsScale_);
        std::vector<std::string> names;
        for (const auto &profile : profiles)
            names.push_back(profile.name);
        for (int d = 0; d < days_; ++d) {
            const Span span("workload.generate");
            streams_.push_back(
                {util::format("fs.day%d", d), names,
                 workload::generateServerOps(
                     profiles, 24 * kUsPerHour,
                     seed_ * 1000003ULL + static_cast<std::uint64_t>(d)),
                 {}});
        }
    }

    PassOutput
    pass() override
    {
        struct Run
        {
            Cell cell;
            std::uint64_t ops = 0;
            std::uint64_t segments = 0;
            std::uint64_t diskBytes = 0;
        };
        const core::SweepRunner runner;
        const Span sweep("core.sim.map");
        std::vector<std::function<Run()>> tasks;
        for (const ServerStream &stream : streams_) {
            for (const Bytes buffer : kBufferSizes) {
                tasks.push_back([&stream, buffer, parent = sweep.id()] {
                    const Span task("core.sim.task", parent);
                    Run run;
                    run.cell.name = runName("server", stream, buffer);
                    if (!stream.error.empty()) {
                        run.cell.error = "set-up: " + stream.error;
                        return run;
                    }
                    try {
                        server::ServerConfig config;
                        config.nvramBufferBytes = buffer;
                        server::FileServer fs(stream.fsNames, config);
                        {
                            const Span span("server.run");
                            fs.run(stream.ops);
                        }
                        fs.auditInvariants();
                        for (FsId i = 0; i < fs.fsCount(); ++i) {
                            const server::FsStats &s = fs.stats(i);
                            const Fields f = fsFields(
                                s, fs.fsCount() == 1
                                       ? ""
                                       : util::format("fs%u.", unsigned{i}));
                            run.cell.fields.insert(run.cell.fields.end(),
                                                   f.begin(), f.end());
                            run.segments += s.log.segmentsWritten;
                            run.diskBytes += s.log.diskBytes();
                        }
                        run.ops = stream.ops.size();
                    } catch (...) {
                        run.cell.error = exceptionText();
                    }
                    return run;
                });
            }
        }
        PassOutput out;
        for (Run &run : runner.map(tasks)) {
            out.events += run.ops;
            out.counts["server.ops"] += static_cast<double>(run.ops);
            out.counts["lfs.segments_written"] +=
                static_cast<double>(run.segments);
            out.counts["lfs.disk_bytes"] +=
                static_cast<double>(run.diskBytes);
            out.cells.push_back(std::move(run.cell));
        }
        return out;
    }

    void
    check(PassOutput &out) const override
    {
        // The write buffer changes when data reaches the disk, never
        // what arrives at the server.
        for (const ServerStream &stream : streams_) {
            const Cell *plain =
                findCell(out, runName("server", stream, kBufferSizes[0]));
            Cell *buffered =
                findCell(out, runName("server", stream, kBufferSizes[1]));
            if (plain == nullptr || buffered == nullptr)
                continue;
            for (std::size_t i = 0; i < plain->fields.size(); ++i) {
                const std::string &field = plain->fields[i].first;
                const bool invariant =
                    field.ends_with("arrived_bytes") ||
                    (field.ends_with("fsyncs") &&
                     !field.ends_with("_fsyncs"));
                if (invariant && (i >= buffered->fields.size() ||
                                  buffered->fields[i] != plain->fields[i])) {
                    buffered->wrong =
                        "field " + field + " differs from the unbuffered run";
                    break;
                }
            }
        }
    }

  private:
    std::uint64_t seed_;
    double clientScale_;
    double fsScale_;
    int days_;
    std::vector<ServerStream> streams_;
};

/**
 * crash::explore over traces 3 and 7, three client models x buffers
 * {0, 512K}, a seeded site sample and no shrinking; serial, as
 * `nvfs_sim crashsweep` runs it.  Like the tool, it explores the
 * standard traces, and the seed draws only the crash sites: between
 * generator seeds, trace 3's server stream length varies by about 13%
 * at this scale, and explore time grows faster than the length.
 */
class CrashSweep : public Workload
{
  public:
    explicit CrashSweep(const Options &o)
        : seed_(o.seed), scale_(o.smoke ? 0.01 : 0.05),
          sample_(o.smoke ? 3 : 40)
    {
    }

    std::map<std::string, std::string>
    params() const override
    {
        return {{"scale", util::format("%g", scale_)},
                {"traces", "3,7 (standard)"},
                {"sample_sites", std::to_string(sample_)}};
    }

    void
    setup() override
    {
        streams_ = clientServerStreams(
            {3, 7},
            [this](int t) {
                return prep::convertTrace(
                    workload::generateStandardTrace(t, scale_));
            },
            seed_);
    }

    PassOutput
    pass() override
    {
        PassOutput out;
        std::uint64_t cell_index = 0;
        for (const ServerStream &stream : streams_) {
            for (const Bytes buffer : kBufferSizes) {
                // A seed per cell: with one seed, cells of similar
                // site counts would crash at the same relative points.
                const std::uint64_t sample_seed =
                    seed_ * 1000003ULL + cell_index++;
                Cell cell{runName("crash", stream, buffer), {}, {}, {}};
                if (!stream.error.empty()) {
                    cell.error = "set-up: " + stream.error;
                    out.cells.push_back(std::move(cell));
                    continue;
                }
                try {
                    crash::ExploreConfig config;
                    config.server.nvramBufferBytes = buffer;
                    config.fsNames = stream.fsNames;
                    config.seed = sample_seed;
                    config.sampleSites = sample_;
                    config.shrinkOnFailure = false;
                    const crash::ExploreResult r = [&] {
                        const Span span("crash.explore");
                        return crash::explore(stream.ops, config);
                    }();
                    cell.fields = {
                        {"sites_total", i64(r.sitesTotal)},
                        {"crashes_explored", i64(r.crashesExplored)},
                        {"violations", i64(r.violations.size())},
                        {"segments_quarantined", i64(r.segmentsQuarantined)},
                        {"blocks_lost", i64(r.blocksLost)},
                        {"meta_ops_lost", i64(r.metaOpsLost)}};
                    for (std::size_t k = 0; k < crash::kSiteKinds; ++k) {
                        cell.fields.emplace_back(
                            fieldName("sites." +
                                      nvram::crashSiteKindName(
                                          static_cast<nvram::CrashSiteKind>(k))),
                            i64(r.sitesByKind[k]));
                    }
                    if (!r.violations.empty()) {
                        const crash::Violation &v = r.violations.front();
                        cell.wrong = util::format(
                            "%zu durability-oracle violation(s); first at "
                            "site %llu (%s): %s",
                            r.violations.size(),
                            static_cast<unsigned long long>(v.site),
                            nvram::crashSiteKindName(v.kind).c_str(),
                            v.what.c_str());
                    }
                    out.events += r.crashesExplored;
                    out.counts["crash.sites_total"] +=
                        static_cast<double>(r.sitesTotal);
                    out.counts["crash.crashes"] +=
                        static_cast<double>(r.crashesExplored);
                } catch (...) {
                    cell.error = exceptionText();
                }
                out.cells.push_back(std::move(cell));
            }
        }
        return out;
    }

    void
    check(PassOutput &) const override
    {
        // The durability oracle runs inside explore(); a violation
        // already failed its cell in pass().
    }

  private:
    std::uint64_t seed_;
    double scale_;
    std::uint64_t sample_;
    std::vector<ServerStream> streams_;
};

/**
 * Trace ingest: the eight traces (sprite-compat dialect) written as
 * binary and text files in set-up, then read back: binary through a
 * pipelined sweep (read + convert ahead of a one-model replay), text
 * through read + convert + characterize.
 */
class TraceFiles : public Workload
{
  public:
    explicit TraceFiles(const Options &o)
        : seed_(o.seed), scale_(o.smoke ? 0.02 : 1.0),
          dir_(o.workdir)
    {
    }

    std::map<std::string, std::string>
    params() const override
    {
        return {{"scale", util::format("%g", scale_)},
                {"traces", "1-8"},
                {"dialect", "sprite-compat"}};
    }

    void
    setup() override
    {
        expected_.assign(8, {});
        for (int t = 1; t <= 8; ++t) {
            trace::TraceBuffer buffer;
            {
                const Span span("workload.generate");
                workload::GeneratorOptions options;
                options.seed = seed_;
                options.spriteCompat = true;
                workload::ClientTraceGenerator generator(
                    workload::standardProfile(t, scale_), options);
                buffer = generator.generate();
            }
            {
                const Span span("trace.write");
                trace::writeTraceFile(path(t, "bin"), buffer);
                trace::writeTraceText(path(t, "txt"), buffer);
            }
            const Span span("prep.convert");
            expected_[t - 1] = {buffer.size(),
                                opsDigest(prep::convertTrace(buffer))};
        }
    }

    PassOutput
    pass() override
    {
        PassOutput out;
        binarySweep(out);
        textIngest(out);
        return out;
    }

    void
    check(PassOutput &out) const override
    {
        for (int t = 1; t <= 8; ++t) {
            for (const char *kind : {"bin", "txt"}) {
                Cell *cell =
                    findCell(out, util::format("ingest.%s.t%d", kind, t));
                if (cell == nullptr)
                    continue;
                const auto &[events, digest] = expected_[t - 1];
                if (cell->fields.at(0).second != i64(events) ||
                    cell->fields.at(2).second != digest) {
                    cell->wrong = util::format(
                        "%s read-back differs from the generated trace "
                        "in field %s",
                        kind,
                        cell->fields.at(0).second != i64(events)
                            ? "events"
                            : "ops_digest");
                }
            }
        }
    }

  private:
    struct Prepared
    {
        int trace = 0;
        prep::OpStream ops;
        prep::ConvertStats convert;
        std::uint64_t fileBytes = 0;
        std::string error;
    };

    std::string
    path(int t, const char *ext) const
    {
        return util::format("%s/trace%d.%s", dir_.c_str(), t, ext);
    }

    static std::uint64_t
    fileBytes(const std::string &p)
    {
        std::FILE *f = std::fopen(p.c_str(), "rb");
        if (f == nullptr)
            return 0;
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        std::fclose(f);
        return size < 0 ? 0 : static_cast<std::uint64_t>(size);
    }

    static void
    countIngest(PassOutput &out, const Prepared &p)
    {
        out.events += p.convert.eventsIn;
        out.counts["trace.bytes"] += static_cast<double>(p.fileBytes);
        out.counts["prep.events_in"] +=
            static_cast<double>(p.convert.eventsIn);
        out.counts["prep.ops_out"] += static_cast<double>(p.convert.opsOut);
    }

    static Fields
    ingestFields(const Prepared &p)
    {
        return {{"events", i64(p.convert.eventsIn)},
                {"ops", i64(p.ops.ops.size())},
                {"ops_digest", opsDigest(p.ops)},
                {"client_count", i64(p.ops.clientCount)},
                {"deduced_read_bytes", i64(p.convert.deducedReadBytes)},
                {"deduced_write_bytes", i64(p.convert.deducedWriteBytes)},
                {"orphan_events", i64(p.convert.orphanEvents)}};
    }

    void
    binarySweep(PassOutput &out)
    {
        std::vector<int> points;
        for (int t = 1; t <= 8; ++t)
            points.push_back(t);
        core::ModelConfig model;
        model.kind = core::ModelKind::Unified;
        const core::SweepRunner runner;
        const Span pipeline("core.sim.pipeline");
        auto prepare = [this, parent = pipeline.id()](int t) {
            const Span task("core.sim.prepare", parent);
            Prepared p;
            p.trace = t;
            try {
                p.fileBytes = fileBytes(path(t, "bin"));
                trace::TraceBuffer buffer;
                {
                    const Span span("trace.read_bin");
                    buffer = trace::readTraceFile(path(t, "bin"));
                }
                const Span span("prep.convert");
                p.ops = prep::convertTrace(buffer, &p.convert);
            } catch (...) {
                p.error = exceptionText();
            }
            return p;
        };
        auto replay = [&](Prepared p) {
            const Span step("core.sim.replay_step");
            Cell cell{util::format("ingest.bin.t%d", p.trace), {}, p.error, {}};
            if (cell.error.empty()) {
                try {
                    const Span span("core.client.replay.unified");
                    const std::vector<core::Metrics> m = core::runClientGrid(
                        p.ops, {model}, 42, runner.jobs());
                    cell.fields = ingestFields(p);
                    const Fields mf = metricsFields(m.at(0));
                    cell.fields.insert(cell.fields.end(), mf.begin(),
                                       mf.end());
                    countIngest(out, p);
                    out.counts["core.client.op_replays"] +=
                        static_cast<double>(p.ops.ops.size());
                } catch (...) {
                    cell.error = exceptionText();
                }
            }
            return cell;
        };
        for (Cell &cell : runner.runPipelined(points, prepare, replay))
            out.cells.push_back(std::move(cell));
    }

    void
    textIngest(PassOutput &out)
    {
        for (int t = 1; t <= 8; ++t) {
            Cell cell{util::format("ingest.txt.t%d", t), {}, {}, {}};
            try {
                Prepared p;
                p.fileBytes = fileBytes(path(t, "txt"));
                trace::TraceBuffer buffer;
                {
                    const Span span("trace.read_text");
                    buffer = trace::readTraceText(path(t, "txt"));
                }
                {
                    const Span span("prep.convert");
                    p.ops = prep::convertTrace(buffer, &p.convert);
                }
                const prep::WorkloadProfile profile = [&] {
                    const Span span("prep.characterize");
                    return prep::characterize(p.ops);
                }();
                cell.fields = ingestFields(p);
                const Fields pf = {
                    {"read_bytes", i64(profile.readBytes)},
                    {"write_bytes", i64(profile.writeBytes)},
                    {"opens", i64(profile.opens)},
                    {"deletes", i64(profile.deletes)},
                    {"fsyncs", i64(profile.fsyncs)},
                    {"read_ops", i64(profile.readSize.count())},
                    {"write_ops", i64(profile.writeSize.count())},
                    {"files", i64(profile.fileSize.count())},
                    {"seq_read_fraction",
                     fixed(profile.sequentialReadFraction)},
                    {"seq_write_fraction",
                     fixed(profile.sequentialWriteFraction)},
                    {"read_only_open_fraction",
                     fixed(profile.readOnlyOpenFraction)},
                    {"write_only_open_fraction",
                     fixed(profile.writeOnlyOpenFraction)}};
                cell.fields.insert(cell.fields.end(), pf.begin(), pf.end());
                countIngest(out, p);
            } catch (...) {
                cell.error = exceptionText();
            }
            out.cells.push_back(std::move(cell));
        }
    }

    std::uint64_t seed_;
    double scale_;
    std::string dir_;
    /** Per trace: generated event count and converted-ops digest. */
    std::vector<std::pair<std::uint64_t, std::int64_t>> expected_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &options)
{
    if (name == "paper_client")
        return std::make_unique<PaperClient>(options);
    if (name == "server_replay")
        return std::make_unique<ServerReplay>(options);
    if (name == "crashsweep")
        return std::make_unique<CrashSweep>(options);
    if (name == "trace_files")
        return std::make_unique<TraceFiles>(options);
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    return {"paper_client", "server_replay", "crashsweep", "trace_files"};
}

} // namespace perfbench
