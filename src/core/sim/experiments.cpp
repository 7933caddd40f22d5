#include "core/sim/experiments.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "obs/obs.hpp"
#include "prep/converter.hpp"
#include "prep/op_cache.hpp"
#include "trace/codec.hpp"
#include "trace/validate.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "workload/server_workload.hpp"

namespace nvfs::core {

namespace {

using TraceKey = std::tuple<int, double, bool>;

/**
 * Bump when the generator, converter, or standard-seed formula
 * changes behaviour: it feeds the trace-cache fingerprint, so a bump
 * invalidates every cache file built by older code.
 */
constexpr std::uint32_t kTraceGenSchema = 1;

/**
 * Per-key memoization with per-key generation.  The first caller of a
 * key becomes its builder and runs build() *outside* the map lock;
 * concurrent callers of the same key block on that key's future while
 * callers of different keys build in parallel.  This replaces the
 * PR-1 scheme of one mutex held across the whole generate+validate+
 * convert call, which serialized all sweep workers on first touch.
 * Values are shared_ptrs pinned by the future map, so returned
 * references stay valid for the process lifetime.
 */
template <typename Key, typename Value>
class OnceMap
{
  public:
    template <typename Build>
    const Value &
    get(const Key &key, Build &&build)
    {
        std::promise<std::shared_ptr<const Value>> promise;
        std::shared_future<std::shared_ptr<const Value>> future;
        bool builder = false;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            auto it = futures_.find(key);
            if (it == futures_.end()) {
                it = futures_
                         .emplace(key, promise.get_future().share())
                         .first;
                builder = true;
            }
            future = it->second;
        }
        if (builder) {
            try {
                promise.set_value(
                    std::make_shared<const Value>(build()));
            } catch (...) {
                promise.set_exception(std::current_exception());
                throw;
            }
        }
        return *future.get();
    }

  private:
    std::mutex mutex_;
    std::map<Key, std::shared_future<std::shared_ptr<const Value>>>
        futures_;
};

OnceMap<TraceKey, prep::OpStream> &
traceCache()
{
    static OnceMap<TraceKey, prep::OpStream> cache;
    return cache;
}

OnceMap<std::pair<int, double>, LifetimeResult> &
lifetimeCache()
{
    static OnceMap<std::pair<int, double>, LifetimeResult> cache;
    return cache;
}

OnceMap<std::pair<int, double>, NextModifyIndex> &
oracleCache()
{
    static OnceMap<std::pair<int, double>, NextModifyIndex> cache;
    return cache;
}

/** Generate + validate + convert (the expensive cold path). */
prep::OpStream
generateOps(int paper_number, double scale, bool sprite_compat)
{
    trace::TraceBuffer buffer = workload::generateStandardTrace(
        paper_number, scale, sprite_compat);
    const auto report = trace::validateTrace(buffer);
    if (!report.ok()) {
        util::panic(util::format(
            "generated trace %d failed validation: %zu issues, "
            "first: %s",
            paper_number, report.issues.size(),
            report.issues.front().message.c_str()));
    }
    return prep::convertTrace(buffer);
}

/** Cache-aware build: try the persistent cache, else generate+store. */
prep::OpStream
buildStandardOps(int paper_number, double scale, bool sprite_compat)
{
    const auto dir = prep::traceCacheDir();
    std::string path;
    std::uint64_t fingerprint = 0;
    if (dir) {
        fingerprint =
            standardOpsFingerprint(paper_number, scale, sprite_compat);
        path = *dir + "/" +
               prep::opsCacheFileName(
                   static_cast<std::uint16_t>(paper_number - 1),
                   fingerprint);
        if (auto cached = prep::loadCachedOps(path, fingerprint))
            return std::move(*cached);
    }
    prep::OpStream ops =
        generateOps(paper_number, scale, sprite_compat);
    if (dir)
        prep::storeCachedOps(path, ops, fingerprint);
    return ops;
}

} // namespace

std::uint64_t
standardOpsFingerprint(int paper_number, double scale,
                       bool sprite_compat)
{
    const workload::TraceProfile profile =
        workload::standardProfile(paper_number, scale);
    std::string fp = workload::profileFingerprint(profile);
    fp += util::format("|paper=%d|compat=%d|schema=%u|codec=%u",
                       paper_number, sprite_compat ? 1 : 0,
                       kTraceGenSchema,
                       static_cast<unsigned>(prep::kOpsCacheVersion));
    return trace::fnv1a(fp.data(), fp.size());
}

const prep::OpStream &
standardOps(int paper_number, double scale, bool sprite_compat)
{
    return traceCache().get(
        TraceKey{paper_number, scale, sprite_compat}, [&] {
            return buildStandardOps(paper_number, scale,
                                    sprite_compat);
        });
}

prep::OpStream
opsWithSeed(int paper_number, double scale, std::uint64_t seed)
{
    const workload::TraceProfile profile =
        workload::standardProfile(paper_number, scale);
    // Same persistent-cache protocol as buildStandardOps, with the
    // seed folded into the fingerprint so each seed variant gets its
    // own cache file (reseeded sweeps used to bypass the cache).
    const auto dir = prep::traceCacheDir();
    std::string path;
    std::uint64_t fingerprint = 0;
    if (dir) {
        std::string fp = workload::profileFingerprint(profile);
        fp += util::format(
            "|paper=%d|seed=%llu|schema=%u|codec=%u", paper_number,
            static_cast<unsigned long long>(seed), kTraceGenSchema,
            static_cast<unsigned>(prep::kOpsCacheVersion));
        fingerprint = trace::fnv1a(fp.data(), fp.size());
        path = *dir + "/" +
               prep::opsCacheFileName(
                   static_cast<std::uint16_t>(paper_number - 1),
                   fingerprint);
        if (auto cached = prep::loadCachedOps(path, fingerprint))
            return std::move(*cached);
    }
    workload::GeneratorOptions options;
    options.seed = seed;
    workload::ClientTraceGenerator generator(profile, options);
    prep::OpStream ops = prep::convertTrace(generator.generate());
    if (dir)
        prep::storeCachedOps(path, ops, fingerprint);
    return ops;
}

const LifetimeResult &
standardLifetimes(int paper_number, double scale)
{
    return lifetimeCache().get(
        std::pair<int, double>{paper_number, scale}, [&] {
            return analyzeLifetimes(standardOps(paper_number, scale));
        });
}

const NextModifyIndex &
standardOracle(int paper_number, double scale)
{
    return oracleCache().get(
        std::pair<int, double>{paper_number, scale}, [&] {
            return NextModifyIndex(standardOps(paper_number, scale));
        });
}

Metrics
runClientSim(const prep::OpStream &ops, const ModelConfig &model,
             std::uint64_t seed)
{
    ClusterConfig config;
    config.model = model;
    config.seed = seed;
    ClusterSim sim(config, std::max<std::uint32_t>(1, ops.clientCount));
    return sim.run(ops);
}

unsigned
gridJobCount()
{
    return util::defaultJobCount();
}

std::vector<Metrics>
runClientGrid(const prep::OpStream &ops,
              const std::vector<ModelConfig> &models,
              std::uint64_t seed, unsigned width)
{
    static const obs::Counter cells("grid.cells");
    static const obs::Timer cellTimer("grid.cell");
    std::vector<Metrics> results(models.size());
    // One cell per chunk.  Which thread replays which cell varies run
    // to run, but each cell's simulation is self-contained
    // (runClientSim constructs a fresh ClusterSim/Metrics/Rng per
    // call), so the result vector is identical for any width.
    util::ThreadPool::ambient().parallelFor(
        0, models.size(),
        [&](std::size_t i, std::size_t) {
            const util::TaskLabel label(
                "replay grid model " + std::to_string(i) + " (" +
                modelKindName(models[i].kind) + ")");
            const obs::StageTimer stage(cellTimer, "grid.cell");
            cells.add();
            try {
                results[i] = runClientSim(ops, models[i], seed);
            } catch (...) {
                std::rethrow_exception(
                    util::wrapTaskContext(std::current_exception()));
            }
        },
        1, width);
    return results;
}

ServerRunResult
runServerSim(TimeUs duration, double scale, Bytes nvram_buffer_bytes,
             std::uint64_t seed)
{
    const auto profiles = workload::standardFsProfiles(scale);
    const auto ops = workload::generateServerOps(profiles, duration,
                                                 seed);
    std::vector<std::string> names;
    names.reserve(profiles.size());
    for (const auto &profile : profiles)
        names.push_back(profile.name);

    server::ServerConfig config;
    config.nvramBufferBytes = nvram_buffer_bytes;
    server::FileServer fs(names, config);
    fs.run(ops);

    ServerRunResult result;
    for (FsId i = 0; i < names.size(); ++i)
        result.fs.push_back(fs.stats(i));
    result.totalDiskWrites = fs.totalDiskWrites();
    result.totalDataBytes = fs.totalDataBytes();
    return result;
}

namespace {

/** Collects the client sims' server-bound traffic as ServerOps. */
class OpCollector : public ServerWriteSink
{
  public:
    void
    onServerWrite(TimeUs now, FileId file, std::uint32_t block,
                  Bytes bytes, WriteCause) override
    {
        ops_.push_back({now, 0, file,
                        Bytes{block} * kBlockSize, bytes,
                        workload::ServerOp::Kind::Write});
    }

    void
    onFsync(TimeUs now, FileId file) override
    {
        ops_.push_back({now, 0, file, 0, 0,
                        workload::ServerOp::Kind::Fsync});
    }

    std::vector<workload::ServerOp> take() { return std::move(ops_); }

  private:
    std::vector<workload::ServerOp> ops_;
};

} // namespace

std::vector<workload::ServerOp>
collectServerOps(const prep::OpStream &ops, const ModelConfig &model,
                 std::uint64_t seed)
{
    OpCollector collector;
    ClusterConfig cluster;
    cluster.model = model;
    cluster.model.sink = &collector;
    cluster.seed = seed;
    ClusterSim sim(cluster, std::max<std::uint32_t>(
                                1, ops.clientCount));
    sim.run(ops);
    return collector.take();
}

EndToEndResult
runEndToEnd(const prep::OpStream &ops, const ModelConfig &model,
            Bytes server_buffer_bytes, std::uint64_t seed)
{
    OpCollector collector;
    ClusterConfig cluster;
    cluster.model = model;
    cluster.model.sink = &collector;
    cluster.seed = seed;
    ClusterSim sim(cluster, std::max<std::uint32_t>(
                                1, ops.clientCount));

    EndToEndResult result;
    result.client = sim.run(ops);

    server::ServerConfig config;
    config.nvramBufferBytes = server_buffer_bytes;
    server::FileServer fs({"/users"}, config);
    fs.run(collector.take());
    result.server = fs.stats(0);
    return result;
}

double
benchScale()
{
    // A zero/negative scale would make every workload degenerate, so
    // the accepted range starts just above zero.
    return util::envDouble("NVFS_SCALE", 1.0, 1e-6, 1e6);
}

} // namespace nvfs::core
