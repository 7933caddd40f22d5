/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * interval-set updates, block-cache operations, policy victim
 * selection, LFS block appends, and whole-trace simulation throughput.
 */

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include <unistd.h>

#include "bench_util.hpp"
#include "cache/block_cache.hpp"
#include "core/sim/experiments.hpp"
#include "core/sim/sweep.hpp"
#include "lfs/log.hpp"
#include "obs/export.hpp"
#include "prep/op_cache.hpp"
#include "trace/stream.hpp"
#include "util/flat_map.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

using namespace nvfs;

namespace {

void
BM_IntervalSetInsert(benchmark::State &state)
{
    util::Rng rng(1);
    for (auto _ : state) {
        util::IntervalSet set;
        for (int i = 0; i < state.range(0); ++i) {
            const Bytes begin = rng.uniformInt(0, 1 << 20);
            set.insert(begin, begin + 512);
        }
        benchmark::DoNotOptimize(set.totalBytes());
    }
}
BENCHMARK(BM_IntervalSetInsert)->Arg(64)->Arg(1024);

void
BM_BlockCacheChurn(benchmark::State &state)
{
    util::Rng rng(2);
    for (auto _ : state) {
        cache::BlockCache cache(1024);
        for (int i = 0; i < 8192; ++i) {
            const cache::BlockId id{
                static_cast<FileId>(rng.uniformInt(0, 255)),
                static_cast<std::uint32_t>(rng.uniformInt(0, 63))};
            if (cache.contains(id)) {
                cache.touch(id, i);
                continue;
            }
            if (cache.full()) {
                const auto victim = cache.chooseVictim(i);
                cache.remove(*victim);
            }
            cache.insert(id, i);
        }
        benchmark::DoNotOptimize(cache.size());
    }
}
BENCHMARK(BM_BlockCacheChurn);

void
BM_PolicyVictim(benchmark::State &state)
{
    const auto kind = static_cast<cache::PolicyKind>(state.range(0));
    util::Rng rng(3);
    cache::BlockCache cache(4096, cache::makePolicy(kind, &rng));
    for (std::uint32_t i = 0; i < 4096; ++i)
        cache.insert({static_cast<FileId>(i), 0}, i);
    TimeUs now = 4096;
    for (auto _ : state) {
        const auto victim = cache.chooseVictim(now);
        cache.remove(*victim);
        cache.insert(*victim, ++now);
    }
}
BENCHMARK(BM_PolicyVictim)
    ->Arg(static_cast<int>(cache::PolicyKind::Lru))
    ->Arg(static_cast<int>(cache::PolicyKind::Random))
    ->Arg(static_cast<int>(cache::PolicyKind::Clock));

void
BM_LfsAppend(benchmark::State &state)
{
    for (auto _ : state) {
        lfs::LfsLog log;
        for (std::uint32_t i = 0; i < 4096; ++i)
            log.writeBlock(i % 64, i / 64, kBlockSize);
        log.seal(lfs::SealCause::Shutdown);
        benchmark::DoNotOptimize(log.stats().segmentsWritten);
    }
}
BENCHMARK(BM_LfsAppend);

void
BM_ClientSimTrace7(benchmark::State &state)
{
    // Small-scale end-to-end simulation throughput (ops/second).
    const auto &ops = core::standardOps(7, 0.05);
    for (auto _ : state) {
        core::ModelConfig model;
        model.kind = core::ModelKind::Unified;
        model.volatileBytes = 8 * kMiB;
        model.nvramBytes = kMiB;
        const auto metrics = core::runClientSim(ops, model);
        benchmark::DoNotOptimize(metrics.appWriteBytes);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(ops.ops.size()));
}
BENCHMARK(BM_ClientSimTrace7);

void
BM_ClusterSimReplay(benchmark::State &state)
{
    // End-to-end replay macrobenchmark: one whole trace through the
    // cluster simulator per iteration, per model, with the engine as
    // the last argument (0 = legacy per-block, 1 = extent).  The
    // extent/legacy pairs feed BENCH_e2e.json's speedup table.
    const auto trace = static_cast<int>(state.range(0));
    const auto kind = static_cast<core::ModelKind>(state.range(1));
    const bool extent = state.range(2) != 0;
    const auto &ops = core::standardOps(trace, core::benchScale());
    for (auto _ : state) {
        core::ModelConfig model;
        model.kind = kind;
        model.volatileBytes = 8 * kMiB;
        model.nvramBytes = kMiB;
        model.extentOps = extent;
        const auto metrics = core::runClientSim(ops, model);
        benchmark::DoNotOptimize(metrics.appWriteBytes);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(ops.ops.size()));
}
BENCHMARK(BM_ClusterSimReplay)
    ->ArgNames({"trace", "model", "engine"})
    ->Args({3, 0, 0})->Args({3, 0, 1})
    ->Args({3, 1, 0})->Args({3, 1, 1})
    ->Args({3, 2, 0})->Args({3, 2, 1})
    ->Args({4, 0, 0})->Args({4, 0, 1})
    ->Args({4, 1, 0})->Args({4, 1, 1})
    ->Args({4, 2, 0})->Args({4, 2, 1})
    ->Args({7, 0, 0})->Args({7, 0, 1})
    ->Args({7, 1, 0})->Args({7, 1, 1})
    ->Args({7, 2, 0})->Args({7, 2, 1})
    ->Unit(benchmark::kMillisecond);

void
BM_FlatMapLookup(benchmark::State &state)
{
    // Mixed hit/miss point lookups against a loaded table — the
    // access pattern of the BlockCache index and ClusterSim maps.
    const auto n = static_cast<std::uint64_t>(state.range(0));
    util::FlatMap<std::uint64_t, std::uint64_t, util::SplitMix64Hash>
        map;
    map.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i)
        map.insertOrAssign(i * 2, i); // even keys present, odd absent
    util::Rng rng(5);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        const auto key = static_cast<std::uint64_t>(
            rng.uniformInt(0, static_cast<int>(2 * n - 1)));
        const std::uint64_t *found = map.find(key);
        sum += found == nullptr ? 1 : *found;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatMapLookup)->Arg(1024)->Arg(65536);

void
BM_OpStreamReplay(benchmark::State &state)
{
    // Pure op-dispatch scan over the SoA columns, the shape of the
    // ClusterSim::run() main loop minus the model work.
    const auto &ops = core::standardOps(7, 0.05);
    const prep::OpColumns &col = ops.ops;
    for (auto _ : state) {
        Bytes read = 0;
        Bytes written = 0;
        std::uint64_t other = 0;
        for (std::size_t i = 0; i < col.size(); ++i) {
            switch (col.type[i]) {
              case prep::OpType::Read:
                read += col.length[i];
                break;
              case prep::OpType::Write:
                written += col.length[i];
                break;
              default:
                other += col.file[i];
                break;
            }
        }
        benchmark::DoNotOptimize(read + written + other);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(col.size()));
}
BENCHMARK(BM_OpStreamReplay);

void
BM_TraceCacheHit(benchmark::State &state)
{
    // Persistent-cache hit path: mmap + validate + column copy of a
    // real cache file, i.e. what standardOps() costs on a warm cache.
    const auto &ops = core::standardOps(7, 0.05);
    const std::uint64_t hash = 0x1234abcdu;
    const std::string path = "/tmp/nvfs_bench_ops_cache_" +
                             std::to_string(::getpid()) + ".nvfsops";
    if (!prep::storeCachedOps(path, ops, hash)) {
        state.SkipWithError("cannot write bench cache file");
        return;
    }
    for (auto _ : state) {
        auto loaded = prep::loadCachedOps(path, hash);
        benchmark::DoNotOptimize(loaded->ops.size());
    }
    std::remove(path.c_str());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(ops.ops.size()));
}
BENCHMARK(BM_TraceCacheHit);

void
BM_SweepRunner(benchmark::State &state)
{
    // An 8-config unified-model grid fanned out over Arg(0) worker
    // threads; Arg(0)=1 is the serial baseline for the speedup.
    const auto &ops = core::standardOps(7, 0.05);
    std::vector<core::ModelConfig> models;
    for (const double mb : {0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 16.0}) {
        core::ModelConfig model;
        model.kind = core::ModelKind::Unified;
        model.volatileBytes = 8 * kMiB;
        model.nvramBytes = static_cast<Bytes>(mb * kMiB);
        models.push_back(model);
    }
    const core::SweepRunner runner(
        static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        const auto results = runner.runClientSweep(ops, models);
        benchmark::DoNotOptimize(results.front().appWriteBytes);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(models.size()));
}
BENCHMARK(BM_SweepRunner)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void
BM_ReplayGrid(benchmark::State &state)
{
    // The replay grid scheduler itself: both engines x all three
    // models on trace 4, fanned out at explicit width jobs (1 = the
    // serial model loop the grid is bit-identical to).  The jobs:N /
    // jobs:1 real-time ratio is the grid speedup in BENCH_e2e.json.
    const auto width = static_cast<unsigned>(state.range(0));
    const auto &ops = core::standardOps(4, 0.05);
    std::vector<core::ModelConfig> models;
    for (const bool extent : {false, true}) {
        for (const auto kind :
             {core::ModelKind::Volatile, core::ModelKind::WriteAside,
              core::ModelKind::Unified}) {
            core::ModelConfig model;
            model.kind = kind;
            model.volatileBytes = 8 * kMiB;
            model.nvramBytes = kMiB;
            model.extentOps = extent;
            models.push_back(model);
        }
    }
    for (auto _ : state) {
        const auto results =
            core::runClientGrid(ops, models, 42, width);
        benchmark::DoNotOptimize(results.front().appWriteBytes);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(models.size()));
}
BENCHMARK(BM_ReplayGrid)
    ->ArgName("jobs")
    ->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** Trace file on disk for the ingest benches, written once. */
const std::string &
benchTracePath(int trace, bool text)
{
    static std::map<std::uint64_t, std::string> paths;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(trace) << 1) | (text ? 1 : 0);
    const auto it = paths.find(key);
    if (it != paths.end())
        return it->second;
    const std::string path = "/tmp/nvfs_bench_ingest_" +
                             std::to_string(::getpid()) + "_t" +
                             std::to_string(trace) +
                             (text ? ".txt" : ".nvt");
    const auto buffer =
        workload::generateStandardTrace(trace, core::benchScale());
    if (text)
        trace::writeTraceText(path, buffer);
    else
        trace::writeTraceFile(path, buffer);
    return paths.emplace(key, path).first->second;
}

void
BM_ParallelIngest(benchmark::State &state)
{
    // mmap-chunked trace parse at a fixed worker count: jobs=1 is the
    // serial baseline for the parallel-ingest speedup.  Arg(1) picks
    // the format (0 = binary records, 1 = text lines).
    const auto jobs = static_cast<unsigned>(state.range(0));
    const bool text = state.range(1) != 0;
    const std::string &path = benchTracePath(7, text);
    util::ThreadPool pool(jobs);
    for (auto _ : state) {
        const auto buffer = text ? trace::readTraceText(path, &pool)
                                 : trace::readTraceFile(path, &pool);
        benchmark::DoNotOptimize(buffer.events.size());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(
            std::filesystem::file_size(path)));
}
BENCHMARK(BM_ParallelIngest)
    ->ArgNames({"jobs", "text"})
    ->Args({1, 0})->Args({2, 0})->Args({4, 0})
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})
    ->UseRealTime();

} // namespace

// BENCHMARK_MAIN() expanded so the obs export hooks (NVFS_STATS_OUT /
// NVFS_TRACE_OUT) register before any benchmark runs —
// bench_compare.py reads the JSON snapshot to attach counter deltas
// to BENCH_e2e.json entries.
int
main(int argc, char **argv)
{
    nvfs::obs::autoExportFromEnv();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
