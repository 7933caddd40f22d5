/**
 * @file
 * SweepRunner determinism and thread-pool behavior: a parallel sweep
 * must return exactly what the serial loop it replaces would have,
 * in the same order, for any worker count — and the memoized
 * experiment caches must be safe to hit from concurrent tasks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

#include "core/sim/sweep.hpp"
#include "prep/op_cache.hpp"
#include "trace/stream.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace nvfs::core {
namespace {

constexpr double kScale = 0.02;

/** The grid every determinism test sweeps: 3 models x 4 sizes. */
std::vector<ModelConfig>
standardGrid()
{
    std::vector<ModelConfig> models;
    for (const double mb : {0.25, 0.5, 1.0, 2.0}) {
        for (const auto kind :
             {ModelKind::Volatile, ModelKind::WriteAside,
              ModelKind::Unified}) {
            ModelConfig model;
            model.kind = kind;
            model.volatileBytes = 4 * kMiB;
            model.nvramBytes = static_cast<Bytes>(mb * kMiB);
            models.push_back(model);
        }
    }
    return models;
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    util::ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    util::ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DefaultJobCountIsPositive)
{
    EXPECT_GE(util::defaultJobCount(), 1u);
}

TEST(ThreadPool, WorkStealingNestedSubmissionStress)
{
    // A recursive fan-out of many tiny tasks: each task submits four
    // children from inside the pool (landing on the executing
    // worker's own deque), so completion requires idle workers to
    // steal.  Total tasks: 1 + 4 + ... + 4^5 = 1365.
    util::ThreadPool pool(4);
    std::atomic<int> count{0};
    std::function<void(int)> fan = [&](int depth) {
        ++count;
        if (depth == 0)
            return;
        for (int i = 0; i < 4; ++i)
            pool.submit([&fan, depth] { fan(depth - 1); });
    };
    pool.submit([&fan] { fan(5); });
    pool.wait();
    EXPECT_EQ(count.load(), 1365);
}

TEST(ThreadPool, ThrowingTaskSurfacesToWaitAndPoolStaysUsable)
{
    // Regression: a task that throws must not deadlock shutdown or
    // wedge the pool; the first exception reaches the next wait(),
    // every other task still runs, and the pool is reusable after.
    util::ThreadPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 32; ++i) {
        pool.submit([&ran, i] {
            ++ran;
            if (i % 8 == 0)
                throw std::runtime_error("task blew up");
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 32);
    pool.submit([&ran] { ++ran; });
    pool.wait(); // error was consumed above; this must not throw
    EXPECT_EQ(ran.load(), 33);
}

TEST(ThreadPool, ThrowingTasksDoNotDeadlockDestruction)
{
    // Destroying a pool with unobserved task exceptions (wait() never
    // called) must join cleanly instead of terminating or hanging.
    util::ThreadPool pool(4);
    for (int i = 0; i < 64; ++i)
        pool.submit([] { throw std::runtime_error("unobserved"); });
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    const std::size_t n = 10007; // prime: chunks never divide evenly
    for (const unsigned jobs : {1u, 2u, 8u}) {
        util::ThreadPool pool(jobs);
        std::vector<int> touched(n, 0);
        pool.parallelFor(0, n, [&touched](std::size_t b,
                                          std::size_t e) {
            for (std::size_t i = b; i < e; ++i)
                ++touched[i]; // chunks are disjoint: no race
        });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(touched[i], 1) << "index " << i << " at "
                                     << jobs << " jobs";
    }
}

TEST(ThreadPool, ParallelReduceBitIdenticalAcrossWidths)
{
    // Floating-point reduction: the chunk structure and combine order
    // depend only on the iteration count, so the sum must be
    // *bit-identical* (EXPECT_EQ, not NEAR) for any worker count.
    const std::size_t n = 4999;
    const auto produce = [](std::size_t b, std::size_t e) {
        double sum = 0.0;
        for (std::size_t i = b; i < e; ++i)
            sum += std::sin(static_cast<double>(i)) +
                   1.0 / static_cast<double>(i + 1);
        return sum;
    };
    const auto combine = [](double a, double b) { return a + b; };
    std::optional<double> reference;
    for (const unsigned jobs : {1u, 2u, 3u, 8u}) {
        util::ThreadPool pool(jobs);
        const double value =
            pool.parallelReduce(0, n, 0.0, produce, combine);
        if (!reference)
            reference = value;
        else
            EXPECT_EQ(*reference, value)
                << "reduction diverged at " << jobs << " jobs";
    }
}

TEST(ThreadPool, ParallelForRethrowsLowestChunkException)
{
    // Two chunks throw; the lowest-index chunk's exception must win
    // regardless of which worker reached it first — that is what
    // makes parallel error reporting match the serial loop.
    for (const unsigned jobs : {1u, 4u}) {
        util::ThreadPool pool(jobs);
        std::string what;
        try {
            pool.parallelFor(
                0, 64,
                [](std::size_t b, std::size_t) {
                    if (b == 3 || b == 10)
                        throw std::runtime_error(
                            "chunk " + std::to_string(b));
                },
                1);
        } catch (const std::runtime_error &error) {
            what = error.what();
        }
        EXPECT_EQ(what, "chunk 3") << "at " << jobs << " jobs";
    }
}

TEST(ThreadPool, ParallelForRunsAtMostWidthDriversAtOnce)
{
    // `width` bounds the threads running chunks at once, the caller
    // included, whether the caller is a pool worker or not.  Only an
    // upper bound is asserted: how many threads a run reaches is up
    // to the scheduler.
    util::ThreadPool pool(4);
    std::atomic<int> inFlight{0};
    std::atomic<int> peak{0};
    const auto body = [&](std::size_t, std::size_t) {
        const int now = inFlight.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        inFlight.fetch_sub(1);
    };
    for (const bool fromWorker : {false, true}) {
        for (const unsigned width : {0u, 2u}) {
            peak = 0;
            const auto run = [&] {
                pool.parallelFor(0, 64, body, 1, width);
            };
            if (fromWorker) {
                pool.submit(run);
                pool.wait();
            } else {
                run();
            }
            EXPECT_GE(peak.load(), 1);
            EXPECT_LE(peak.load(), width == 0 ? 4 : 2)
                << "width " << width
                << (fromWorker ? " from a pool task"
                               : " from a non-worker thread");
        }
    }
}

TEST(SweepRunner, MapPreservesSubmissionOrder)
{
    // More tasks than threads: results must still land in order.
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 64; ++i)
        tasks.push_back([i] { return i * i; });
    const SweepRunner runner(4);
    const auto results = runner.map(tasks);
    ASSERT_EQ(results.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(SweepRunner, MapRethrowsTaskExceptions)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([i]() -> int {
            if (i == 5)
                throw std::runtime_error("task 5 failed");
            return i;
        });
    }
    const SweepRunner runner(4);
    EXPECT_THROW(runner.map(tasks), std::runtime_error);
}

TEST(SweepRunner, EmptySweepIsEmpty)
{
    const SweepRunner runner(4);
    EXPECT_TRUE(runner.map(std::vector<std::function<int()>>{})
                    .empty());
    EXPECT_TRUE(runner
                    .runClientSweep(standardOps(7, kScale), {})
                    .empty());
}

TEST(SweepRunner, JobsResolveToAtLeastOne)
{
    EXPECT_GE(SweepRunner().jobs(), 1u);
    EXPECT_EQ(SweepRunner(3).jobs(), 3u);
}

TEST(SweepRunner, ClientSweepMatchesSerialForAnyWorkerCount)
{
    const auto &ops = standardOps(7, kScale);
    const auto models = standardGrid();

    std::vector<Metrics> serial;
    for (const ModelConfig &model : models)
        serial.push_back(runClientSim(ops, model));

    for (const unsigned jobs : {1u, 2u, 8u}) {
        const SweepRunner runner(jobs);
        const auto parallel = runner.runClientSweep(ops, models);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(parallel[i], serial[i])
                << "config " << i << " diverged at " << jobs
                << " jobs";
    }
}

TEST(SweepRunner, ClusterSweepMatchesSerial)
{
    const auto &ops = standardOps(2, kScale);
    std::vector<ClusterConfig> configs;
    for (const bool block_level : {false, true}) {
        ClusterConfig config;
        config.model.kind = ModelKind::Unified;
        config.model.volatileBytes = 4 * kMiB;
        config.model.nvramBytes = kMiB;
        config.blockLevelCallbacks = block_level;
        configs.push_back(config);
    }

    std::vector<Metrics> serial;
    for (const ClusterConfig &config : configs) {
        ClusterSim sim(config,
                       std::max<std::uint32_t>(1, ops.clientCount));
        serial.push_back(sim.run(ops));
    }

    const SweepRunner runner(2);
    const auto parallel = runner.runClusterSweep(ops, configs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(parallel[i], serial[i]);
}

TEST(SweepRunner, ServerSweepMatchesSerial)
{
    const TimeUs duration = kUsPerHour / 2;
    std::vector<ServerSweepConfig> configs;
    for (const Bytes buffer : {Bytes{0}, Bytes{128 * kKiB}})
        configs.push_back({duration, 0.1, buffer});

    std::vector<ServerRunResult> serial;
    for (const ServerSweepConfig &config : configs)
        serial.push_back(runServerSim(config.duration, config.scale,
                                      config.nvramBufferBytes,
                                      config.seed));

    const SweepRunner runner(2);
    const auto parallel = runner.runServerSweep(configs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].totalDiskWrites,
                  serial[i].totalDiskWrites);
        EXPECT_EQ(parallel[i].totalDataBytes,
                  serial[i].totalDataBytes);
        ASSERT_EQ(parallel[i].fs.size(), serial[i].fs.size());
        for (std::size_t f = 0; f < serial[i].fs.size(); ++f) {
            EXPECT_EQ(parallel[i].fs[f].log.segmentsWritten,
                      serial[i].fs[f].log.segmentsWritten);
            EXPECT_EQ(parallel[i].fs[f].log.dataBytes,
                      serial[i].fs[f].log.dataBytes);
        }
    }
}

TEST(SweepRunner, ConcurrentFirstTouchOfMemoizedCaches)
{
    // Many tasks hitting the same *cold* memoized entries: the mutex
    // guards must serialize generation and hand every task the same
    // stable reference.  Uses a (trace, scale) pair no other test
    // warms first.
    std::vector<std::function<const prep::OpStream *()>> tasks;
    for (int i = 0; i < 16; ++i) {
        tasks.push_back(
            [] { return &standardOps(3, 0.011); });
    }
    const SweepRunner runner(8);
    const auto pointers = runner.map(tasks);
    for (const prep::OpStream *ops : pointers)
        EXPECT_EQ(ops, pointers.front());

    // Same for the lifetime and oracle caches.
    std::vector<std::function<const void *()>> more;
    for (int i = 0; i < 8; ++i)
        more.push_back(
            [] { return static_cast<const void *>(
                     &standardLifetimes(3, 0.011)); });
    for (int i = 0; i < 8; ++i)
        more.push_back(
            [] { return static_cast<const void *>(
                     &standardOracle(3, 0.011)); });
    const auto stable = runner.map(more);
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(stable[i], stable[0]);
    for (int i = 9; i < 16; ++i)
        EXPECT_EQ(stable[i], stable[8]);
}

TEST(SweepRunner, TraceCacheRoundTripKeepsMetricsIdentical)
{
    // A trace that went through the persistent cache (encode, store,
    // mmap, decode) must replay to byte-identical metrics, serially
    // and in parallel — the cache changes where ops come from, never
    // what the simulator computes.
    const auto &ops = standardOps(7, kScale);
    const auto models = standardGrid();
    std::vector<Metrics> serial;
    for (const ModelConfig &model : models)
        serial.push_back(runClientSim(ops, model));

    const std::string dir =
        testing::TempDir() + "nvfs_sweep_trace_cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::uint64_t hash = standardOpsFingerprint(7, kScale);
    const std::string path =
        dir + "/" + prep::opsCacheFileName(ops.traceIndex, hash);
    ASSERT_TRUE(prep::storeCachedOps(path, ops, hash));
    const auto reloaded = prep::loadCachedOps(path, hash);
    ASSERT_TRUE(reloaded.has_value());
    ASSERT_TRUE(reloaded->ops == ops.ops)
        << "cache round-trip altered the op stream";

    for (const unsigned jobs : {1u, 4u}) {
        const SweepRunner runner(jobs);
        const auto parallel = runner.runClientSweep(*reloaded, models);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(parallel[i], serial[i])
                << "config " << i << " diverged at " << jobs
                << " jobs after a cache round-trip";
    }
}

TEST(SweepRunner, StressManyMoreTasksThanThreads)
{
    const auto &ops = standardOps(7, kScale);
    ModelConfig model;
    model.kind = ModelKind::Unified;
    model.volatileBytes = 4 * kMiB;
    model.nvramBytes = kMiB;
    const Metrics expected = runClientSim(ops, model);

    // 32 identical sims through 4 threads: every slot must hold the
    // same metrics (no cross-task state leakage).
    const std::vector<ModelConfig> models(32, model);
    const SweepRunner runner(4);
    const auto results = runner.runClientSweep(ops, models);
    ASSERT_EQ(results.size(), 32u);
    for (const Metrics &metrics : results)
        EXPECT_EQ(metrics, expected);
}

TEST(SweepRunner, PipelinedPreservesPointOrderAndResults)
{
    // replay runs on the calling thread in strict point order.
    std::vector<int> points(9);
    std::iota(points.begin(), points.end(), 0);
    std::vector<int> replay_order;
    const SweepRunner runner(4);
    const auto results = runner.runPipelined(
        points, [](const int &p) { return p * 10; },
        [&replay_order](int v) {
            replay_order.push_back(v / 10);
            return v + 1;
        });
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(results[i], static_cast<int>(i) * 10 + 1);
    ASSERT_EQ(replay_order.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(replay_order[i], static_cast<int>(i));
}

TEST(SweepRunner, PipelinedRethrowsPrepareErrorAtItsPoint)
{
    // A prepare that throws must surface at its point's position in
    // replay order: every earlier point replays, no later one does.
    std::vector<int> points(8);
    std::iota(points.begin(), points.end(), 0);
    std::vector<int> replayed;
    const SweepRunner runner(4);
    EXPECT_THROW(
        runner.runPipelined(
            points,
            [](const int &p) {
                if (p == 5)
                    throw std::runtime_error("prepare 5 failed");
                return p;
            },
            [&replayed](int v) {
                replayed.push_back(v);
                return v;
            }),
        std::runtime_error);
    ASSERT_EQ(replayed.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(replayed[i], i);
}

TEST(SweepRunner, TraceSweepPipelinedMatchesSerial)
{
    // Full acceptance path: real trace files through the multi-trace
    // sweep.  The serial runner and runners 4 and 8 wide must all
    // produce byte-identical metric tables.
    const std::string dir = testing::TempDir() + "nvfs_pipe_sweep";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> paths;
    for (const int t : {3, 4, 7}) {
        const std::string path =
            dir + "/trace" + std::to_string(t) + ".nvt";
        trace::writeTraceFile(
            path, workload::generateStandardTrace(t, 0.01));
        paths.push_back(path);
    }
    const auto models = standardGrid();

    const auto serial = SweepRunner(1).runTraceSweep(paths, models);
    const auto four = SweepRunner(4).runTraceSweep(paths, models);
    const auto eight = SweepRunner(8).runTraceSweep(paths, models);

    ASSERT_EQ(serial.size(), paths.size());
    ASSERT_EQ(four.size(), paths.size());
    ASSERT_EQ(eight.size(), paths.size());
    for (std::size_t r = 0; r < paths.size(); ++r) {
        ASSERT_EQ(serial[r].size(), models.size());
        ASSERT_EQ(four[r].size(), models.size());
        ASSERT_EQ(eight[r].size(), models.size());
        for (std::size_t c = 0; c < models.size(); ++c) {
            EXPECT_EQ(four[r][c], serial[r][c])
                << "trace " << r << " model " << c
                << " diverged at 4 jobs";
            EXPECT_EQ(eight[r][c], serial[r][c])
                << "trace " << r << " model " << c
                << " diverged at 8 jobs";
        }
    }
}

/** Both engines x all three models at a couple of NVRAM sizes. */
std::vector<ModelConfig>
gridModels()
{
    std::vector<ModelConfig> models;
    for (const bool extent : {false, true}) {
        for (const auto kind :
             {ModelKind::Volatile, ModelKind::WriteAside,
              ModelKind::Unified}) {
            ModelConfig model;
            model.kind = kind;
            model.volatileBytes = 4 * kMiB;
            model.nvramBytes = kMiB / 2;
            model.extentOps = extent;
            models.push_back(model);
        }
    }
    return models;
}

TEST(SweepRunner, GridMatchesSerialEveryTraceEngineAndModel)
{
    // The replay grid must be bit-identical to calling runClientSim
    // in a serial loop, for any width, with the invariant audits on:
    // traces 3/4/7, both block engines, all three models.
    ::setenv("NVFS_AUDIT", "2048", 1);
    const auto models = gridModels();
    for (const int t : {3, 4, 7}) {
        const auto &ops = standardOps(t, kScale);

        std::vector<Metrics> serial;
        serial.reserve(models.size());
        for (const ModelConfig &model : models)
            serial.push_back(runClientSim(ops, model));

        const auto one = SweepRunner(1).runClientSweep(ops, models);
        const auto eight = SweepRunner(8).runClientSweep(ops, models);

        ASSERT_EQ(one.size(), models.size());
        ASSERT_EQ(eight.size(), models.size());
        for (std::size_t c = 0; c < models.size(); ++c) {
            EXPECT_EQ(one[c], serial[c])
                << "trace " << t << " model " << c
                << " diverged at grid width 1";
            EXPECT_EQ(eight[c], serial[c])
                << "trace " << t << " model " << c
                << " diverged at grid width 8";
        }
    }
    ::unsetenv("NVFS_AUDIT");
}

TEST(SweepRunner, GridExplicitWidthMatchesSerial)
{
    // Explicit width overrides the env knob; widths beyond the model
    // count or the pool size must not change results either.
    const auto &ops = standardOps(3, kScale);
    const auto models = gridModels();
    const auto serial = runClientGrid(ops, models, 42, 1);
    for (const unsigned width : {2u, 3u, 64u}) {
        const auto wide = runClientGrid(ops, models, 42, width);
        ASSERT_EQ(wide.size(), serial.size());
        for (std::size_t c = 0; c < models.size(); ++c)
            EXPECT_EQ(wide[c], serial[c])
                << "model " << c << " diverged at width " << width;
    }
}

TEST(SweepRunner, GridInsidePipelinedSweepMatchesSerial)
{
    // Replay grids of both engines and all three models inside the
    // multi-trace sweep (the TSan job runs this at NVFS_JOBS=8): grid
    // cells race each other and the chunked ingest on the shared
    // pool, and the full metric table must still be byte-identical
    // to the serial runner.
    const std::string dir = testing::TempDir() + "nvfs_grid_sweep";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> paths;
    for (const int t : {3, 4, 7}) {
        const std::string path =
            dir + "/trace" + std::to_string(t) + ".nvt";
        trace::writeTraceFile(
            path, workload::generateStandardTrace(t, 0.01));
        paths.push_back(path);
    }
    const auto models = gridModels();

    const auto serial = SweepRunner(1).runTraceSweep(paths, models);
    const auto wide = SweepRunner(8).runTraceSweep(paths, models);

    ASSERT_EQ(serial.size(), paths.size());
    ASSERT_EQ(wide.size(), paths.size());
    for (std::size_t r = 0; r < paths.size(); ++r) {
        ASSERT_EQ(wide[r].size(), models.size());
        for (std::size_t c = 0; c < models.size(); ++c)
            EXPECT_EQ(wide[r][c], serial[r][c])
                << "trace " << r << " model " << c
                << " diverged under parallel grid replay";
    }
}

TEST(SweepRunner, CurveSweepIsThePerSizeGrid)
{
    // curveGridModels substitutes only the swept field, in spec.sizes
    // order (unsorted sizes included), and runCurveSweep returns one
    // row per size in that order: the grid's row for that model.
    const cache::NextModifyOracle *const oracle =
        &standardOracle(3, kScale);
    ModelConfig base;
    base.nvramPolicy = cache::PolicyKind::Clock;
    base.oracle = oracle;
    base.writeBackAge = 20 * kUsPerSecond;
    base.sweepInterval = 3 * kUsPerSecond;
    base.dirtyPreference = true;
    base.dynamicSizing = true;
    base.dynamicMinFraction = 0.25;
    base.dynamicPeriod = 7 * kUsPerMinute;
    base.extentOps = !defaultExtentEngine();
    const std::vector<Bytes> sizes = {2 * kMiB, 256 * kKiB, kMiB,
                                      12 * kBlockSize};

    for (const auto axis : {CurveAxis::VolatileBytes,
                            CurveAxis::NvramBytes}) {
        CurveSpec spec;
        spec.base = base;
        spec.base.kind = axis == CurveAxis::VolatileBytes
                             ? ModelKind::Volatile
                             : ModelKind::Unified;
        spec.base.volatileBytes = 3 * kMiB;
        spec.base.nvramBytes = 5 * kMiB;
        spec.axis = axis;
        spec.sizes = sizes;
        const auto models = curveGridModels(spec);
        ASSERT_EQ(models.size(), sizes.size());
        for (std::size_t k = 0; k < sizes.size(); ++k) {
            const ModelConfig &m = models[k];
            if (axis == CurveAxis::VolatileBytes) {
                EXPECT_EQ(m.volatileBytes, sizes[k]);
                EXPECT_EQ(m.nvramBytes, spec.base.nvramBytes);
            } else {
                EXPECT_EQ(m.volatileBytes, spec.base.volatileBytes);
                EXPECT_EQ(m.nvramBytes, sizes[k]);
            }
            EXPECT_EQ(m.kind, spec.base.kind);
            EXPECT_EQ(m.nvramPolicy, base.nvramPolicy);
            EXPECT_EQ(m.oracle, oracle);
            EXPECT_EQ(m.writeBackAge, base.writeBackAge);
            EXPECT_EQ(m.sweepInterval, base.sweepInterval);
            EXPECT_EQ(m.dirtyPreference, base.dirtyPreference);
            EXPECT_EQ(m.sink, base.sink);
            EXPECT_EQ(m.dynamicSizing, base.dynamicSizing);
            EXPECT_EQ(m.dynamicMinFraction, base.dynamicMinFraction);
            EXPECT_EQ(m.dynamicPeriod, base.dynamicPeriod);
            EXPECT_EQ(m.extentOps, base.extentOps);
        }
    }

    // Rows: a plain LRU curve in unsorted size order, per size.
    const auto &ops = standardOps(3, kScale);
    CurveSpec spec;
    spec.base.kind = ModelKind::Unified;
    spec.base.volatileBytes = kMiB;
    spec.axis = CurveAxis::NvramBytes;
    spec.sizes = sizes;
    spec.seed = 7;
    for (const unsigned jobs : {1u, 4u}) {
        const auto rows = SweepRunner(jobs).runCurveSweep(ops, spec);
        ASSERT_EQ(rows.size(), sizes.size());
        for (std::size_t k = 0; k < sizes.size(); ++k) {
            ModelConfig model = spec.base;
            model.nvramBytes = sizes[k];
            EXPECT_EQ(rows[k], runClientSim(ops, model, spec.seed))
                << "size " << sizes[k] << " at " << jobs << " jobs";
        }
    }
}

} // namespace
} // namespace nvfs::core
