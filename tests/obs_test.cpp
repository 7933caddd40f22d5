/**
 * @file
 * nvfs::obs correctness: counter totals must be *exact* (not
 * approximately merged) across threads and thread exits, stage
 * timers must buffer trace spans only while tracing is enabled, the
 * export paths must emit the documented formats, and the counters
 * wired into the sweep/grid/LFS layers must report identical values
 * for serial and parallel runs of the same work.  Also covers the
 * task-identity bugfix: exceptions rethrown from ThreadPool::wait(),
 * parallelFor, SweepRunner::map and runPipelined must name the task
 * that threw.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/sim/experiments.hpp"
#include "core/sim/sweep.hpp"
#include "lfs/log.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "trace/stream.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace nvfs {
namespace {

/** Scoped env var: set on construction, restore on destruction. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr) {
            hadOld_ = true;
            old_ = old;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (hadOld_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool hadOld_ = false;
    std::string old_;
};

#ifndef NVFS_NO_STATS

// ------------------------------------------------ counter exactness

TEST(Obs, CounterSumsExactlyAcrossThreads)
{
    obs::resetAll();
    const obs::Counter counter("test.obs.mt_counter");
    constexpr int kThreads = 8;
    constexpr std::uint64_t kAddsPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < kAddsPerThread; ++i)
                counter.add();
            counter.add(7);
        });
    }
    for (auto &thread : threads)
        thread.join();
    // Threads have exited: their slabs merged into the registry's
    // retired totals.  The sum must be exact, not approximate.
    const auto snap = obs::snapshot();
    EXPECT_EQ(snap.value("test.obs.mt_counter"),
              kThreads * (kAddsPerThread + 7));
    const auto *entry = snap.find("test.obs.mt_counter");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->kind, obs::StatKind::Counter);
    EXPECT_EQ(entry->count, kThreads * (kAddsPerThread + 1));
}

TEST(Obs, PoolTaskCountersAreExact)
{
    obs::resetAll();
    {
        util::ThreadPool pool(4);
        std::atomic<int> ran{0};
        for (int i = 0; i < 200; ++i)
            pool.submit([&ran] { ++ran; });
        pool.wait();
        EXPECT_EQ(ran.load(), 200);
    }
    const auto snap = obs::snapshot();
    EXPECT_EQ(snap.value("pool.tasks_submitted"), 200u);
    EXPECT_EQ(snap.value("pool.tasks_executed"), 200u);
    EXPECT_GE(snap.value("pool.queue_depth_hwm"), 1u);
}

TEST(Obs, ResetZeroesEverything)
{
    const obs::Counter counter("test.obs.reset_counter");
    counter.add(41);
    ASSERT_GE(obs::snapshot().value("test.obs.reset_counter"), 41u);
    obs::resetAll();
    EXPECT_EQ(obs::snapshot().value("test.obs.reset_counter"), 0u);
    // The handle stays valid after a reset.
    counter.add(2);
    EXPECT_EQ(obs::snapshot().value("test.obs.reset_counter"), 2u);
}

TEST(Obs, TimerTracksCountTotalMinMax)
{
    obs::resetAll();
    const obs::Timer timer("test.obs.timer");
    timer.record(300);
    timer.record(100);
    timer.record(200);
    const auto snap = obs::snapshot();
    const auto *entry = snap.find("test.obs.timer");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->kind, obs::StatKind::Timer);
    EXPECT_EQ(entry->count, 3u);
    EXPECT_EQ(entry->total, 600u);
    EXPECT_EQ(entry->min, 100u);
    EXPECT_EQ(entry->max, 300u);
}

TEST(Obs, MaxCounterKeepsHighWater)
{
    obs::resetAll();
    const obs::MaxCounter hwm("test.obs.hwm");
    hwm.observe(3);
    hwm.observe(9);
    hwm.observe(4);
    std::thread other([&hwm] { hwm.observe(6); });
    other.join();
    EXPECT_EQ(obs::snapshot().value("test.obs.hwm"), 9u);
}

TEST(Obs, RegisteringSameNameTwiceSharesOneStat)
{
    obs::resetAll();
    const obs::Counter a("test.obs.shared");
    const obs::Counter b("test.obs.shared");
    a.add(1);
    b.add(2);
    const auto snap = obs::snapshot();
    EXPECT_EQ(snap.value("test.obs.shared"), 3u);
    std::size_t occurrences = 0;
    for (const auto &s : snap.stats)
        occurrences += s.name == "test.obs.shared";
    EXPECT_EQ(occurrences, 1u);
}

// --------------------------------------------------- tracing spans

TEST(Obs, StageTimerBuffersSpansOnlyWhileTracing)
{
    obs::resetAll();
    obs::Registry::instance().drainSpans(); // discard leftovers
    {
        const obs::StageTimer silent("test.obs.silent");
    }
    obs::Registry::instance().enableTracing(true);
    {
        const obs::StageTimer stage("test.obs.stage", "trace7.nvt");
    }
    obs::Registry::instance().enableTracing(false);
    const auto spans = obs::Registry::instance().drainSpans();
    bool sawStage = false;
    for (const auto &span : spans) {
        EXPECT_STRNE(span.name, "test.obs.silent");
        if (std::string(span.name) == "test.obs.stage") {
            sawStage = true;
            EXPECT_EQ(span.label, "trace7.nvt");
        }
    }
    EXPECT_TRUE(sawStage);
    // Draining consumes.
    EXPECT_TRUE(obs::Registry::instance().drainSpans().empty());
}

// --------------------------------------------------- export formats

TEST(ObsExport, JsonCarriesVersionAndStats)
{
    obs::resetAll();
    const obs::Counter counter("test.obs.json_counter");
    counter.add(12);
    const obs::Timer timer("test.obs.json_timer");
    timer.record(500);
    const std::string json = obs::toJson(obs::snapshot());
    EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
    EXPECT_NE(json.find("\"test.obs.json_counter\""),
              std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
    EXPECT_NE(json.find("\"value\": 12"), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"timer\""), std::string::npos);
    EXPECT_NE(json.find("\"total_ns\": 500"), std::string::npos);
}

TEST(ObsExport, RenderTableListsEveryStat)
{
    obs::resetAll();
    const obs::Counter counter("test.obs.table_counter");
    counter.add(3);
    const std::string table = obs::renderTable(obs::snapshot());
    EXPECT_NE(table.find("test.obs.table_counter"),
              std::string::npos);
}

TEST(ObsExport, WriteStatsFileEmitsReadableJson)
{
    obs::resetAll();
    const obs::Counter counter("test.obs.file_counter");
    counter.add(1);
    const std::string path =
        testing::TempDir() + "nvfs_obs_stats.json";
    std::filesystem::remove(path);
    ASSERT_TRUE(obs::writeStatsFile(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("\"version\": 1"), std::string::npos);
    EXPECT_NE(content.find("test.obs.file_counter"),
              std::string::npos);
    std::filesystem::remove(path);
}

TEST(ObsExport, ChromeTraceFormat)
{
    std::vector<obs::TraceSpan> spans(2);
    spans[0].name = "sweep.ingest";
    spans[0].label = "trace3.nvt";
    spans[0].startUs = 10;
    spans[0].durUs = 25;
    spans[0].tid = 1;
    spans[1].name = "sweep.replay";
    spans[1].startUs = 40;
    spans[1].durUs = 5;
    spans[1].tid = 0;
    const std::string json = obs::spansToChromeTrace(spans);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("sweep.ingest"), std::string::npos);
    EXPECT_NE(json.find("trace3.nvt"), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 25"), std::string::npos);
}

// ------------------------------------------------- layer counters

TEST(Obs, LfsSealCountersMirrorLogStats)
{
    obs::resetAll();
    lfs::LfsConfig config;
    config.segmentBytes = 64 * kKiB;
    lfs::LfsLog log(config);
    log.writeBlock(1, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Fsync));
    log.writeBlock(2, 0, kBlockSize);
    ASSERT_TRUE(log.seal(lfs::SealCause::Timeout));
    const auto snap = obs::snapshot();
    EXPECT_EQ(snap.value("lfs.segments_sealed"), 2u);
    EXPECT_EQ(snap.value("lfs.partial_segments"), 2u);
    EXPECT_EQ(snap.value("lfs.fsync_forced_partials"), 1u);
}

/**
 * The acceptance bar for the observability layer: a parallel sweep
 * (parallel ingest + wide grid replay) must report the *same*
 * deterministic counter totals as the serial run of the same work.
 * Scheduling-dependent stats (pool.*) are excluded by design.
 */
TEST(Obs, SweepCountersExactUnderParallelism)
{
    const ScopedEnv noCache("NVFS_TRACE_CACHE", nullptr);

    const std::string dir = testing::TempDir() + "nvfs_obs_sweep";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> paths;
    for (const int t : {3, 4}) {
        const std::string path =
            dir + "/trace" + std::to_string(t) + ".nvt";
        trace::writeTraceFile(
            path, workload::generateStandardTrace(t, 0.01));
        paths.push_back(path);
    }
    std::vector<core::ModelConfig> models;
    for (const double mb : {0.5, 1.0}) {
        for (const auto kind :
             {core::ModelKind::Volatile, core::ModelKind::WriteAside,
              core::ModelKind::Unified}) {
            core::ModelConfig model;
            model.kind = kind;
            model.volatileBytes = 4 * kMiB;
            model.nvramBytes = static_cast<Bytes>(mb * kMiB);
            models.push_back(model);
        }
    }

    const char *const kDeterministic[] = {
        "grid.cells",
        "cache.extent_probes",
        "cache.extent_hint_hits",
        "cache.extent_run_blocks",
        "cache.range_inserts",
        "lfs.segments_sealed",
        "trace_cache.hit",
        "trace_cache.miss",
    };

    auto runAndCollect = [&](unsigned jobs) {
        obs::resetAll();
        const auto results =
            core::SweepRunner(jobs).runTraceSweep(paths, models);
        const auto snap = obs::snapshot();
        std::vector<std::uint64_t> values;
        for (const char *name : kDeterministic)
            values.push_back(snap.value(name));
        // Stage-timer *counts* are deterministic too (durations are
        // not): one ingest/prep/replay per trace, one cell per
        // (trace, model) pair.
        const auto count = [&snap](const char *name) {
            const auto *entry = snap.find(name);
            return entry != nullptr ? entry->count : 0;
        };
        values.push_back(count("sweep.ingest"));
        values.push_back(count("sweep.prep"));
        values.push_back(count("sweep.replay"));
        values.push_back(count("grid.cell"));
        return std::make_pair(results, values);
    };

    const auto [serialResults, serialValues] = runAndCollect(1);
    const auto [parallelResults, parallelValues] = runAndCollect(8);

    ASSERT_EQ(serialResults, parallelResults)
        << "sweep results diverged between serial and parallel";
    for (std::size_t i = 0; i < serialValues.size(); ++i) {
        EXPECT_EQ(parallelValues[i], serialValues[i])
            << "counter #" << i << " diverged at 8 jobs";
    }
    // And the totals must reflect the actual work, not just agree.
    constexpr std::size_t kNamed =
        sizeof(kDeterministic) / sizeof(kDeterministic[0]);
    const auto snapValue = [&](const char *name) {
        for (std::size_t i = 0; i < kNamed; ++i) {
            if (std::string(kDeterministic[i]) == name)
                return serialValues[i];
        }
        return std::uint64_t{0};
    };
    EXPECT_EQ(snapValue("grid.cells"), paths.size() * models.size());
    EXPECT_GT(snapValue("cache.extent_probes"), 0u);
    EXPECT_EQ(snapValue("trace_cache.hit"), 0u);
    EXPECT_EQ(snapValue("trace_cache.miss"), 0u);
    std::filesystem::remove_all(dir);
}

TEST(Obs, TraceCacheCountersCountHitsAndMisses)
{
    // The persistent cache keys *synthetic* traces (opsWithSeed /
    // standardOps), so drive it through the non-memoized seeded
    // entry point: first build misses and stores, rebuild hits.
    const std::string cacheDir =
        testing::TempDir() + "nvfs_obs_trace_cache";
    std::filesystem::remove_all(cacheDir);
    std::filesystem::create_directories(cacheDir);
    const ScopedEnv cache("NVFS_TRACE_CACHE", cacheDir.c_str());

    obs::resetAll();
    const auto first = core::opsWithSeed(5, 0.01, 1234);
    auto snap = obs::snapshot();
    EXPECT_EQ(snap.value("trace_cache.miss"), 1u);
    EXPECT_EQ(snap.value("trace_cache.store"), 1u);
    EXPECT_EQ(snap.value("trace_cache.hit"), 0u);

    obs::resetAll();
    const auto second = core::opsWithSeed(5, 0.01, 1234);
    snap = obs::snapshot();
    EXPECT_EQ(snap.value("trace_cache.hit"), 1u);
    EXPECT_EQ(snap.value("trace_cache.miss"), 0u);
    EXPECT_EQ(second.ops.size(), first.ops.size());

    std::filesystem::remove_all(cacheDir);
}

#else // NVFS_NO_STATS

TEST(Obs, NoStatsBuildReportsNothing)
{
    // The stub surface must compile and report an empty snapshot.
    const obs::Counter counter("test.obs.stub");
    counter.add(5);
    const obs::Timer timer("test.obs.stub_timer");
    timer.record(100);
    {
        const obs::StageTimer stage("test.obs.stub_stage", "label");
    }
    EXPECT_TRUE(obs::snapshot().stats.empty());
    EXPECT_EQ(obs::snapshot().value("test.obs.stub"), 0u);
    const std::string json = obs::toJson(obs::snapshot());
    EXPECT_NE(json.find("\"enabled\": false"), std::string::npos);
}

#endif // NVFS_NO_STATS

// -------------------------------------- task identity on rethrow

TEST(TaskError, PoolWaitNamesTheSubmittingTask)
{
    util::ThreadPool pool(2);
    {
        const util::TaskLabel label("ingest trace trace7.nvt");
        pool.submit([] {
            throw std::runtime_error("decode failed");
        });
    }
    try {
        pool.wait();
        FAIL() << "wait() must rethrow the task's exception";
    } catch (const util::TaskError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("ingest trace trace7.nvt"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("decode failed"), std::string::npos)
            << what;
    }
}

TEST(TaskError, UnlabeledTaskRethrowsOriginalType)
{
    // Without an ambient label there is no context to add, so the
    // original exception type must survive unwrapped.
    util::ThreadPool pool(2);
    pool.submit([] { throw std::invalid_argument("plain"); });
    EXPECT_THROW(pool.wait(), std::invalid_argument);
}

TEST(TaskError, ParallelForCarriesCallerContext)
{
    util::ThreadPool pool(4);
    const util::TaskLabel label("sweep point 3 (trace3.nvt)");
    try {
        pool.parallelFor(std::size_t{0}, std::size_t{64},
                         [](std::size_t b, std::size_t e) {
                             for (std::size_t i = b; i < e; ++i) {
                                 if (i == 17)
                                     throw std::runtime_error(
                                         "cell blew up");
                             }
                         });
        FAIL() << "parallelFor must rethrow";
    } catch (const util::TaskError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("sweep point 3 (trace3.nvt)"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("cell blew up"), std::string::npos)
            << what;
    }
}

TEST(TaskError, SweepMapNamesTheTaskIndex)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 6; ++i) {
        tasks.push_back([i]() -> int {
            if (i == 4)
                throw std::runtime_error("task body failed");
            return i;
        });
    }
    try {
        core::SweepRunner(4).map(tasks);
        FAIL() << "map must rethrow the first task error";
    } catch (const util::TaskError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("sweep task 4"), std::string::npos)
            << what;
        EXPECT_NE(what.find("task body failed"), std::string::npos)
            << what;
    }
}

TEST(TaskError, PipelinedPrepareNamesThePoint)
{
    const std::vector<std::string> points{"a.nvt", "b.nvt", "c.nvt"};
    for (const unsigned jobs : {1u, 4u}) {
        try {
            core::SweepRunner(jobs).runPipelined(
                points,
                [](const std::string &point) {
                    if (point == "b.nvt")
                        throw std::runtime_error("prepare exploded");
                    return point;
                },
                [](std::string prepared) { return prepared; });
            FAIL() << "runPipelined must rethrow (jobs=" << jobs
                   << ")";
        } catch (const util::TaskError &error) {
            const std::string what = error.what();
            EXPECT_NE(what.find("sweep point 1 (b.nvt)"),
                      std::string::npos)
                << "jobs=" << jobs << ": " << what;
            EXPECT_NE(what.find("prepare exploded"),
                      std::string::npos)
                << "jobs=" << jobs << ": " << what;
        }
    }
}

TEST(TaskError, GridReplayNamesTheModel)
{
    // Mirror the runClientGrid pattern: each cell installs its own
    // label and wraps before the label leaves scope, so the rethrown
    // error nests "sweep point: grid model: what()".
    const util::TaskLabel outer("sweep point 0 (trace3.nvt)");
    util::ThreadPool pool(2);
    const auto cellBody = [](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
            const util::TaskLabel cell("replay grid model " +
                                       std::to_string(i) +
                                       " (unified)");
            try {
                if (i == 2)
                    throw std::runtime_error(
                        "model rejected config");
            } catch (...) {
                std::rethrow_exception(util::wrapTaskContext(
                    std::current_exception()));
            }
        }
    };
    try {
        pool.parallelFor(std::size_t{0}, std::size_t{4}, cellBody);
        FAIL() << "parallelFor must rethrow";
    } catch (const util::TaskError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("sweep point 0 (trace3.nvt)"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("replay grid model 2 (unified)"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("model rejected config"),
                  std::string::npos)
            << what;
    }
}

TEST(TaskError, NestedBoundariesUnderOneLabelNameItOnce)
{
    // A replay grid's parallelFor inside a sweep point wraps a cell's
    // error with the point's label, and the point wraps it again on
    // the way out: the label must appear once, not once per boundary.
    const std::vector<std::string> points{"a.nvt"};
    try {
        core::SweepRunner(4).runPipelined(
            points, [](const std::string &point) { return point; },
            [](const std::string &) {
                util::ThreadPool::ambient().parallelFor(
                    0, 8,
                    [](std::size_t b, std::size_t) {
                        if (b == 5)
                            throw std::runtime_error("cell failed");
                    },
                    1);
                return 0;
            });
        FAIL() << "runPipelined must rethrow";
    } catch (const util::TaskError &error) {
        EXPECT_STREQ(error.what(), "sweep point 0 (a.nvt): cell failed");
    }
}

} // namespace
} // namespace nvfs
