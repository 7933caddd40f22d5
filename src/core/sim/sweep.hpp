/**
 * @file
 * SweepRunner: the parallel experiment engine behind the figure/table
 * benches and the nvfs_sim sweep command.
 *
 * Every paper reproduction runs dozens of *independent* simulator
 * configurations (cache size x model x policy grids).  SweepRunner
 * fans such a grid out across NVFS_JOBS worker threads and returns
 * the results in submission order, so a parallel sweep is
 * bit-identical to the serial loop it replaces: each task owns its
 * ClusterSim/FileServer instance and its own deterministic Rng, and
 * the only shared state — the memoized standardOps/standardLifetimes/
 * standardOracle caches — is mutex-guarded with stable references.
 */

#pragma once

#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/sim/curve.hpp"
#include "core/sim/experiments.hpp"
#include "util/thread_pool.hpp"

namespace nvfs::core {

/**
 * NVFS_PIPELINE=0 disables ingest/replay overlap in pipelined
 * sweeps (they fall back to strict prepare-then-replay per point).
 */
inline bool
pipelineEnabled()
{
    return util::envInt("NVFS_PIPELINE", 1, 0, 1) != 0;
}

/** One server-study configuration in a sweep grid. */
struct ServerSweepConfig
{
    TimeUs duration = 24 * kUsPerHour;
    double scale = 1.0;
    Bytes nvramBufferBytes = 0; ///< 0 = baseline (no write buffer)
    std::uint64_t seed = 7;
};

/** Thread-pool-backed parallel experiment engine. */
class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 = util::defaultJobCount() */
    explicit SweepRunner(unsigned jobs = 0);

    /** Worker threads a sweep will use. */
    unsigned jobs() const { return jobs_; }

    /**
     * Run every task and return their results in submission order.
     * R must be default-constructible.  With one worker (or one task)
     * the tasks run inline on the calling thread.  If any task threw,
     * the first exception (in submission order) is rethrown after all
     * tasks finished.
     */
    template <typename R>
    std::vector<R>
    map(const std::vector<std::function<R()>> &tasks) const
    {
        std::vector<R> results(tasks.size());
        const auto worker_count =
            std::min<std::size_t>(jobs_, tasks.size());
        if (worker_count <= 1) {
            for (std::size_t i = 0; i < tasks.size(); ++i)
                results[i] = tasks[i]();
            return results;
        }
        std::vector<std::exception_ptr> errors(tasks.size());
        {
            util::ThreadPool pool(
                static_cast<unsigned>(worker_count));
            for (std::size_t i = 0; i < tasks.size(); ++i) {
                const util::TaskLabel label("sweep task " +
                                            std::to_string(i));
                pool.submit([&tasks, &results, &errors, i] {
                    try {
                        results[i] = tasks[i]();
                    } catch (...) {
                        errors[i] = util::wrapTaskContext(
                            std::current_exception());
                    }
                });
            }
            pool.wait();
        }
        for (const std::exception_ptr &error : errors) {
            if (error)
                std::rethrow_exception(error);
        }
        return results;
    }

    /**
     * Pipelined sweep over a sequence of *points* (typically traces):
     * `prepare(point)` — ingest + prep, expensive and independent per
     * point — runs ahead on a worker pool while `replay(prepared)`
     * runs on the calling thread, strictly in point order.  With
     * `jobs` workers, up to jobs-1 points are prepared ahead, so the
     * ingest/prep of point k+1 overlaps the replay of point k.
     *
     * Results are identical to the serial prepare-then-replay loop
     * for any worker count: replay order is fixed, each prepare sees
     * only its own point, and a prepare that threw rethrows at its
     * point's position.  `prepare` must not depend on replay state.
     * Serial fallback: one job, one point, or NVFS_PIPELINE=0.
     */
    template <typename P, typename Prepare, typename Replay>
    auto
    runPipelined(const std::vector<P> &points, Prepare &&prepare,
                 Replay &&replay) const
        -> std::vector<std::invoke_result_t<
            Replay &, std::invoke_result_t<Prepare &, const P &>>>
    {
        using Prepared = std::invoke_result_t<Prepare &, const P &>;
        using R = std::invoke_result_t<Replay &, Prepared>;
        std::vector<R> results;
        results.reserve(points.size());
        // Name the sweep point for TaskError context: the point
        // itself when it reads as a string (trace paths), the index
        // otherwise.
        auto pointContext = [&points](std::size_t k) {
            std::string context =
                "sweep point " + std::to_string(k);
            if constexpr (std::is_convertible_v<const P &,
                                                std::string>) {
                context += " (";
                context += points[k];
                context += ")";
            }
            return context;
        };
        if (jobs_ <= 1 || points.size() <= 1 || !pipelineEnabled()) {
            for (std::size_t k = 0; k < points.size(); ++k) {
                const util::TaskLabel label(pointContext(k));
                try {
                    results.push_back(replay(prepare(points[k])));
                } catch (...) {
                    std::rethrow_exception(util::wrapTaskContext(
                        std::current_exception()));
                }
            }
            return results;
        }

        const std::size_t depth =
            std::min<std::size_t>(points.size(), jobs_ - 1);
        util::ThreadPool pool(static_cast<unsigned>(depth));
        std::vector<std::future<Prepared>> prepared(points.size());
        std::size_t submitted = 0;
        // packaged_task owns each prepare's exception, so the pool's
        // own error channel stays clean and the throw surfaces from
        // the future at the point's position in replay order.
        auto submitPrepare = [&](std::size_t k) {
            auto task =
                std::make_shared<std::packaged_task<Prepared()>>(
                    [&prepare, &points, k, &pointContext] {
                        // The packaged_task owns the exception (the
                        // pool never sees it), so the point context
                        // has to be attached right here.
                        const util::TaskLabel label(pointContext(k));
                        try {
                            return prepare(points[k]);
                        } catch (...) {
                            std::rethrow_exception(
                                util::wrapTaskContext(
                                    std::current_exception()));
                        }
                    });
            prepared[k] = task->get_future();
            pool.submit([task] { (*task)(); });
        };
        for (; submitted < depth; ++submitted)
            submitPrepare(submitted);
        for (std::size_t k = 0; k < points.size(); ++k) {
            Prepared ready = prepared[k].get();
            // Refill the lookahead window before replaying, so the
            // workers are never idle while the caller replays.
            if (submitted < points.size())
                submitPrepare(submitted++);
            const util::TaskLabel label(pointContext(k));
            try {
                results.push_back(replay(std::move(ready)));
            } catch (...) {
                std::rethrow_exception(
                    util::wrapTaskContext(std::current_exception()));
            }
        }
        return results;
    }

    /**
     * Pipelined multi-trace client sweep: each trace file is read
     * (parallel mmap ingest) and converted while the previous
     * trace's model grid replays.  Returns one Metrics row per
     * trace, in trace order, each row in model order.
     */
    std::vector<std::vector<Metrics>>
    runTraceSweep(const std::vector<std::string> &trace_paths,
                  const std::vector<ModelConfig> &models,
                  std::uint64_t seed = 42) const;

    /**
     * Run one client simulation per model over a shared op stream
     * (the common figure grid).  Equivalent to calling runClientSim
     * on each model in order.
     */
    std::vector<Metrics>
    runClientSweep(const prep::OpStream &ops,
                   const std::vector<ModelConfig> &models,
                   std::uint64_t seed = 42) const;

    /**
     * Multi-size curve sweep: one Metrics row per spec.sizes entry,
     * in order.  The per-size replay grid (curveGridModels +
     * runClientGrid) at this runner's width.
     */
    std::vector<Metrics>
    runCurveSweep(const prep::OpStream &ops,
                  const CurveSpec &spec) const;

    /**
     * Run one full cluster simulation per config (for sweeps that
     * vary more than the model: callbacks, crashes, seeds).
     */
    std::vector<Metrics>
    runClusterSweep(const prep::OpStream &ops,
                    const std::vector<ClusterConfig> &configs) const;

    /** Run one Section 3 server study per config. */
    std::vector<ServerRunResult>
    runServerSweep(const std::vector<ServerSweepConfig> &configs) const;

  private:
    unsigned jobs_;
};

} // namespace nvfs::core
