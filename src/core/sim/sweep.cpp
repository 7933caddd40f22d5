#include "core/sim/sweep.hpp"

#include "core/client/cluster_sim.hpp"
#include "obs/obs.hpp"
#include "prep/converter.hpp"
#include "trace/stream.hpp"

namespace nvfs::core {

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs == 0 ? util::defaultJobCount() : jobs)
{
}

std::vector<std::vector<Metrics>>
SweepRunner::runTraceSweep(const std::vector<std::string> &trace_paths,
                           const std::vector<ModelConfig> &models,
                           std::uint64_t seed) const
{
    return runPipelined(
        trace_paths,
        [](const std::string &path) {
            // Runs on a pool worker, so the mmap ingest's ambient
            // parallelFor fans out across the same pool.
            trace::TraceBuffer raw = [&path] {
                const obs::StageTimer stage("sweep.ingest", path);
                return trace::readTraceFile(path);
            }();
            const obs::StageTimer stage("sweep.prep", path);
            return prep::convertTrace(raw);
        },
        [&models, seed](prep::OpStream ops) {
            // The replay grid of the current point fans out over
            // NVFS_GRID_JOBS tasks (bit-identical to the serial model
            // loop) while the pipeline's own pool prepares the next
            // point.
            const obs::StageTimer stage("sweep.replay");
            return runClientGrid(ops, models, seed);
        });
}

std::vector<Metrics>
SweepRunner::runClientSweep(const prep::OpStream &ops,
                            const std::vector<ModelConfig> &models,
                            std::uint64_t seed) const
{
    // The shared-op-stream model grid IS the replay grid: run it on
    // the grid scheduler (ambient pool claim loop) at this runner's
    // width instead of spinning up a dedicated pool per call.
    return runClientGrid(ops, models, seed, jobs_);
}

std::vector<Metrics>
SweepRunner::runCurveSweep(const prep::OpStream &ops,
                           const CurveSpec &spec) const
{
    return runClientGrid(ops, curveGridModels(spec), spec.seed,
                         jobs_);
}

std::vector<Metrics>
SweepRunner::runClusterSweep(
    const prep::OpStream &ops,
    const std::vector<ClusterConfig> &configs) const
{
    std::vector<std::function<Metrics()>> tasks;
    tasks.reserve(configs.size());
    for (const ClusterConfig &config : configs) {
        tasks.push_back([&ops, config] {
            ClusterSim sim(config, std::max<std::uint32_t>(
                                       1, ops.clientCount));
            return sim.run(ops);
        });
    }
    return map(tasks);
}

std::vector<ServerRunResult>
SweepRunner::runServerSweep(
    const std::vector<ServerSweepConfig> &configs) const
{
    std::vector<std::function<ServerRunResult()>> tasks;
    tasks.reserve(configs.size());
    for (const ServerSweepConfig &config : configs) {
        tasks.push_back([config] {
            return runServerSim(config.duration, config.scale,
                                config.nvramBufferBytes, config.seed);
        });
    }
    return map(tasks);
}

} // namespace nvfs::core
