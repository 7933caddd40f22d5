/**
 * @file
 * Experiment drivers shared by the benchmark harnesses, examples, and
 * integration tests: generate a standard trace, preprocess it, run the
 * lifetime pass or a cluster simulation, and run the server-side LFS
 * study.  Generated traces are memoized per (trace, scale, dialect) so
 * parameter sweeps don't regenerate them.  Memoization is per-key:
 * the first caller of a key builds it while callers of other keys
 * build concurrently, so SweepRunner tasks never serialize on an
 * unrelated trace's generation.  References stay valid for the
 * process lifetime.
 *
 * When the NVFS_TRACE_CACHE environment variable names a directory,
 * standardOps() additionally persists each processed trace there (see
 * prep/op_cache.hpp) and later processes mmap it back instead of
 * regenerating — a large speedup for bench/CI runs that replay the
 * same traces.  Cache files are validated by checksum, format
 * version, and a profile fingerprint hash, so stale or corrupt
 * entries fall back to regeneration.
 */

#pragma once

#include <vector>

#include "core/client/cluster_sim.hpp"
#include "core/lifetime/lifetime.hpp"
#include "core/lifetime/next_modify.hpp"
#include "prep/ops.hpp"
#include "server/file_server.hpp"

namespace nvfs::core {

/**
 * Processed ops of paper trace `paper_number` (1..8).  Memoized; the
 * reference stays valid for the process lifetime.
 * @param sprite_compat exercise the offset-deduction pipeline
 */
const prep::OpStream &standardOps(int paper_number, double scale = 1.0,
                                  bool sprite_compat = false);

/**
 * The fingerprint hash standardOps() uses to key its persistent cache
 * entry for these parameters: FNV-1a over the profile fingerprint
 * plus the generator dialect and schema versions.  Exposed so tests
 * can plant or corrupt cache files at the exact path standardOps()
 * will probe.
 */
std::uint64_t standardOpsFingerprint(int paper_number, double scale,
                                     bool sprite_compat = false);

/**
 * Non-memoized variant with an explicit generator seed, for
 * sensitivity studies across trace realizations.
 */
prep::OpStream opsWithSeed(int paper_number, double scale,
                           std::uint64_t seed);

/** Memoized lifetime analysis of a standard trace. */
const LifetimeResult &standardLifetimes(int paper_number,
                                        double scale = 1.0);

/** Memoized next-modify oracle of a standard trace. */
const NextModifyIndex &standardOracle(int paper_number,
                                      double scale = 1.0);

/** Run a client cluster simulation over an op stream. */
Metrics runClientSim(const prep::OpStream &ops, const ModelConfig &model,
                     std::uint64_t seed = 42);

/**
 * util::defaultJobCount(): the replay grid has no width knob of its
 * own.  Kept only so run manifests that record a "grid_jobs" width
 * still have a value to print.
 */
unsigned gridJobCount();

/**
 * Replay one op stream through every model concurrently: each (model,
 * engine) cell of the grid is one grain-1 parallelFor chunk on the
 * ambient work-stealing pool, with per-cell ClusterSim/Metrics state,
 * and the results come back in model order.  Bit-identical to calling
 * runClientSim on each model in sequence for any width: cells share
 * only the read-only op stream, each owns its simulator and RNG, and
 * if several threw, the lowest-index model's exception is rethrown
 * (deterministic).  At most `width` cells replay at once (0 = the
 * ambient pool's thread count); width 1 runs the plain serial loop on
 * the calling thread.
 */
std::vector<Metrics>
runClientGrid(const prep::OpStream &ops,
              const std::vector<ModelConfig> &models,
              std::uint64_t seed = 42, unsigned width = 0);

/** Result of one server-side run. */
struct ServerRunResult
{
    std::vector<server::FsStats> fs;
    std::uint64_t totalDiskWrites = 0;
    Bytes totalDataBytes = 0;
};

/**
 * Run the Section 3 server study over the standard file-system
 * profiles.
 * @param nvram_buffer_bytes 0 = baseline (no write buffer)
 */
ServerRunResult runServerSim(TimeUs duration, double scale,
                             Bytes nvram_buffer_bytes,
                             std::uint64_t seed = 7);

/**
 * Default scale for benches; override with the NVFS_SCALE env var.
 * Accepted values are finite reals > 0 (typically 0.01-1.0); anything
 * else warns via util::log and falls back to 1.0.
 */
double benchScale();

/**
 * Derive the server-bound op stream a client simulation produces: run
 * the cluster sim over `ops` with a collecting ServerWriteSink and
 * return the write/fsync traffic that reached the server, time
 * sorted.  This is the workload the crash-schedule explorer replays
 * against an instrumented FileServer.
 */
std::vector<workload::ServerOp>
collectServerOps(const prep::OpStream &ops, const ModelConfig &model,
                 std::uint64_t seed = 42);

/** Result of composing both halves of the paper. */
struct EndToEndResult
{
    Metrics client;        ///< cluster-wide client metrics
    server::FsStats server; ///< the one file system behind the clients
};

/**
 * End-to-end run: the client simulation's server-bound write stream
 * (via ServerWriteSink) is replayed against the LFS file server, so
 * client-side NVRAM choices propagate into server disk accesses.
 * @param server_buffer_bytes the server's own NVRAM write buffer
 */
EndToEndResult runEndToEnd(const prep::OpStream &ops,
                           const ModelConfig &model,
                           Bytes server_buffer_bytes = 0,
                           std::uint64_t seed = 42);

} // namespace nvfs::core
