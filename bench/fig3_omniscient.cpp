/**
 * @file
 * Figure 3: net file write traffic under an omniscient NVRAM
 * replacement policy (evict the block with the next-modify time
 * furthest in the future), for each trace and a sweep of NVRAM sizes.
 * Unified model, 8 MB volatile cache.  An LRU baseline table gives
 * the realistic-policy reference the omniscient numbers beat; the
 * LRU sweep is one per-size curve sweep per trace.
 */

#include "bench_util.hpp"
#include "core/sim/sweep.hpp"

using namespace nvfs;

int
main()
{
    bench::header(
        "Figure 3: omniscient replacement policy (net write traffic "
        "vs. NVRAM size)",
        "1/8 MB of NVRAM eliminates 30-50% of server write traffic "
        "for most traces; ~50% at 1 MB with rapidly diminishing "
        "returns beyond");

    const double scale = core::benchScale();

    std::vector<std::string> headers = {"NVRAM (MB)"};
    for (int t = 1; t <= 8; ++t)
        headers.push_back("trace " + std::to_string(t));
    util::TextTable table(std::move(headers));

    // Warm the per-trace memoized caches serially, then fan the whole
    // (size x trace) grid out across the workers.
    for (int t = 1; t <= 8; ++t) {
        core::standardOps(t, scale);
        core::standardOracle(t, scale);
    }
    std::vector<std::function<core::Metrics()>> tasks;
    for (const double mb : bench::kNvramSizeGrid) {
        for (int t = 1; t <= 8; ++t) {
            tasks.push_back([t, mb, scale] {
                const auto &ops = core::standardOps(t, scale);
                core::ModelConfig model;
                model.kind = core::ModelKind::Unified;
                model.volatileBytes = 8 * kMiB;
                model.nvramBytes = static_cast<Bytes>(mb * kMiB);
                model.nvramPolicy = cache::PolicyKind::Omniscient;
                model.oracle = &core::standardOracle(t, scale);
                return core::runClientSim(ops, model);
            });
        }
    }
    const core::SweepRunner runner;
    const auto results = runner.map(tasks);

    std::size_t next = 0;
    for (const double mb : bench::kNvramSizeGrid) {
        std::vector<std::string> row = {util::format("%g", mb)};
        for (int t = 1; t <= 8; ++t)
            row.push_back(
                bench::pct(results[next++].netWriteTrafficPct()));
        table.addRow(std::move(row));
    }
    std::printf("%s\n", table.render("net write traffic (%)").c_str());

    // LRU baseline: the same sweep under the realistic policy, one
    // curve sweep (a replay per size) per trace.
    std::vector<std::string> lru_headers = {"NVRAM (MB)"};
    for (int t = 1; t <= 8; ++t)
        lru_headers.push_back("trace " + std::to_string(t));
    util::TextTable lru_table(std::move(lru_headers));

    std::vector<std::vector<core::Metrics>> lru_rows;
    for (int t = 1; t <= 8; ++t) {
        core::CurveSpec spec;
        spec.base.kind = core::ModelKind::Unified;
        spec.base.volatileBytes = 8 * kMiB;
        spec.axis = core::CurveAxis::NvramBytes;
        spec.sizes = bench::nvramSizeGridBytes();
        lru_rows.push_back(
            runner.runCurveSweep(core::standardOps(t, scale), spec));
    }
    for (std::size_t s = 0; s < std::size(bench::kNvramSizeGrid);
         ++s) {
        std::vector<std::string> row = {
            util::format("%g", bench::kNvramSizeGrid[s])};
        for (int t = 1; t <= 8; ++t)
            row.push_back(
                bench::pct(lru_rows[t - 1][s].netWriteTrafficPct()));
        lru_table.addRow(std::move(row));
    }
    std::printf("%s\n",
                lru_table.render("LRU baseline (net write traffic %)")
                    .c_str());
    return 0;
}
