/**
 * @file
 * Shared helpers for the benchmark harnesses that regenerate the
 * paper's tables and figures.  Each bench binary prints the paper's
 * published values next to the measured ones so the shape comparison
 * is immediate.
 */

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/sim/experiments.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace nvfs::bench {

/**
 * The paper's NVRAM size sweep (Fig 3-4 x-axis), in MB.  Shared by
 * the figure benches so fig3's LRU baseline and fig4's LRU column
 * sweep the same points.
 */
inline constexpr double kNvramSizeGrid[] = {0.03125, 0.0625, 0.125,
                                            0.25,    0.5,    1,
                                            2,       4,      8,
                                            16};

/** kNvramSizeGrid in bytes, as a CurveSpec/ModelConfig size list. */
inline std::vector<Bytes>
nvramSizeGridBytes()
{
    std::vector<Bytes> sizes;
    for (const double mb : kNvramSizeGrid)
        sizes.push_back(static_cast<Bytes>(mb * kMiB));
    return sizes;
}

/** Print a standard header for a bench binary. */
inline void
header(const std::string &experiment, const std::string &paper_claim)
{
    std::printf("==============================================="
                "=================\n");
    std::printf("%s\n", experiment.c_str());
    std::printf("paper: %s\n", paper_claim.c_str());
    std::printf("(shape comparison — absolute numbers depend on the "
                "synthetic traces)\n");
    std::printf("==============================================="
                "=================\n\n");
}

/** Format a percentage cell. */
inline std::string
pct(double value)
{
    return util::format("%.1f", value);
}

} // namespace nvfs::bench
