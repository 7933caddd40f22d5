/**
 * @file
 * CurveSpec: the multi-size sweeps behind the NVRAM-size curves
 * (Figures 3-6, cost-effectiveness table).
 *
 * Every headline figure of the paper is a curve over cache size.  A
 * CurveSpec names the shared configuration, the swept field and the
 * sizes; SweepRunner::runCurveSweep replays it as the per-size grid
 * (curveGridModels + runClientGrid), one task per size, so the sizes
 * spread across the worker pool.
 */

#pragma once

#include <vector>

#include "core/client/client_model.hpp"

namespace nvfs::core {

/** Which ModelConfig field a curve sweeps. */
enum class CurveAxis
{
    VolatileBytes, ///< volatile-model cache-size sweep
    NvramBytes,    ///< unified-model NVRAM-size sweep
};

/** One multi-size sweep: a base configuration and the swept sizes. */
struct CurveSpec
{
    /** Shared configuration; the swept field is ignored. */
    ModelConfig base;
    CurveAxis axis = CurveAxis::NvramBytes;
    /** Swept sizes in bytes, one Metrics row each (any order). */
    std::vector<Bytes> sizes;
    std::uint64_t seed = 42;
};

/**
 * Always false.  Size sweeps have one implementation, the per-size
 * replay grid; this is kept only so run manifests that record a
 * "curve_engine" switch still have a value to print.
 */
bool curveEngineEnabled();

/**
 * The per-size model grid equivalent to `spec`: one ModelConfig per
 * size, in spec.sizes order, with the swept field substituted and
 * every other field copied from spec.base.
 */
std::vector<ModelConfig> curveGridModels(const CurveSpec &spec);

} // namespace nvfs::core
