#include "core/sim/curve.hpp"

namespace nvfs::core {

bool
curveEngineEnabled()
{
    return false;
}

std::vector<ModelConfig>
curveGridModels(const CurveSpec &spec)
{
    std::vector<ModelConfig> models;
    models.reserve(spec.sizes.size());
    for (const Bytes size : spec.sizes) {
        ModelConfig model = spec.base;
        if (spec.axis == CurveAxis::VolatileBytes)
            model.volatileBytes = size;
        else
            model.nvramBytes = size;
        models.push_back(model);
    }
    return models;
}

} // namespace nvfs::core
