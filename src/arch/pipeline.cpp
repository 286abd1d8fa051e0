#include "arch/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace nebula {

int
PipelineModel::stagesFor(const LayerMapping &layer) const
{
    // fetch -> evaluate -> writeback.
    int stages = 3;
    if (layer.needsAdc) {
        // ADC digitization plus a log2-depth RU reduction tree and the
        // final activation application.
        const int reduction_hops = std::max(
            1, static_cast<int>(
                   std::ceil(std::log2(std::max(2, layer.coreSplit)))));
        stages += 1 + reduction_hops + 1;
    }
    return stages;
}

long long
PipelineModel::layerLatencyCycles(const LayerMapping &layer) const
{
    return stagesFor(layer) + layer.positions - 1;
}

long long
PipelineModel::networkLatencyCycles(const NetworkMapping &mapping) const
{
    long long cycles = 0;
    for (const auto &layer : mapping.layers)
        cycles += layerLatencyCycles(layer);
    return cycles;
}

double
PipelineModel::networkLatency(const NetworkMapping &mapping,
                              int timesteps) const
{
    NEBULA_ASSERT(timesteps >= 1, "bad timestep count");
    return static_cast<double>(networkLatencyCycles(mapping)) * timesteps *
           kCycleTime;
}

double
PipelineModel::throughput(const NetworkMapping &mapping,
                          int timesteps) const
{
    long long slowest = 1;
    for (const auto &layer : mapping.layers)
        slowest = std::max(slowest, layerLatencyCycles(layer));
    const double seconds =
        static_cast<double>(slowest) * timesteps * kCycleTime;
    return seconds > 0 ? 1.0 / seconds : 0.0;
}

long long
PipelineModel::layerBatchLatencyCycles(const LayerMapping &layer,
                                       int batch) const
{
    NEBULA_ASSERT(batch >= 1, "bad batch size");
    return stagesFor(layer) +
           static_cast<long long>(batch) * layer.positions - 1;
}

double
PipelineModel::batchedThroughput(const NetworkMapping &mapping, int batch,
                                 int timesteps) const
{
    NEBULA_ASSERT(batch >= 1, "bad batch size");
    long long slowest = 1;
    for (const auto &layer : mapping.layers)
        slowest = std::max(slowest, layerBatchLatencyCycles(layer, batch));
    const double seconds =
        static_cast<double>(slowest) * timesteps * kCycleTime;
    return seconds > 0 ? batch / seconds : 0.0;
}

} // namespace nebula
