#include "baselines/isaac.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace nebula {

namespace {

constexpr int kCrossbarSize = 128; //!< rows == cols
constexpr int kCrossbarsPerIma = 8;
constexpr int kBitsPerCell = 2;
constexpr double kIsaacCycleTime = 100 * units::ns;

/** Fraction of IMA power that is input-activity-dependent. */
constexpr double kDynamicFraction = 0.55;

} // namespace

int
IsaacConfig::weightSlices() const
{
    return weightBits / kBitsPerCell;
}

IsaacConfig
IsaacConfig::original16bit()
{
    IsaacConfig cfg;
    cfg.weightBits = 16;
    cfg.inputBits = 16;
    // Full 8-bit ADC budget: ~58% of a ~41 mW IMA+share budget.
    cfg.imaActivePower = 41 * units::mW;
    cfg.adcShare = 0.58;
    cfg.dacShare = 0.08;
    cfg.crossbarShare = 0.06;
    cfg.digitalShare = 0.10;
    cfg.bufferShare = 0.18;
    return cfg;
}

IsaacModel::IsaacModel(const IsaacConfig &config) : config_(config)
{
    NEBULA_ASSERT(config_.weightBits % kBitsPerCell == 0,
                  "weight bits must be a multiple of cell bits");
}

long long
IsaacModel::crossbarsFor(const LayerMapping &layer) const
{
    const int m = kCrossbarSize;
    if (layer.kind == LayerKind::DwConv && layer.rf <= m) {
        // Depthwise kernels read disjoint channels, so kernels sharing a
        // crossbar must be packed diagonally: each kernel occupies its
        // own Rf rows and `slices` adjacent columns.
        const long long by_rows = m / layer.rf;
        const long long by_cols = m / config_.weightSlices();
        const long long per_xbar = std::max<long long>(
            1, std::min(by_rows, by_cols));
        return (layer.kernels + per_xbar - 1) / per_xbar;
    }
    const long long row_chunks = (layer.rf + m - 1) / m;
    const long long columns =
        static_cast<long long>(layer.kernels) * config_.weightSlices();
    const long long col_chunks = (columns + m - 1) / m;
    return row_chunks * col_chunks;
}

IsaacLayerEnergy
IsaacModel::evaluateLayer(const LayerMapping &layer,
                          double input_activity) const
{
    const double alpha = std::clamp(input_activity, 0.0, 1.0);

    IsaacLayerEnergy out;
    out.layerIndex = layer.layerIndex;
    out.name = layer.name;
    out.crossbars = crossbarsFor(layer);
    out.imas = (out.crossbars + kCrossbarsPerIma - 1) / kCrossbarsPerIma;
    out.cycles = layer.positions * config_.inputBits;

    // Active power at crossbar granularity: each active crossbar brings
    // its ADC sweep, DAC rows and S&A share. The ADC/digital slice runs
    // every cycle regardless of utilization; the crossbar-read and DAC
    // shares scale with input activity.
    const double p_xbar = config_.imaActivePower / kCrossbarsPerIma;
    const double scale = (1.0 - kDynamicFraction) + kDynamicFraction * alpha;
    const double power = static_cast<double>(out.crossbars) * p_xbar * scale;

    out.energy =
        power * static_cast<double>(out.cycles) * kIsaacCycleTime;
    out.adcEnergy = out.energy * config_.adcShare /
                    (config_.adcShare + config_.dacShare +
                     config_.crossbarShare + config_.digitalShare +
                     config_.bufferShare);
    return out;
}

IsaacEnergy
IsaacModel::evaluate(const NetworkMapping &mapping,
                     double input_activity) const
{
    IsaacEnergy out;
    long long cycles = 0;
    for (const auto &layer : mapping.layers) {
        out.layers.push_back(evaluateLayer(layer, input_activity));
        out.totalEnergy += out.layers.back().energy;
        cycles += out.layers.back().cycles;
    }
    out.latency = static_cast<double>(cycles) * kIsaacCycleTime;
    return out;
}

} // namespace nebula
