#include "baselines/inxs.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/units.hpp"

namespace nebula {

namespace {

constexpr double kInxsCycleTime = 100 * units::ns;

/** 8-bit ADC conversion of one membrane increment. */
constexpr double kAdcConversionEnergy = 2.0 * units::pJ;

/** NoC transfer of one digitized increment to its neuron unit. */
constexpr double kNocTransferEnergy = 50.0 * units::pJ;

/** Membrane-potential SRAM read / write (large central arrays). */
constexpr double kSramReadEnergy = 75.0 * units::pJ;
constexpr double kSramWriteEnergy = 75.0 * units::pJ;

/** Digital accumulate + threshold compare. */
constexpr double kAddCompareEnergy = 0.3 * units::pJ;

/** Crossbar read energy per active cell per evaluation. */
constexpr double kCellReadEnergy = 0.002 * units::pJ;

/** Per-crossbar peripheral power while a layer evaluates. */
constexpr double kCrossbarPeripheryPower = 1.0 * units::mW;

constexpr int kCrossbarSize = 128;

} // namespace

InxsLayerEnergy
InxsModel::evaluateLayer(const LayerMapping &layer, double input_activity,
                         int timesteps) const
{
    NEBULA_ASSERT(timesteps > 0, "need at least one timestep");
    const double alpha = std::clamp(input_activity, 0.0, 1.0);

    InxsLayerEnergy out;
    out.layerIndex = layer.layerIndex;
    out.name = layer.name;

    // Output neurons of this layer (each holds a membrane potential).
    const long long neurons = layer.outputElements;

    // Every timestep, every neuron's increment is digitized, shipped
    // and merged into the SRAM-resident membrane.
    out.neuronUpdates = neurons * timesteps;
    out.adcEnergy = static_cast<double>(out.neuronUpdates) *
                    kAdcConversionEnergy;
    out.membraneEnergy =
        static_cast<double>(out.neuronUpdates) *
        (kSramReadEnergy + kSramWriteEnergy + kAddCompareEnergy);
    const double noc_energy = static_cast<double>(out.neuronUpdates) *
                              kNocTransferEnergy;

    // Crossbar evaluations: positions per timestep; read energy scales
    // with active cells.
    const double cells =
        static_cast<double>(layer.rf) * layer.kernels;
    const double xbar_energy = cells * alpha * kCellReadEnergy *
                               static_cast<double>(layer.positions) *
                               timesteps;
    const long long crossbars =
        ((layer.rf + kCrossbarSize - 1) / kCrossbarSize) *
        ((layer.kernels + kCrossbarSize - 1) / kCrossbarSize);
    const double periphery_energy =
        static_cast<double>(crossbars) * kCrossbarPeripheryPower *
        static_cast<double>(layer.positions) * timesteps * kInxsCycleTime;

    out.energy = out.adcEnergy + out.membraneEnergy + noc_energy +
                 xbar_energy + periphery_energy;
    return out;
}

InxsEnergy
InxsModel::evaluate(const NetworkMapping &mapping,
                    const std::vector<double> &activity,
                    int timesteps) const
{
    NEBULA_ASSERT(activity.size() == mapping.layers.size(),
                  "activity profile size mismatch");
    InxsEnergy out;
    for (size_t i = 0; i < mapping.layers.size(); ++i) {
        out.layers.push_back(
            evaluateLayer(mapping.layers[i], activity[i], timesteps));
        out.totalEnergy += out.layers.back().energy;
    }
    return out;
}

} // namespace nebula
