#include "arch/energy_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace nebula {

double
InferenceEnergy::componentShare(const std::string &name) const
{
    auto it = byComponent.find(name);
    if (it == byComponent.end() || totalEnergy <= 0.0)
        return 0.0;
    return it->second / totalEnergy;
}

ActivityProfile
ActivityProfile::uniform(size_t layers, double activity)
{
    ActivityProfile profile;
    profile.inputActivity.assign(layers, activity);
    return profile;
}

ActivityProfile
ActivityProfile::decaying(size_t layers, double front, double decay,
                          double floor)
{
    ActivityProfile profile;
    double a = front;
    for (size_t i = 0; i < layers; ++i) {
        profile.inputActivity.push_back(std::max(a, floor));
        a *= decay;
    }
    return profile;
}

EnergyModel::EnergyModel() : db_(componentDb())
{
}

namespace {

/** Average NoC hop distance assumed for bulk traffic accounting. */
constexpr double kAvgHops = 2.0;

/** One driver of a core's bank (the Table III row covers 16 x 128). */
constexpr int kDriversPerCore = kCrossbarsPerCore * kAtomicSize;

double
nocEnergyForBits(double bits)
{
    return bits / kFlitBits * kAvgHops * kFlitHopEnergy;
}

} // namespace

double
EnergyModel::layerActivePower(const LayerMapping &layer, Mode mode,
                              double input_activity) const
{
    const double alpha = std::clamp(input_activity, 0.0, 1.0);

    // Leakage of the cores the layer occupies.
    double power = layer.coresNeeded *
                   (mode == Mode::ANN ? kAnnCoreLeakage : kSnnCoreLeakage);

    // Drivers: one per active row.
    const double driver_unit =
        (mode == Mode::ANN ? db_.annDacPower() : db_.snnDriverPower()) /
        kDriversPerCore;
    power += driver_unit * static_cast<double>(layer.dacRowsPerEval) * alpha;

    // Crossbar read power scales with programmed-cell utilization and
    // input activity.
    const double xbar_unit = db_.crossbarPower(mode) / kCrossbarsPerCore;
    power += xbar_unit * static_cast<double>(layer.acsNeeded) *
             layer.utilization * alpha;

    // Neuron units: one NU row of 128 neurons per active column group.
    const double nu_row = db_.neuronUnitPower() / kNeuronUnitRows;
    power += nu_row * static_cast<double>(layer.columnGroups);

    // Buffer/eDRAM bandwidth power at this activity level.
    const double bits_per_eval =
        (mode == Mode::ANN)
            ? (static_cast<double>(layer.rf) + layer.kernels) *
                  kPrecisionBits
            : (static_cast<double>(layer.rf) + layer.kernels) * alpha;
    power += bits_per_eval * (kSramBitEnergy + kEdramBitEnergy) / kCycleTime;

    // Per-core ADC is powered only when partial sums leave the core.
    if (layer.needsAdc)
        power += db_.adcPower() * layer.coresNeeded;

    return power;
}

LayerEnergy
EnergyModel::evaluateLayer(const LayerMapping &layer, Mode mode,
                           double input_activity, int timesteps) const
{
    const double alpha = std::clamp(input_activity, 0.0, 1.0);

    LayerEnergy out;
    out.layerIndex = layer.layerIndex;
    out.name = layer.name;

    const long long evals_per_pass = layer.positions;
    const long long passes = (mode == Mode::SNN) ? timesteps : 1;
    out.cycles = evals_per_pass * passes;

    // Event gating (SNN): an evaluation whose input window carries no
    // spike is skipped; only leakage is burned. The probability that at
    // least one of the Rf inputs spiked this step:
    double executed_fraction = 1.0;
    if (mode == Mode::SNN) {
        executed_fraction =
            1.0 - std::pow(1.0 - alpha, static_cast<double>(layer.rf));
        executed_fraction = std::clamp(executed_fraction, 0.0, 1.0);
    }

    const double active_cycles =
        static_cast<double>(out.cycles) * executed_fraction;

    const double driver_unit =
        (mode == Mode::ANN ? db_.annDacPower() : db_.snnDriverPower()) /
        kDriversPerCore;
    const double driver_energy = driver_unit * layer.dacRowsPerEval * alpha *
                                 active_cycles * kCycleTime;
    const double xbar_energy =
        (db_.crossbarPower(mode) / kCrossbarsPerCore) * layer.acsNeeded *
        layer.utilization * alpha * active_cycles * kCycleTime;
    const double nu_energy = db_.neuronUnitPower() / kNeuronUnitRows *
                             layer.columnGroups * active_cycles * kCycleTime;

    // Buffers and eDRAM: per-access energy. ANN moves Rf 4-bit inputs
    // in and `kernels` 4-bit outputs out per evaluation; SNN moves only
    // the spikes that occurred (1 bit each). Leakage accrues on every
    // cycle of the layer's occupancy, gated or not.
    const double bits_per_eval =
        (mode == Mode::ANN)
            ? (static_cast<double>(layer.rf) + layer.kernels) *
                  kPrecisionBits
            : (static_cast<double>(layer.rf) + layer.kernels) * alpha;
    // Spilled kernels (Rf > 16M) stage their digitized partial sums
    // through eDRAM and the RU reduction tree: extra occupancy cycles
    // and a 4-bit eDRAM round trip per partial sum (paper Fig. 8,
    // dashed stages).
    const double reduction_cycles =
        layer.needsAdc ? static_cast<double>(out.cycles) : 0.0;
    const double partial_sum_bits =
        static_cast<double>(layer.adcConversions) * passes *
        kPrecisionBits * 2.0;

    const double leakage =
        (mode == Mode::ANN ? kAnnCoreLeakage : kSnnCoreLeakage) *
        layer.coresNeeded *
        (static_cast<double>(out.cycles) + reduction_cycles) * kCycleTime;
    const double sram_energy =
        bits_per_eval * kSramBitEnergy * active_cycles +
        0.4 * leakage;
    const double edram_energy =
        bits_per_eval * kEdramBitEnergy * active_cycles +
        partial_sum_bits * kEdramBitEnergy + 0.6 * leakage;

    // ADC + RU reduction (per pass; SNN repeats every timestep).
    const double adc_conversion = db_.adcPower() / kDigitalClock;
    double adc_energy = layer.adcConversions * passes * adc_conversion;
    if (layer.needsAdc)
        adc_energy += db_.adcPower() * layer.coresNeeded * active_cycles *
                      kCycleTime;
    const double ru_energy =
        layer.ruAdditions * passes *
        (db_.accumulatorAdderPower() / kAccumulatorLanes) / kDigitalClock;

    // NoC: output activations (4-bit each; binary spikes in SNN mode)
    // plus digitized partial sums.
    double traffic_bits;
    if (mode == Mode::SNN) {
        traffic_bits = static_cast<double>(layer.outputElements) * alpha *
                       passes; // 1-bit spikes
    } else {
        traffic_bits = static_cast<double>(layer.outputElements) *
                       kPrecisionBits;
    }
    traffic_bits += static_cast<double>(layer.adcConversions) * passes *
                    kPrecisionBits;
    const double noc_energy = nocEnergyForBits(traffic_bits);

    out.byComponent["driver/dac"] = driver_energy;
    out.byComponent["crossbar"] = xbar_energy;
    out.byComponent["neuron"] = nu_energy;
    out.byComponent["sram"] = sram_energy;
    out.byComponent["edram"] = edram_energy;
    out.byComponent["adc"] = adc_energy;
    out.byComponent["ru"] = ru_energy;
    out.byComponent["noc"] = noc_energy;

    out.energy = driver_energy + xbar_energy + nu_energy + sram_energy +
                 edram_energy + adc_energy + ru_energy + noc_energy;

    // Peak power: ANN drives everything at full scale; SNN peaks are
    // bounded by the spatial spike sparsity (paper Fig. 14).
    out.peakPower = (mode == Mode::ANN)
                        ? layerActivePower(layer, Mode::ANN, 1.0)
                        : layerActivePower(layer, Mode::SNN, alpha);
    return out;
}

namespace {

InferenceEnergy
finalize(std::vector<LayerEnergy> layers)
{
    InferenceEnergy out;
    long long cycles = 0;
    for (auto &layer : layers) {
        out.totalEnergy += layer.energy;
        out.peakPower = std::max(out.peakPower, layer.peakPower);
        cycles += layer.cycles;
        for (const auto &kv : layer.byComponent)
            out.byComponent[kv.first] += kv.second;
    }
    out.latency = static_cast<double>(cycles) * kCycleTime;
    out.avgPower = out.latency > 0 ? out.totalEnergy / out.latency : 0.0;
    out.layers = std::move(layers);
    return out;
}

} // namespace

InferenceEnergy
EnergyModel::evaluateAnn(const NetworkMapping &mapping,
                         const ActivityProfile &activity) const
{
    NEBULA_ASSERT(activity.inputActivity.size() == mapping.layers.size(),
                  "activity profile size mismatch: ",
                  activity.inputActivity.size(), " vs ",
                  mapping.layers.size());
    std::vector<LayerEnergy> layers;
    for (size_t i = 0; i < mapping.layers.size(); ++i)
        layers.push_back(evaluateLayer(mapping.layers[i], Mode::ANN,
                                       activity.inputActivity[i], 1));
    return finalize(std::move(layers));
}

InferenceEnergy
EnergyModel::evaluateSnn(const NetworkMapping &mapping,
                         const ActivityProfile &activity,
                         int timesteps) const
{
    NEBULA_ASSERT(activity.inputActivity.size() == mapping.layers.size(),
                  "activity profile size mismatch");
    NEBULA_ASSERT(timesteps > 0, "need at least one timestep");
    std::vector<LayerEnergy> layers;
    for (size_t i = 0; i < mapping.layers.size(); ++i)
        layers.push_back(evaluateLayer(mapping.layers[i], Mode::SNN,
                                       activity.inputActivity[i],
                                       timesteps));
    return finalize(std::move(layers));
}

InferenceEnergy
EnergyModel::evaluateHybrid(const NetworkMapping &mapping,
                            const ActivityProfile &activity, int split,
                            int timesteps, long long boundary_neurons,
                            long long boundary_spikes) const
{
    NEBULA_ASSERT(split >= 1 &&
                      split < static_cast<int>(mapping.layers.size()),
                  "hybrid split out of range");
    std::vector<LayerEnergy> layers;
    for (size_t i = 0; i < mapping.layers.size(); ++i) {
        const bool spiking = static_cast<int>(i) < split;
        layers.push_back(evaluateLayer(
            mapping.layers[i], spiking ? Mode::SNN : Mode::ANN,
            activity.inputActivity[i], spiking ? timesteps : 1));
    }

    // Accumulator Unit: one add + register write per boundary spike,
    // plus register static power over the accumulation window.
    const double per_add = (db_.accumulatorAdderPower() +
                            db_.accumulatorRegisterPower()) /
                           kAccumulatorLanes / kDigitalClock;
    LayerEnergy au;
    au.layerIndex = -2;
    au.name = "accumulator-unit";
    au.energy = boundary_spikes * per_add +
                (static_cast<double>(boundary_neurons) / kAccumulatorLanes) *
                    db_.accumulatorPower() * timesteps * kCycleTime;
    au.byComponent["accumulator"] = au.energy;
    au.peakPower = db_.accumulatorPower() *
                   std::ceil(static_cast<double>(boundary_neurons) /
                             kAccumulatorLanes);
    layers.push_back(au);

    return finalize(std::move(layers));
}

} // namespace nebula
