/**
 * @file
 * Analytical energy / power / latency model for NEBULA (paper Sec. V-C,
 * VI). Mirrors the paper's methodology: component power and area come
 * from Table III (circuit/component_db); activity counts come from the
 * layer mapping plus measured (or synthetic) activation statistics.
 *
 * ANN mode: one crossbar evaluation per output position; all Rf rows
 * are driven with multi-bit DACs each cycle.
 *
 * SNN mode: the same evaluation repeats every algorithmic timestep, but
 * only rows that carry a spike consume driver/crossbar read energy, and
 * the 1-bit 0.25 V drivers are ~30x cheaper than the ANN DACs. The MTJ
 * neurons hold the membrane potential between timesteps, so -- unlike
 * INXS -- no SRAM read-modify-write is charged per timestep.
 *
 * Hybrid mode: SNN prefix + Accumulator Units + ANN suffix.
 */

#ifndef NEBULA_ARCH_ENERGY_MODEL_HPP
#define NEBULA_ARCH_ENERGY_MODEL_HPP

#include <map>
#include <string>
#include <vector>

#include "arch/mapping.hpp"
#include "circuit/component_db.hpp"

namespace nebula {

/** Energy accounting for one layer, per inference. */
struct LayerEnergy
{
    int layerIndex = -1;
    std::string name;
    double energy = 0.0;       //!< J per inference
    double peakPower = 0.0;    //!< W while the layer is active
    long long cycles = 0;      //!< evaluation cycles per inference
    std::map<std::string, double> byComponent; //!< J per component class
};

/** Whole-network energy accounting, per inference. */
struct InferenceEnergy
{
    std::vector<LayerEnergy> layers;
    double totalEnergy = 0.0;   //!< J
    double latency = 0.0;       //!< s (sequential layer execution)
    double avgPower = 0.0;      //!< W == totalEnergy / latency
    double peakPower = 0.0;     //!< max over layers
    std::map<std::string, double> byComponent;

    /** Fraction of total energy attributed to a component class. */
    double componentShare(const std::string &name) const;
};

/** Per-layer activity statistics driving the dynamic-energy scaling. */
struct ActivityProfile
{
    /**
     * For each mapped layer, the average input activity:
     *  - ANN: mean driven level as a fraction of full scale (0..1);
     *  - SNN: average spikes per input neuron per timestep (0..1).
     */
    std::vector<double> inputActivity;

    /** Uniform profile. */
    static ActivityProfile uniform(size_t layers, double activity);

    /**
     * Depth-decaying spiking profile mirroring paper Fig. 4: activity
     * starts at @p front and decays geometrically to @p floor.
     */
    static ActivityProfile decaying(size_t layers, double front = 0.25,
                                    double decay = 0.82,
                                    double floor = 0.01);
};

/** The analytical model. */
class EnergyModel
{
  public:
    EnergyModel();

    /** ANN-mode accounting for a mapped network. */
    InferenceEnergy evaluateAnn(const NetworkMapping &mapping,
                                const ActivityProfile &activity) const;

    /**
     * SNN-mode accounting.
     * @param timesteps Evidence-integration window T.
     */
    InferenceEnergy evaluateSnn(const NetworkMapping &mapping,
                                const ActivityProfile &activity,
                                int timesteps) const;

    /**
     * Hybrid accounting: layers [0, split) of @p mapping run in SNN mode
     * for @p timesteps, the rest in ANN mode once, with AU energy for
     * the boundary accumulation.
     *
     * @param boundary_neurons Width of the SNN->ANN interface.
     * @param boundary_spikes  Spikes accumulated at the AU per inference.
     */
    InferenceEnergy evaluateHybrid(const NetworkMapping &mapping,
                                   const ActivityProfile &activity,
                                   int split, int timesteps,
                                   long long boundary_neurons,
                                   long long boundary_spikes) const;

    /** Per-evaluation active power of one layer (W). */
    double layerActivePower(const LayerMapping &layer, Mode mode,
                            double input_activity) const;

  private:
    LayerEnergy evaluateLayer(const LayerMapping &layer, Mode mode,
                              double input_activity, int timesteps) const;

    const ComponentDb &db_;
};

} // namespace nebula

#endif // NEBULA_ARCH_ENERGY_MODEL_HPP
