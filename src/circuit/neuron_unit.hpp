/**
 * @file
 * A Neuron Unit (NU): the column-side array of M spin neurons attached to
 * an atomic crossbar (paper Fig. 7). The NU periphery scales the signed
 * differential column currents onto the neuron devices so that the
 * algorithmic threshold (SNN) or activation ceiling (ANN) corresponds to
 * a full domain-wall traversal in one 110 ns window.
 *
 * The velocity law of the track has a depinning offset (no motion below
 * J_crit), so the periphery adds a signed bias current at the critical
 * level whenever the input is non-zero; displacement is then linear in
 * the algorithmic sum, which is what Fig. 1(b) reports for the device.
 */

#ifndef NEBULA_CIRCUIT_NEURON_UNIT_HPP
#define NEBULA_CIRCUIT_NEURON_UNIT_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/chip_params.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "device/neuron_device.hpp"

namespace nebula {

namespace detail {

/**
 * Device drive current for a signed column current: the periphery gain
 * plus the signed depinning bias injected whenever the input is nonzero
 * (keeps displacement linear in the algorithmic sum despite the
 * velocity law's J_crit offset). Inline: one call per neuron per cycle.
 */
inline double
nuDeviceCurrent(double column_current, double gain, double bias)
{
    if (column_current == 0.0)
        return 0.0;
    const double scaled = gain * column_current;
    return scaled >= 0.0 ? scaled + bias : scaled - bias;
}

} // namespace detail

/** Configuration of one neuron unit. */
struct NeuronUnitParams
{
    int count = kAtomicSize;     //!< neurons (one per column)
    double window = kCycleTime;  //!< integration window (s)
    NeuronDeviceParams device;   //!< underlying DW-MTJ neuron
    int levels = 1 << kPrecisionBits; //!< ANN output resolution
};

/** NU operating as spiking (IF) neurons. */
class SpikingNeuronUnit
{
  public:
    explicit SpikingNeuronUnit(const NeuronUnitParams &params);

    /**
     * Set the algorithmic-to-device scaling.
     *
     * @param current_scale Crossbar current per unit algorithmic sum
     *                      (CrossbarArray::currentScale()).
     * @param threshold     Algorithmic firing threshold (in units of the
     *                      normalized weighted sum).
     */
    void calibrate(double current_scale, double threshold);

    /**
     * Integrate one timestep of column currents.
     *
     * @param currents Signed differential column currents (A).
     * @param rng      Optional RNG for thermal jitter.
     * @return one bit per neuron: fired this step or not.
     */
    std::vector<uint8_t> step(const std::vector<double> &currents,
                              Rng *rng = nullptr);

    /** Reset all membranes (start of a new inference). */
    void reset();

    /** Membrane potential of neuron @p i as a fraction of threshold. */
    double membraneFraction(int i) const;

    /** Total energy consumed by the devices so far (J). */
    double energy() const;

    /** Total spikes fired so far. */
    long long spikeCount() const;

    int count() const { return p_.count; }

  private:
    NeuronUnitParams p_;
    std::vector<SpikingNeuronDevice> neurons_;
    double currentGain_ = 1.0;
    double biasCurrent_ = 0.0;
};

/**
 * NU operating as saturating-ReLU (ANN) neurons.
 *
 * A neuron's output level is a weakly monotone function of its column
 * current: the periphery drive, the wall's velocity law, the clamp to
 * the track and the two roundings of the readout are each weakly
 * monotone under correctly rounded arithmetic. So level k is reached
 * exactly by the currents at or above one threshold -- the smallest
 * current whose device chain reads k -- and calibrate() finds each
 * threshold by bisection over the ordered bit patterns of the
 * non-negative doubles. Reading a level is then a count of the
 * thresholds a current reaches, bit-identical to driving a
 * ReluNeuronDevice (tests/circuit_test.cpp pins it to that device
 * chain). Every neuron of the unit shares the one calibration.
 */
class ReluNeuronUnit
{
  public:
    explicit ReluNeuronUnit(const NeuronUnitParams &params);

    /**
     * Set the algorithmic-to-device scaling and build the level
     * thresholds. Until the first call every current reads level 0.
     *
     * @param current_scale Crossbar current per unit algorithmic sum.
     * @param ceiling       Algorithmic sum that saturates the output
     *                      (the layer's clipped activation maximum).
     */
    void calibrate(double current_scale, double ceiling);

    /**
     * Output level of each of @p n column currents into @p out: any
     * number of windows of the unit's columns at once, since every
     * neuron shares the thresholds. A branch-free count of the
     * thresholds each current reaches, which vectorizes across
     * currents -- the ANN periphery hot path.
     */
    void evaluateInto(const double *currents, int n, int *out) const
    {
        // Blocks of eight currents are compared against one threshold
        // at a time and counted in doubles, the compares' own width, so
        // the count runs eight wide; the tail goes one by one.
        const double *t = thresholds_.data();
        const int top = p_.levels - 1;
        int i = 0;
        for (; i + 8 <= n; i += 8) {
            double count[8] = {};
            for (int k = 0; k < top; ++k)
                for (int j = 0; j < 8; ++j)
                    count[j] += currents[i + j] >= t[k] ? 1.0 : 0.0;
            for (int j = 0; j < 8; ++j)
                out[i + j] = std::min(static_cast<int>(count[j]), maxLevel_);
        }
        for (; i < n; ++i) {
            int count = 0;
            for (int k = 0; k < top; ++k)
                count += currents[i] >= t[k];
            out[i] = std::min(count, maxLevel_);
        }
    }

    /**
     * Evaluate one cycle of column currents.
     * @return one output level in [0, levels-1] per neuron.
     */
    std::vector<int> evaluate(const std::vector<double> &currents) const
    {
        NEBULA_ASSERT(currents.size() == static_cast<size_t>(p_.count),
                      "column current count mismatch");
        std::vector<int> levels(p_.count, 0);
        evaluateInto(currents.data(), p_.count, levels.data());
        return levels;
    }

    /**
     * Smallest column current that reads at least level @p k, for k in
     * [1, levels-1]: -inf if every current does, +inf if no finite one
     * does.
     */
    double threshold(int k) const
    {
        NEBULA_ASSERT(k >= 1 && k < p_.levels, "level out of range: ", k);
        return thresholds_[static_cast<size_t>(k - 1)];
    }

    /** Periphery gain applied to the column current (calibrated). */
    double gain() const { return currentGain_; }

    /** Signed depinning bias added to a nonzero drive (calibrated). */
    double bias() const { return biasCurrent_; }

    int count() const { return p_.count; }
    int levels() const { return p_.levels; }

  private:
    NeuronUnitParams p_;
    double currentGain_ = 1.0;
    double biasCurrent_ = 0.0;

    std::vector<double> thresholds_; //!< level k's at [k - 1]
    int maxLevel_ = 0; //!< level of a +inf current (caps the count)
};

} // namespace nebula

#endif // NEBULA_CIRCUIT_NEURON_UNIT_HPP
