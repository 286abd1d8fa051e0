/**
 * @file
 * DW-MTJ neuron devices (paper Fig. 2).
 *
 * Spiking neuron: column current through the heavy metal moves the wall;
 * the membrane potential *is* the wall position, so no SRAM read/write is
 * needed between timesteps. When the wall reaches the far edge, the edge
 * MTJ flips, the MTJ/reference-MTJ resistive divider trips the inverter
 * and a spike is emitted; a reverse pulse then resets the wall.
 *
 * Non-spiking (ANN) neuron: the same track read out through a transistor
 * biased in saturation yields a Saturating Rectified Linear transfer --
 * output proportional to wall displacement, clipped at the track end,
 * with negative drive unable to move the wall below zero (ReLU).
 */

#ifndef NEBULA_DEVICE_NEURON_DEVICE_HPP
#define NEBULA_DEVICE_NEURON_DEVICE_HPP

#include <cmath>
#include <vector>

#include "common/logging.hpp"
#include "common/rounding.hpp"
#include "device/domain_wall.hpp"
#include "device/mtj.hpp"

namespace nebula {

/**
 * Precomputed readout of the pinning states of a ReluNeuronDevice:
 * state index k = round(position / pinPitch) maps to the normalized
 * output and the quantized level. Built once per (track, levels) pair
 * with exactly the pinnedPosition() + rounding expressions of the
 * direct evaluate() path, so looked-up results are bit-identical --
 * the table only removes the per-element divides and rounds that
 * recompute the same handful of discrete values.
 */
struct ReluReadoutLut
{
    std::vector<double> out;  //!< normalized output per pinning state
    std::vector<int> level;   //!< quantized output level per state
};

/** Integrate-and-fire spiking neuron device. */
class SpikingNeuronDevice
{
  public:
    explicit SpikingNeuronDevice(const NeuronDeviceParams &params = {});

    /**
     * Integrate a column current for one pipeline stage.
     *
     * @param current  Input current (A); negative currents (inhibitory
     *                 columns) move the wall backwards but not below 0.
     * @param duration Integration window (s), one 110 ns stage.
     * @param rng      Optional RNG for thermal jitter.
     * @return true if the neuron fired (and auto-reset) this step.
     *
     * Inline: one call per neuron per timestep is the SNN hot loop.
     */
    bool integrate(double current, double duration, Rng *rng = nullptr)
    {
        // Negative (inhibitory) drive moves the wall back toward zero;
        // the clamp in DomainWallTrack enforces the IF floor at rest.
        track_.applyCurrent(current, duration, rng);

        // Ohmic loss of the column current across the device write path
        // plus the static divider/inverter interface.
        energy_ += current * current * p_.track.writePathResistance *
                   duration;
        energy_ += p_.interfacePower * duration;

        if (track_.position() >=
            p_.track.length - p_.track.pinPitch * 0.25) {
            // Edge MTJ flipped -> divider trips the inverter -> spike;
            // the spike drives the reverse reset pulse.
            track_.reset();
            ++spikes_;
            energy_ += p_.resetEnergy;
            return true;
        }
        return false;
    }

    /** Membrane potential as a fraction of threshold, in [0, 1). */
    double membraneFraction() const;

    /** Explicitly reset the wall (start of a new inference). */
    void reset();

    /** Spikes fired since construction or clearStats(). */
    long long spikeCount() const { return spikes_; }

    /** Energy consumed so far (integration + resets + interface) (J). */
    double energy() const { return energy_; }

    /** Clear spike and energy accounting. */
    void clearStats();

    /**
     * Current that moves the wall across the full track in exactly one
     * integration window -- the device's "threshold current". Inputs are
     * scaled against this by the neuron-unit periphery.
     */
    double thresholdCurrent(double duration) const;

    const DomainWallTrack &track() const { return track_; }
    const NeuronDeviceParams &params() const { return p_; }

  private:
    NeuronDeviceParams p_;
    DomainWallTrack track_;
    MtjStack mtj_;
    long long spikes_ = 0;
    double energy_ = 0.0;
};

/** Saturating rectified-linear (ANN) neuron device. */
class ReluNeuronDevice
{
  public:
    explicit ReluNeuronDevice(const NeuronDeviceParams &params = {});

    /**
     * Evaluate one crossbar cycle: drive the wall with the column
     * current for @p duration, read out the displacement as a
     * multi-level output, then reset for the next evaluation.
     *
     * @return output level in [0, levels-1] (saturating ReLU of input).
     *
     * Inline: one call per output element per ANN crossbar cycle is the
     * ANN periphery hot loop.
     */
    int evaluate(double current, double duration, int levels = 16,
                 Rng *rng = nullptr)
    {
        NEBULA_ASSERT(levels >= 2, "need at least two output levels");
        track_.reset();
        track_.applyCurrent(current, duration, rng);

        lastOutput_ = track_.pinnedPosition() / p_.track.length;
        energy_ += std::abs(current) * std::abs(current) *
                   p_.track.writePathResistance * duration;
        energy_ += p_.interfacePower * duration;
        // Reset pulse returns the wall for the next evaluation.
        energy_ += p_.resetEnergy;
        track_.reset();

        return static_cast<int>(std::round(lastOutput_ * (levels - 1)));
    }

    /**
     * Build the pinning-state readout table for a given output
     * resolution. Every entry is computed with the same expression
     * chain the direct evaluate() overload runs per call.
     */
    ReluReadoutLut buildReadoutLut(int levels) const
    {
        NEBULA_ASSERT(levels >= 2, "need at least two output levels");
        const DwTrackParams &t = p_.track;
        const int states =
            static_cast<int>(std::ceil(t.length / t.pinPitch)) + 2;
        ReluReadoutLut lut;
        lut.out.resize(static_cast<size_t>(states));
        lut.level.resize(static_cast<size_t>(states));
        for (int k = 0; k < states; ++k) {
            const double snapped = std::clamp(
                static_cast<double>(k) * t.pinPitch, 0.0, t.length);
            lut.out[static_cast<size_t>(k)] = snapped / t.length;
            lut.level[static_cast<size_t>(k)] = static_cast<int>(
                std::round(lut.out[static_cast<size_t>(k)] * (levels - 1)));
        }
        return lut;
    }

    /**
     * Evaluate one cycle through a prebuilt readout table (the ANN
     * periphery hot path): identical device physics and energy
     * accounting as the direct overload, with the displacement readout
     * taken from the table instead of recomputed per element.
     */
    int evaluate(double current, double duration,
                 const ReluReadoutLut &lut, Rng *rng = nullptr)
    {
        track_.reset();
        track_.applyCurrent(current, duration, rng);

        // The wall position is clamped to [0, length]: the index
        // rounds inline, as std::round would.
        const int k =
            roundNonNegative(track_.position() / p_.track.pinPitch);
        lastOutput_ = lut.out[static_cast<size_t>(k)];
        energy_ += std::abs(current) * std::abs(current) *
                   p_.track.writePathResistance * duration;
        energy_ += p_.interfacePower * duration;
        // Reset pulse returns the wall for the next evaluation.
        energy_ += p_.resetEnergy;
        track_.reset();

        return lut.level[static_cast<size_t>(k)];
    }

    /** Continuous output in [0, 1] for the most recent evaluation. */
    double lastOutput() const { return lastOutput_; }

    /** Energy consumed so far (J). */
    double energy() const { return energy_; }

    double thresholdCurrent(double duration) const;

    const NeuronDeviceParams &params() const { return p_; }

  private:
    NeuronDeviceParams p_;
    DomainWallTrack track_;
    MtjStack mtj_;
    double lastOutput_ = 0.0;
    double energy_ = 0.0;
};

} // namespace nebula

#endif // NEBULA_DEVICE_NEURON_DEVICE_HPP
