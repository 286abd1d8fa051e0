#include "circuit/neuron_unit.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.hpp"

namespace nebula {

namespace {

/**
 * Compute the periphery gain that maps an algorithmic sum equal to
 * @p full_scale onto a full-track traversal within one window, given the
 * crossbar's current scale. Returns the gain applied to the column
 * current and the signed depinning bias added when the input is nonzero.
 */
void
computeScaling(const NeuronDeviceParams &device, double window,
               double current_scale, double full_scale, double &gain,
               double &bias)
{
    NEBULA_ASSERT(current_scale > 0.0, "current scale must be positive");
    NEBULA_ASSERT(full_scale > 0.0, "algorithmic full scale must be > 0");

    const DwTrackParams &track = device.track;
    // Velocity needed to cross the track in one window when the
    // algorithmic sum equals full_scale.
    const double v_full = track.length / window;
    NEBULA_ASSERT(v_full <= track.saturationVelocity,
                  "window too short: full-scale velocity ", v_full,
                  " exceeds saturation ", track.saturationVelocity);
    // v = mobility * (J - Jc); at full scale we need
    //   J - Jc = v_full / mobility.
    const double overdrive_density = v_full / track.mobility;
    const double full_current =
        overdrive_density * track.hmCrossSection();

    gain = full_current / (current_scale * full_scale);
    bias = track.criticalDensity * track.hmCrossSection();
}

} // namespace

SpikingNeuronUnit::SpikingNeuronUnit(const NeuronUnitParams &params)
    : p_(params)
{
    NEBULA_ASSERT(p_.count > 0, "neuron unit must have neurons");
    neurons_.reserve(p_.count);
    for (int i = 0; i < p_.count; ++i)
        neurons_.emplace_back(p_.device);
}

void
SpikingNeuronUnit::calibrate(double current_scale, double threshold)
{
    computeScaling(p_.device, p_.window, current_scale, threshold,
                   currentGain_, biasCurrent_);
}

std::vector<uint8_t>
SpikingNeuronUnit::step(const std::vector<double> &currents, Rng *rng)
{
    NEBULA_ASSERT(currents.size() == static_cast<size_t>(p_.count),
                  "column current count mismatch");
    std::vector<uint8_t> spikes(p_.count, 0);
    for (int i = 0; i < p_.count; ++i) {
        const double drive =
            detail::nuDeviceCurrent(currents[i], currentGain_,
                                    biasCurrent_);
        if (neurons_[i].integrate(drive, p_.window, rng))
            spikes[i] = 1;
    }
    return spikes;
}

void
SpikingNeuronUnit::reset()
{
    for (auto &neuron : neurons_)
        neuron.reset();
}

double
SpikingNeuronUnit::membraneFraction(int i) const
{
    NEBULA_ASSERT(i >= 0 && i < p_.count, "neuron index out of range");
    return neurons_[i].membraneFraction();
}

double
SpikingNeuronUnit::energy() const
{
    double total = 0.0;
    for (const auto &neuron : neurons_)
        total += neuron.energy();
    return total;
}

long long
SpikingNeuronUnit::spikeCount() const
{
    long long total = 0;
    for (const auto &neuron : neurons_)
        total += neuron.spikeCount();
    return total;
}

ReluNeuronUnit::ReluNeuronUnit(const NeuronUnitParams &params) : p_(params)
{
    NEBULA_ASSERT(p_.count > 0, "neuron unit must have neurons");
    NEBULA_ASSERT(p_.levels >= 2, "need at least two output levels");
    thresholds_.assign(static_cast<size_t>(p_.levels - 1),
                       std::numeric_limits<double>::infinity());
}

void
ReluNeuronUnit::calibrate(double current_scale, double ceiling)
{
    computeScaling(p_.device, p_.window, current_scale, ceiling,
                   currentGain_, biasCurrent_);

    // The naive readout of one column current: the periphery drive
    // (ReLU first: negative sums cannot move the wall forward), then
    // one evaluation of a ReluNeuronDevice.
    ReluNeuronDevice device(p_.device);
    const auto level = [&](double current) {
        return device.evaluate(
            detail::nuDeviceCurrent(std::max(current, 0.0), currentGain_,
                                    biasCurrent_),
            p_.window, p_.levels);
    };
    // Non-negative doubles order like their bit patterns, from +0 up to
    // +inf, and every current <= 0 reads as +0 does. The smallest
    // current reaching level k is found by bisection over those
    // patterns; it never falls below level k-1's, so each search starts
    // there.
    const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
    const auto value = [](uint64_t u) { return std::bit_cast<double>(u); };
    const double inf = std::numeric_limits<double>::infinity();
    std::fill(thresholds_.begin(), thresholds_.end(), inf);
    maxLevel_ = level(inf);
    uint64_t lo = bits(0.0);
    for (int k = 1; k <= maxLevel_; ++k) {
        uint64_t hi = bits(inf);
        // The levels are evenly spaced in current, so the two previous
        // thresholds extrapolate this one to within a few ulps: when the
        // levels at the ends of a 2^11-ulp bracket around the guess show
        // it holds the threshold, only the bracket is searched.
        constexpr uint64_t kReach = 1u << 10;
        const double guess =
            k >= 3 ? 2.0 * thresholds_[static_cast<size_t>(k - 2)] -
                         thresholds_[static_cast<size_t>(k - 3)]
                   : 0.0;
        if (guess > value(lo + kReach) && guess < value(bits(inf) - kReach) &&
            level(value(bits(guess) - kReach)) < k &&
            level(value(bits(guess) + kReach)) >= k) {
            lo = bits(guess) - kReach;
            hi = bits(guess) + kReach;
        }
        while (lo < hi) {
            const uint64_t mid = lo + (hi - lo) / 2;
            if (level(value(mid)) >= k)
                hi = mid;
            else
                lo = mid + 1;
        }
        thresholds_[static_cast<size_t>(k - 1)] =
            lo == bits(0.0) ? -inf : value(lo);
    }
}

} // namespace nebula
