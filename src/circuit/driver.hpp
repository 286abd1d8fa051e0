/**
 * @file
 * Bit-line drivers. ANN neural cores use multi-level (4-bit, 0.75 V)
 * drivers so a multi-bit activation is applied in a single cycle
 * (Sec. IV-B1); SNN cores use 1-bit 0.25 V spike drivers.
 */

#ifndef NEBULA_CIRCUIT_DRIVER_HPP
#define NEBULA_CIRCUIT_DRIVER_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "common/rounding.hpp"
#include "common/units.hpp"

namespace nebula {

/** Multi-level DAC driver for ANN inputs. */
class DacDriver
{
  public:
    /**
     * @param bits          Resolution (4 -> 16 levels).
     * @param supplyVoltage Full-scale voltage (0.75 V).
     */
    DacDriver(int bits = 4, double supplyVoltage = 0.75);

    /**
     * Quantize a normalized activation in [0, 1] to a level code.
     * Inline: called once per input element per ANN layer.
     */
    int quantize(double normalized) const
    {
        const double clipped = std::clamp(normalized, 0.0, 1.0);
        return roundNonNegative(clipped * (levels_ - 1));
    }

    /** Normalized voltage factor (voltage / readVoltage) for a code. */
    double normalizedOutput(int code) const
    {
        NEBULA_ASSERT(code >= 0 && code < levels_, "DAC code out of range");
        return static_cast<double>(code) / (levels_ - 1);
    }

    /**
     * normalizedOutput(quantize(normalized)), read from the code table
     * built at construction: the ANN input path, once per element.
     */
    double quantizedOutput(double normalized) const
    {
        return codeOutputs_[static_cast<size_t>(quantize(normalized))];
    }

    /** Quantize a whole input vector in place, returning voltage factors. */
    std::vector<double> drive(const std::vector<double> &normalized) const;

    int levels() const { return levels_; }
    double supplyVoltage() const { return supply_; }

  private:
    int bits_;
    int levels_;
    double supply_;
    std::vector<double> codeOutputs_; //!< normalizedOutput() per code
};

/** 1-bit spike driver for SNN inputs. */
class SpikeDriver
{
  public:
    explicit SpikeDriver(double supplyVoltage = 0.25) : supply_(supplyVoltage)
    {
    }

    /** Convert a spike bitmap into voltage factors (0 or 1). */
    std::vector<double> drive(const std::vector<uint8_t> &spikes) const;

    double supplyVoltage() const { return supply_; }

  private:
    double supply_;
};

} // namespace nebula

#endif // NEBULA_CIRCUIT_DRIVER_HPP
