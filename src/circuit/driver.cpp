#include "circuit/driver.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace nebula {

DacDriver::DacDriver(int bits, double supplyVoltage)
    : bits_(bits), levels_(1 << bits), supply_(supplyVoltage)
{
    NEBULA_ASSERT(bits_ >= 1 && bits_ <= 12, "unsupported DAC resolution");
    for (int c = 0; c < levels_; ++c)
        codeOutputs_.push_back(normalizedOutput(c));
}

std::vector<double>
DacDriver::drive(const std::vector<double> &normalized) const
{
    std::vector<double> out(normalized.size());
    for (size_t i = 0; i < normalized.size(); ++i)
        out[i] = quantizedOutput(normalized[i]);
    return out;
}

std::vector<double>
SpikeDriver::drive(const std::vector<uint8_t> &spikes) const
{
    std::vector<double> out(spikes.size());
    for (size_t i = 0; i < spikes.size(); ++i)
        out[i] = spikes[i] ? 1.0 : 0.0;
    return out;
}

} // namespace nebula
