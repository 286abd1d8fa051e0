/**
 * @file
 * Top-level NEBULA chip configuration. The architecture itself (paper
 * Sec. IV, Table III) is fixed; its parameters are the named constants
 * of circuit/component_db.hpp.
 */

#ifndef NEBULA_ARCH_CONFIG_HPP
#define NEBULA_ARCH_CONFIG_HPP

#include "circuit/component_db.hpp"

namespace nebula {

/** The chip's one optional feature. */
struct NebulaConfig
{
    /**
     * Online ABFT integrity checking: program one checksum column per
     * crossbar and compare every evaluation's data-column current sum
     * against the input-weighted checksum expectation within an
     * ADC-quantization-derived tolerance. Violations are counted into
     * ChipStats::abftViolations (and surfaced per request by the
     * runtime); the checksum read-out's ohmic energy and ADC
     * conversion are billed with the rest of the array. Off (default)
     * keeps every output byte-identical to a chip without the column.
     */
    bool abft = false;
};

} // namespace nebula

#endif // NEBULA_ARCH_CONFIG_HPP
