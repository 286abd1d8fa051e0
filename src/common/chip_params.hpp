/**
 * @file
 * The one home of NEBULA's fixed architecture parameters (paper
 * Sec. IV): geometry and timing, driver voltages, the NoC flit and the
 * 32 nm access energies. Each is defined here once and read everywhere
 * else; Table III's component powers live in circuit/component_db.hpp.
 */

#ifndef NEBULA_COMMON_CHIP_PARAMS_HPP
#define NEBULA_COMMON_CHIP_PARAMS_HPP

#include "common/units.hpp"

namespace nebula {

// -- Geometry and timing (paper Sec. IV) ----------------------------------

/** Atomic crossbar dimension M (rows == cols). */
constexpr int kAtomicSize = 128;

/** Atomic crossbars per neural core (2 x 2 tiles of 2 x 2 ACs). */
constexpr int kCrossbarsPerCore = 16;

/** Max receptive field the NU hierarchy sums in-core (16M). */
constexpr int kMaxInCoreRf = kCrossbarsPerCore * kAtomicSize;

/** NU rows per NC (16 at H0 + 4 at H1 + 2 at H2 + spare = 23). */
constexpr int kNeuronUnitRows = 23;

/** Lanes (adders / registers) of one Accumulator Unit. */
constexpr int kAccumulatorLanes = 1024;

/** Pipeline stage / crossbar evaluation time (s, Sec. IV-B5). */
constexpr double kCycleTime = 110 * units::ns;

/** Digital component clock within a stage (Hz). */
constexpr double kDigitalClock = 1.2e9;

/** Weight / activation precision (bits). */
constexpr int kPrecisionBits = 4;

/** Mesh geometry: 14 x 14 NCs, one column of ANN cores, the rest SNN. */
constexpr int kMeshWidth = 14;
constexpr int kMeshHeight = 14;
constexpr int kAnnCores = 14;
constexpr int kSnnCores = 14 * 13;

/** Bit-line drive: ANN multi-bit DACs and SNN 1-bit spike drivers (V). */
constexpr double kAnnDriverVoltage = 0.75;
constexpr double kSnnDriverVoltage = 0.25;

// -- Access energies (32 nm class) ----------------------------------------
//
// The buffers and eDRAM are charged per access (their Table III powers
// correspond to sustained-bandwidth operation) plus a small always-on
// leakage while a layer's cores are active. This is what lets the
// event-driven SNN mode's energy scale with spike activity (paper
// Sec. VI-C1).

/** NoC flit width (bits) and energy per flit per hop (J). */
constexpr int kFlitBits = 32;
constexpr double kFlitHopEnergy = 0.15e-12;

/** eDRAM energy per bit moved (J). */
constexpr double kEdramBitEnergy = 0.8e-12;

/** Input/output SRAM buffer energy per bit moved (J). */
constexpr double kSramBitEnergy = 0.15e-12;

/** Leakage per active ANN core (W). */
constexpr double kAnnCoreLeakage = 1.5e-3;

/** Leakage per active SNN core (W); SNN cores are smaller. */
constexpr double kSnnCoreLeakage = 0.8e-3;

} // namespace nebula

#endif // NEBULA_COMMON_CHIP_PARAMS_HPP
