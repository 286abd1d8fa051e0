/**
 * @file
 * Calibration parameters for the domain-wall MTJ (DW-MTJ) device models.
 *
 * The paper simulates the magnetization dynamics in MuMax calibrated to
 * the spin-Hall torque magnetometry measurements of Emori et al. and the
 * MTJ transport in a NEGF framework. The architecture above consumes only
 * the resulting transfer curves, so this reproduction models the device
 * with a 1-D collective-coordinate domain-wall model:
 *
 *   v = mobility * (J - Jcrit)   for J > Jcrit, saturating at vSat,
 *
 * a discrete pinning grid that quantizes the stable DW positions (20 nm
 * pitch on a 320 nm track -> 16 programmable states, paper Sec. V-C), and
 * a parallel-conduction MTJ resistance model with a configurable TMR
 * ratio (7x demonstrated experimentally, paper Sec. IV-C).
 */

#ifndef NEBULA_DEVICE_DW_PARAMS_HPP
#define NEBULA_DEVICE_DW_PARAMS_HPP

#include "common/chip_params.hpp"
#include "common/units.hpp"

namespace nebula {

/** Geometry and dynamics of one ferromagnet/heavy-metal DW track. */
struct DwTrackParams
{
    /** Track length along which the DW moves (paper: 320 nm). */
    double length = 320 * units::nm;

    /**
     * DW pinning-notch pitch. The paper's 320 nm track encodes 16
     * resistance states at a >= 20 nm minimum programmable resolution;
     * placing the 16 notches uniformly across the full track gives a
     * 320/15 ~ 21.3 nm pitch, which keeps the device's discrete levels
     * and the crossbar's 16-level weight grid exactly aligned.
     */
    double pinPitch = 320.0 / 15.0 * units::nm;

    /** Track width. Synapse ~20 nm; neuron scaled to 200 nm (Sec. V-C). */
    double width = 20 * units::nm;

    /** Ferromagnet thickness (paper Fig. 1: 0.6 nm). */
    double thickness = 0.6 * units::nm;

    /**
     * DW mobility in the linear SHE-driven regime,
     * (m/s) per (A/m^2). Calibrated so a full-scale write current moves
     * the wall across the track within one 110 ns pipeline stage.
     */
    double mobility = 6.0e-10;

    /** Critical (depinning) current density, A/m^2. */
    double criticalDensity = 4.0e9;

    /** Saturation DW velocity, m/s (Walker-breakdown ceiling). */
    double saturationVelocity = 120.0;

    /**
     * Std-dev of thermal position jitter per pulse as a fraction of the
     * pin pitch. Zero disables stochastic behaviour (default for the
     * deterministic functional path; Monte-Carlo studies turn it on).
     */
    double thermalJitter = 0.0;

    /** Heavy-metal write-path resistance seen by programming pulses. */
    double writePathResistance = 500.0 * units::ohm;

    /** Cross-sectional area of the heavy-metal layer (width x HM thick). */
    double hmCrossSection() const { return width * 3.0 * units::nm; }

    /** Number of discrete programmable states on this track. */
    int numStates() const
    {
        return static_cast<int>(length / pinPitch + 0.5) + 1;
    }
};

/** MTJ stack electrical parameters. */
struct MtjParams
{
    /**
     * Resistance-area product of the parallel state, ohm * m^2.
     * 10 Ohm*um^2 is typical of low-RA MgO junctions.
     */
    double raProductP = 10.0 * units::ohm * units::um * units::um;

    /** TMR-derived AP/P resistance ratio (7x observed, Sec. IV-C). */
    double apOverP = 7.0;

    /** Nominal MgO barrier thickness, used by the exponential RA model. */
    double oxideThickness = 1.0 * units::nm;

    /** RA doubles roughly every 0.2 nm of added barrier. */
    double oxideLambda = 0.29 * units::nm;

    /** Junction area (overlap of the MTJ pillar with the track). */
    double area = 20 * units::nm * 20 * units::nm;
};

/** Parameters of the full synapse device (track + read MTJ). */
struct SynapseDeviceParams
{
    DwTrackParams track;
    MtjParams mtj;

    /** Programming pulse width (one pipeline stage). */
    double pulseWidth = kCycleTime;

    /** Programming voltage across the heavy metal (paper: ~100 mV). */
    double programVoltage = 100 * units::mV;
};

/** Parameters of the spiking / non-spiking neuron device. */
struct NeuronDeviceParams
{
    DwTrackParams track;
    MtjParams mtj;

    /** Reset pulse energy (reverse current pulse after each spike). */
    double resetEnergy = 30 * units::fJ;

    /** Static power of the MTJ divider + inverter/transistor interface. */
    double interfacePower = 40.0 * 1e-9 * units::watt;

    NeuronDeviceParams()
    {
        // Neuron tracks are widened to 200 nm (Sec. V-C) to keep the
        // device resistance low relative to the crossbar columns.
        track.width = 200 * units::nm;
    }
};

} // namespace nebula

#endif // NEBULA_DEVICE_DW_PARAMS_HPP
