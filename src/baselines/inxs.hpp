/**
 * @file
 * Analytical energy model of INXS (Narayanan et al., IJCNN 2017), the
 * SNN accelerator NEBULA's SNN mode is compared against (paper
 * Sec. VI-B, Fig. 13b).
 *
 * INXS performs the weighted spike accumulation on crossbars but then,
 * every algorithmic timestep, (1) digitizes the membrane-potential
 * increments with an ADC, (2) ships them over the on-chip network to a
 * neuron unit, and (3) performs an SRAM read-modify-write against the
 * stored membrane potential before thresholding. NEBULA eliminates all
 * three: the DW-MTJ neuron integrates the analog column current
 * directly and *is* the membrane storage (paper Sec. VI-B lists exactly
 * these two overheads as the source of the ~45x gap).
 *
 * The INXS publication reports component choices but not a complete
 * per-op energy table, so the per-event energies below are
 * reconstructed from typical 32 nm figures for the named structures
 * (8-bit SAR ADC conversion, multi-megabit SRAM membrane store, mesh
 * hop energy); they are fixed constants of inxs.cpp.
 */

#ifndef NEBULA_BASELINES_INXS_HPP
#define NEBULA_BASELINES_INXS_HPP

#include "arch/mapping.hpp"

namespace nebula {

/** Per-layer INXS result. */
struct InxsLayerEnergy
{
    int layerIndex = -1;
    std::string name;
    double energy = 0.0;          //!< J per inference (all timesteps)
    double adcEnergy = 0.0;
    double membraneEnergy = 0.0;  //!< SRAM RMW share
    long long neuronUpdates = 0;  //!< membrane updates performed
};

/** Whole-network INXS result. */
struct InxsEnergy
{
    std::vector<InxsLayerEnergy> layers;
    double totalEnergy = 0.0;
};

/** The INXS analytical model. */
class InxsModel
{
  public:
    /**
     * Energy of running a mapped network for @p timesteps.
     * @param activity Per-layer input spike activity (same profile the
     *                 NEBULA SNN model uses).
     */
    InxsEnergy evaluate(const NetworkMapping &mapping,
                        const std::vector<double> &activity,
                        int timesteps) const;

    /** Single-layer accounting (exposed for tests). */
    InxsLayerEnergy evaluateLayer(const LayerMapping &layer,
                                  double input_activity,
                                  int timesteps) const;
};

} // namespace nebula

#endif // NEBULA_BASELINES_INXS_HPP
