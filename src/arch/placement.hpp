/**
 * @file
 * Chip-level placement and traffic: assigns each mapped layer's neural
 * cores to mesh coordinates (paper Fig. 6b -- one column of ANN cores,
 * the rest SNN cores, AUs along the edge) and drives the mesh NoC with
 * the inter-layer activation and partial-sum traffic of one inference,
 * so congestion, hop counts and network energy come from the simulated
 * mesh rather than the analytic average-hop estimate.
 */

#ifndef NEBULA_ARCH_PLACEMENT_HPP
#define NEBULA_ARCH_PLACEMENT_HPP

#include <vector>

#include "arch/energy_model.hpp"
#include "arch/mapping.hpp"
#include "noc/noc.hpp"

namespace nebula {

/** Where one layer's cores sit on the mesh. */
struct LayerPlacement
{
    int layerIndex = -1;
    std::vector<NodeId> cores;
};

/** A whole network placed onto the chip. */
struct PlacementResult
{
    std::vector<LayerPlacement> layers;
    long long coresUsed = 0;   //!< distinct physical cores touched
    bool fits = false;         //!< true if no core is time-multiplexed
    Mode mode = Mode::SNN;
};

/** NoC statistics of one simulated inference. */
struct TrafficStats
{
    long long packets = 0;
    long long flits = 0;
    double energy = 0.0;        //!< J
    double avgLatency = 0.0;    //!< cycles
    long long worstLatency = 0; //!< cycles
    double avgHops = 0.0;
};

/** Places mapped layers onto the NEBULA mesh. */
class ChipPlacer
{
  public:
    /**
     * Assign cores to every layer, in layer order. ANN-mode layers use
     * the dedicated ANN column (x == 0); SNN-mode layers use the
     * remaining columns. When the network needs more cores than the
     * chip has of that type, allocation wraps (time-multiplexing) and
     * `fits` is false.
     */
    PlacementResult place(const NetworkMapping &mapping, Mode mode) const;

    /** Mesh coordinate of physical core @p index for a mode. */
    NodeId coreLocation(int index, Mode mode) const;

    /** Number of physical cores available to a mode. */
    int coreBudget(Mode mode) const;
};

/**
 * Simulate the NoC traffic of one inference over a placed network.
 *
 * Every layer ships its activations from each of its cores to each of
 * the next layer's cores (outputs are striped over producers and
 * broadcast windows overlap consumers); spilled layers additionally
 * ship digitized partial sums to their reduction core. In SNN mode the
 * per-timestep payload is the spike bitmap scaled by the layer's
 * activity, and @p timesteps rounds are injected.
 *
 * @param noc A mesh sized like the chip; reset before use.
 */
TrafficStats simulateInferenceTraffic(const NetworkMapping &mapping,
                                      const PlacementResult &placement,
                                      MeshNoc &noc, Mode mode,
                                      const ActivityProfile &activity,
                                      int timesteps = 1);

} // namespace nebula

#endif // NEBULA_ARCH_PLACEMENT_HPP
