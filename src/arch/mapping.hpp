/**
 * @file
 * Layer-to-crossbar mapping (paper Sec. IV-B2/IV-B3, Fig. 5 and 7).
 *
 * A KH x KW x C kernel flattens to Rf crossbar rows; each kernel takes
 * one column. The morphable tile chains 1, 2 or 4 atomic crossbars
 * vertically (and the super-tile up to 16) so the partial sums stay in
 * the current domain and are thresholded by a neuron unit at hierarchy
 * level H0/H1/H2 -- no ADC involved. Only kernels with Rf > 16M spill
 * across neural cores and need the per-core ADC plus RU reduction.
 *
 * Depthwise kernels read disjoint input channels, so they pack
 * diagonally: floor(M / Rf) kernels per atomic crossbar, which is what
 * makes separable convolutions cheap on NEBULA (low row activity) but
 * low-utilization.
 */

#ifndef NEBULA_ARCH_MAPPING_HPP
#define NEBULA_ARCH_MAPPING_HPP

#include <string>
#include <vector>

#include "arch/config.hpp"
#include "nn/network.hpp"

namespace nebula {

/** How one layer maps onto the NEBULA fabric. */
struct LayerMapping
{
    int layerIndex = -1;
    std::string name;
    LayerKind kind = LayerKind::Conv;

    int rf = 0;                //!< receptive field (crossbar rows/kernel)
    int kernels = 0;           //!< kernel count (crossbar columns)
    long long positions = 1;   //!< crossbar evaluations per image

    int chain = 1;             //!< ACs chained vertically per kernel
    int hierarchyLevel = 0;    //!< NU level: 0 = H0, 1 = H1, 2 = H2
    int coreSplit = 1;         //!< NCs one kernel spans (Rf > 16M)
    bool needsAdc = false;     //!< partial sums leave the core

    long long columnGroups = 1;   //!< independent kernel groups of <= M
    long long acsNeeded = 1;      //!< atomic crossbars holding weights
    long long coresNeeded = 1;    //!< neural cores allocated
    double utilization = 0.0;     //!< programmed cells / allocated cells

    long long dacRowsPerEval = 0; //!< drivers active per evaluation
    long long adcConversions = 0; //!< per image
    long long ruAdditions = 0;    //!< partial-sum adds at RUs per image
    long long outputElements = 0; //!< activations produced per image
};

/** Whole-network mapping summary. */
struct NetworkMapping
{
    std::vector<LayerMapping> layers;

    long long totalCores() const;
    long long totalAcs() const;
    bool anyAdc() const;
};

/**
 * Design-space knobs for the mapper ablations (paper design choices):
 * morphable tiles (Sec. IV-B2) and the in-current NU hierarchy
 * (Sec. IV-B3) can each be disabled to quantify their contribution.
 */
struct MapperOptions
{
    /** Adaptive AC chaining; false = every kernel occupies a full
     *  16-AC super-tile chain regardless of Rf. */
    bool morphableTiles = true;

    /** Current-domain partial-sum aggregation; false = every chained
     *  AC's partial sum is digitized and merged digitally (the
     *  ISAAC/INXS-style ADC-per-crossbar organization). */
    bool nuHierarchy = true;
};

/** Maps network layers onto the NEBULA fabric. */
class LayerMapper
{
  public:
    explicit LayerMapper(const MapperOptions &options = {});

    /**
     * Map every weight layer of @p net. The network must have been run
     * forward at least once so output geometry is known.
     */
    NetworkMapping map(const Network &net) const;

    /** Map a single layer (exposed for tests and ablations). */
    LayerMapping mapLayer(const Layer &layer, int index) const;

  private:
    MapperOptions options_;
};

} // namespace nebula

#endif // NEBULA_ARCH_MAPPING_HPP
