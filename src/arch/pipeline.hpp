/**
 * @file
 * NEBULA pipeline timing model (paper Sec. IV-B5, Fig. 8). Every stage
 * is one 110 ns cycle: eDRAM->IB fetch, crossbar evaluation (+ in-core
 * NU thresholding), OB->eDRAM writeback. Kernels that spill over
 * multiple NCs add ADC digitization and a log-depth RU reduction tree
 * before activation (the dashed stages in Fig. 8).
 */

#ifndef NEBULA_ARCH_PIPELINE_HPP
#define NEBULA_ARCH_PIPELINE_HPP

#include "arch/mapping.hpp"

namespace nebula {

/** Latency/throughput model of the NC pipeline. */
class PipelineModel
{
  public:
    /** Pipeline depth (stages) for one layer's evaluations. */
    int stagesFor(const LayerMapping &layer) const;

    /**
     * Cycles to stream all of a layer's positions through its pipeline:
     * depth + positions - 1.
     */
    long long layerLatencyCycles(const LayerMapping &layer) const;

    /** Sequential whole-network latency (cycles) for one image. */
    long long networkLatencyCycles(const NetworkMapping &mapping) const;

    /** Same in seconds; SNN mode multiplies by timesteps. */
    double networkLatency(const NetworkMapping &mapping,
                          int timesteps = 1) const;

    /**
     * Steady-state throughput (images/s) if layers are pipelined across
     * cores: bounded by the slowest layer.
     */
    double throughput(const NetworkMapping &mapping,
                      int timesteps = 1) const;

    /**
     * Cycles for a micro-batch of @p batch images streamed back to
     * back through one layer's pipeline: the pipeline fills once and
     * then every further image only pays its positions, so the
     * per-image cost amortizes the fill. batch == 1 reduces to
     * layerLatencyCycles.
     */
    long long layerBatchLatencyCycles(const LayerMapping &layer,
                                      int batch) const;

    /**
     * Steady-state throughput (images/s) for micro-batches of
     * @p batch images: the slowest layer streams batch * positions
     * windows per fill instead of one image's worth, which is the
     * timing-model counterpart of the batched GEMM evaluation path.
     */
    double batchedThroughput(const NetworkMapping &mapping, int batch,
                             int timesteps = 1) const;
};

} // namespace nebula

#endif // NEBULA_ARCH_PIPELINE_HPP
