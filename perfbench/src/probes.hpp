/**
 * @file
 * Single-layer probes of the traced run. Each times one module's
 * public function in isolation, with inputs shaped like the
 * workload's, and reports the median of several equal batches so one
 * descheduled batch does not move the figure.
 */

#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <string>
#include <vector>

#include "nn/datasets.hpp"
#include "serving/models.hpp"

namespace perfbench {

/**
 * snn: PoissonEncoder::encodeInto over the workload's images at the
 * engine's timestep count. Returns microseconds per encoded timestep
 * and stores the measured spike density (spikes per pixel per step)
 * in @p density.
 */
double probeEncodeUsPerStep(const nebula::Dataset &data, int timesteps,
                            double &density);

/**
 * circuit: CrossbarArray::evaluateSparse on a programmed 128x128 array
 * driven at @p density active rows. Microseconds per evaluation.
 */
double probeEvalSparseUs(double density);

/**
 * obs: MetricsRegistry::global().counter(name, labels).inc() with the
 * server's per-response label shape (tenant, model, component).
 * Nanoseconds per increment, lookup included.
 */
double probeCounterIncNs();

/**
 * serving: encode + decode of one request frame carrying @p image and
 * one response frame carrying @p classes logits. Microseconds per
 * request/response pair.
 */
double probeProtocolUs(const nebula::Tensor &image, int classes);

/** registry / reliability: cold swap-ins on a fresh registry. */
struct SwapProbe
{
    double swapInMs = 0.0;         //!< mean timed acquire() of a cold model
    double pulsesPerSwap = 0.0;    //!< write-verify pulses per swap-in
    double programUjPerSwap = 0.0; //!< programming energy per swap-in
};

/**
 * Acquire each catalog model cold, in order, on a fresh one-slot
 * registry with write-verify accounting.
 */
SwapProbe probeSwapIn(const std::vector<nebula::serving::ServableModelSpec>
                          &catalog);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP
