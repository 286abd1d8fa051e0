#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>

#include "bench_stats.hpp"
#include "circuit/crossbar.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "serving/protocol.hpp"
#include "serving/registry.hpp"
#include "snn/encoder.hpp"

namespace perfbench {

using namespace nebula;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kBatches = 7;

/**
 * Median over kBatches of the per-call time of @p calls invocations of
 * @p fn, in the unit given by @p scale seconds (1e-6: microseconds).
 */
double
medianPerCall(int calls, double scale, const std::function<void()> &fn)
{
    fn(); // first call outside the timing: lazy caches fill
    std::vector<double> per_call;
    for (int b = 0; b < kBatches; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < calls; ++i)
            fn();
        const double s = std::chrono::duration<double>(Clock::now() - t0)
                             .count();
        per_call.push_back(s / calls / scale);
    }
    return median(per_call);
}

} // namespace

double
probeEncodeUsPerStep(const Dataset &data, int timesteps, double &density)
{
    PoissonEncoder encoder(1.0, /*seed=*/11);
    Tensor spikes;
    double ones = 0.0;
    double cells = 0.0;
    for (int i = 0; i < data.size(); ++i)
        for (int t = 0; t < timesteps; ++t) {
            encoder.encodeInto(data.image(i), spikes);
            for (long long k = 0; k < spikes.size(); ++k)
                ones += spikes.data()[k];
            cells += static_cast<double>(spikes.size());
        }
    density = cells > 0.0 ? ones / cells : 0.0;

    int image = 0;
    return medianPerCall(timesteps * 16, 1e-6, [&] {
        encoder.encodeInto(data.image(image), spikes);
        image = (image + 1) % data.size();
    });
}

double
probeEvalSparseUs(double density)
{
    constexpr int kSide = 128;
    constexpr double kCycle = 110e-9;
    CrossbarParams params;
    params.rows = kSide;
    params.cols = kSide;
    CrossbarArray xbar(params);
    Rng rng(/*seed=*/3);
    std::vector<float> weights(static_cast<size_t>(kSide) * kSide);
    for (float &w : weights)
        w = static_cast<float>(rng.uniform(-1.0, 1.0));
    xbar.programWeights(weights);

    // A fixed set of spike vectors at the requested density.
    std::vector<SpikeVector> inputs(16);
    for (SpikeVector &active : inputs)
        for (int r = 0; r < kSide; ++r)
            if (rng.uniform(0.0, 1.0) < density)
                active.push_back(r);

    CrossbarEval eval;
    size_t next = 0;
    return medianPerCall(2000, 1e-6, [&] {
        xbar.evaluateSparseInto(inputs[next], kCycle, eval);
        next = (next + 1) % inputs.size();
    });
}

double
probeCounterIncNs()
{
    auto &metrics = obs::MetricsRegistry::global();
    const char *components[] = {"crossbar", "driver", "adc", "neuron", "noc"};
    size_t next = 0;
    return medianPerCall(20000, 1e-9, [&] {
        metrics
            .counter("perfbench.probe.energy_j",
                     {{"tenant", "probe"},
                      {"model", "mlp3/ann"},
                      {"component", components[next]}})
            .inc(1e-9);
        next = (next + 1) % 5;
    });
}

double
probeProtocolUs(const Tensor &image, int classes)
{
    using namespace nebula::serving;
    WireRequest request;
    request.corrId = 1;
    request.tenant = "probe";
    request.model = "mlp3";
    request.image = image;
    WireResponse response;
    response.corrId = 1;
    response.predictedClass = 3;
    response.logits = Tensor({1, classes});
    for (int k = 0; k < classes; ++k)
        response.logits.data()[k] = 0.125f * static_cast<float>(k);

    WireRequest request_out;
    WireResponse response_out;
    bool ok = true;
    const double us = medianPerCall(2000, 1e-6, [&] {
        const auto req_frame = encodeRequestFrame(request);
        const auto resp_frame = encodeResponseFrame(response);
        ok &= decodeRequestBody(req_frame.data() + kHeaderBytes,
                                req_frame.size() - kHeaderBytes,
                                request_out) == WireStatus::Ok;
        ok &= decodeResponseBody(resp_frame.data() + kHeaderBytes,
                                 resp_frame.size() - kHeaderBytes,
                                 response_out) == WireStatus::Ok;
    });
    if (!ok)
        throw std::runtime_error("protocol probe: frame failed to decode");
    return us;
}

SwapProbe
probeSwapIn(const std::vector<serving::ServableModelSpec> &catalog)
{
    serving::RegistryConfig config;
    config.catalog = catalog;
    config.residentCapacity = 1;
    config.workersPerModel = 1;
    serving::ModelRegistry registry(config);

    double total_ms = 0.0;
    for (const auto &spec : catalog) {
        const auto t0 = Clock::now();
        registry.acquire(spec.id());
        total_ms += std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count();
    }
    const double swaps = static_cast<double>(registry.swapIns());
    const ProgramReport cost = registry.totalSwapCost();
    SwapProbe probe;
    probe.swapInMs = total_ms / swaps;
    probe.pulsesPerSwap = static_cast<double>(cost.pulses) / swaps;
    probe.programUjPerSwap = cost.programEnergy * 1e6 / swaps;
    return probe;
}

} // namespace perfbench
