/**
 * @file
 * Shared helpers for the benchmark harness: scaled benchmark-model
 * training, mapped-model construction and activity measurement.
 *
 * Scaling policy: energy/power/mapping studies always use the paper's
 * FULL-SIZE topologies (they depend only on layer geometry + activity
 * statistics). Accuracy studies (Tables I/II, Figs. 9/10) use
 * width/resolution-scaled variants trained on the synthetic datasets,
 * with timestep counts scaled accordingly; the printed tables carry the
 * paper's reference numbers alongside for comparison.
 */

#ifndef NEBULA_BENCH_COMMON_HPP
#define NEBULA_BENCH_COMMON_HPP

#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>

#include "arch/energy_model.hpp"
#include "arch/mapping.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/simd.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "nn/datasets.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "snn/convert.hpp"
#include "snn/snn_sim.hpp"

namespace nebula {
namespace bench {

/**
 * Scalar results this benchmark binary wants persisted alongside its
 * printed tables. record() during the study, writeBenchSummary() at the
 * end of main.
 */
inline StatGroup &
benchStats()
{
    static StatGroup stats("bench");
    return stats;
}

/** Record one named scalar result (repeat calls accumulate samples). */
inline void
record(const std::string &name, double value)
{
    benchStats().scalar(name).sample(value);
}

/** Current wall-clock time as ISO-8601 UTC ("2026-02-03T04:05:06Z"). */
inline std::string
isoUtcNow()
{
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

/** `git rev-parse --short HEAD` of the CWD's repo; "unknown" outside one. */
inline std::string
gitShortRev()
{
    FILE *pipe =
        ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
    if (!pipe)
        return "unknown";
    char buf[64] = {0};
    std::string rev;
    if (std::fgets(buf, sizeof(buf), pipe))
        rev = buf;
    ::pclose(pipe);
    while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r'))
        rev.pop_back();
    return rev.empty() ? "unknown" : rev;
}

/**
 * The clone NEBULA_TARGET_CLONES dispatches to on this CPU, checked in
 * the resolver's priority order: "avx512f", else "avx2", else
 * "default" (also the answer for a build without clones).
 */
inline std::string
simdClone()
{
#ifdef NEBULA_HAS_TARGET_CLONES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return "avx512f";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "default";
}

/**
 * Write the recorded results as BENCH_<basename(argv0)>.json in the
 * working directory. Always records a "completed" scalar first, so
 * every benchmark emits at least one metric even if its study recorded
 * nothing explicitly. Every summary carries a "meta" section stamping
 * when it was produced, from which commit and which SIMD clone of the
 * hot kernels ran, so a regression checker comparing two BENCH files
 * can tell which builds it is comparing.
 */
inline void
writeBenchSummary(const char *argv0)
{
    std::string base = argv0 ? argv0 : "bench";
    const size_t slash = base.find_last_of('/');
    if (slash != std::string::npos)
        base = base.substr(slash + 1);
    record("completed", 1.0);
    const std::string path = "BENCH_" + base + ".json";

    // Splice a meta object into the StatGroup JSON (which renders as
    // {"scalars":..., "histograms":...}) right after the opening brace.
    std::string body = benchStats().toJson();
    const size_t brace = body.find('{');
    bool ok = brace != std::string::npos;
    if (ok) {
        const std::string meta = "\"meta\":{\"generatedAtUtc\":" +
                                 json::quoted(isoUtcNow()) +
                                 ",\"gitRev\":" +
                                 json::quoted(gitShortRev()) +
                                 ",\"simd\":" + json::quoted(simdClone()) +
                                 "},";
        body.insert(brace + 1, meta);
        std::ofstream out(path);
        ok = static_cast<bool>(out << body << "\n");
    }
    if (ok)
        std::cout << "\nwrote " << path << "\n";
    else
        NEBULA_WARN("could not write ", path);
}

/**
 * Train a fresh model on a dataset. Every call trains: the weights are
 * a function of the arguments alone, never of an earlier run.
 *
 * @param builder  Fresh-network factory.
 * @param train    Training set.
 * @param epochs   Training epochs.
 */
inline Network
trainedModel(const std::function<Network()> &builder, const Dataset &train,
             int epochs, double lr = 0.06)
{
    Network net = builder();
    TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.batchSize = 32;
    cfg.learningRate = lr;
    SgdTrainer trainer(cfg);
    trainer.train(net, train);
    return net;
}

/** Forward once to fix geometry, then map. */
inline NetworkMapping
mapFullModel(Network &net, int channels, int spatial)
{
    Tensor x({1, channels, spatial, spatial});
    net.forward(x);
    return LayerMapper().map(net);
}

/** Build + map one of the paper's full-size models by name. */
inline NetworkMapping
mapPaperModel(const std::string &name)
{
    Network net = buildPaperModel(name);
    const int spatial = (name == "alexnet") ? 64 : 32;
    const int channels = (name == "mlp3" || name == "lenet5") ? 1 : 3;
    const int sp = (name == "mlp3" || name == "lenet5") ? 28 : spatial;
    return mapFullModel(net, channels, sp);
}

/**
 * Measure a per-weight-layer SNN input-activity profile by running a
 * trained scaled model's converted SNN on a few images, then
 * interpolating onto a target layer count. Falls back to the synthetic
 * decaying profile when no measurement is available.
 */
inline ActivityProfile
measuredSnnProfile(SnnSimulator &sim, const Dataset &data, int images,
                   int timesteps, size_t target_layers)
{
    std::vector<double> activity;
    for (int i = 0; i < images; ++i) {
        const auto result = sim.run(data.image(i), timesteps);
        if (activity.empty())
            activity.assign(result.ifActivity.size(), 0.0);
        for (size_t k = 0; k < result.ifActivity.size(); ++k)
            activity[k] += result.ifActivity[k] / images;
    }
    // Input layer activity ~ mean pixel rate; prepend it, then resample.
    activity.insert(activity.begin(), 0.3);

    ActivityProfile profile;
    profile.inputActivity.resize(target_layers);
    for (size_t i = 0; i < target_layers; ++i) {
        const double pos = target_layers > 1
                               ? static_cast<double>(i) *
                                     (activity.size() - 1) /
                                     (target_layers - 1)
                               : 0.0;
        const size_t lo = static_cast<size_t>(pos);
        const size_t hi = std::min(lo + 1, activity.size() - 1);
        const double frac = pos - lo;
        profile.inputActivity[i] =
            activity[lo] * (1 - frac) + activity[hi] * frac;
    }
    return profile;
}

} // namespace bench
} // namespace nebula

#endif // NEBULA_BENCH_COMMON_HPP
