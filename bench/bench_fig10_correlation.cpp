/**
 * @file
 * Reproduces paper Fig. 10: Pearson correlation between ANN and SNN
 * feature maps at increasing depth, for two evidence-integration
 * windows. Expected shape: correlation decays with layer depth, and the
 * longer window maintains higher correlation at every depth -- the
 * motivation for the hybrid SNN-ANN models (Sec. V-B).
 *
 * Substitution: width/resolution-scaled MobileNet-v1 on synthetic
 * textures with proportionally scaled timestep counts (60 vs 160,
 * standing in for the paper's 600 vs 1000).
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"

namespace nebula {
namespace {

void
report()
{
    SyntheticTextures train_set(500, 10, 16, 3, 1601);
    Network net = bench::trainedModel(
        [] { return buildMobilenetV1(16, 3, 10, 0.25f, 43); }, train_set,
        7);

    const Tensor calibration = train_set.firstImages(48);
    SpikingModel model = convertToSnn(net, calibration);
    SnnSimulator sim(model, 1.0, 1010);

    // Depth sample points: IF layers spread across the network
    // (the paper samples layers 1, 5, 20, 28).
    const int n_if = static_cast<int>(model.ifLayerIndices.size());
    std::vector<int> samples = {0, n_if / 4, n_if / 2, 3 * n_if / 4,
                                n_if - 1};

    const int images = 3;
    Table table("Fig 10: ANN/SNN feature-map correlation vs depth "
                "(MobileNet-v1 scaled)",
                {"IF layer (of " + std::to_string(n_if) + ")",
                 "corr @ T=60", "corr @ T=160"});

    std::vector<double> corr_short(samples.size(), 0.0);
    std::vector<double> corr_long(samples.size(), 0.0);

    for (int img = 0; img < images; ++img) {
        const Tensor &image = train_set.image(img);
        // ANN reference maps.
        std::vector<Tensor> ann_maps;
        net.forwardCollect(image.reshaped({1, 3, 16, 16}), ann_maps);

        for (int pass = 0; pass < 2; ++pass) {
            const int T = pass == 0 ? 60 : 160;
            sim.run(image, T);
            for (size_t s = 0; s < samples.size(); ++s) {
                const int k = samples[s];
                const Tensor snn_map = sim.scaledRateMap(k);
                // Matching ANN map: output of the source layer of this
                // IF (the ReLU it replaced), or of the preceding pool.
                const int net_idx = model.ifLayerIndices[
                    static_cast<size_t>(k)];
                int src = model.sourceLayerOf[
                    static_cast<size_t>(net_idx)];
                if (src < 0) // inserted after pool
                    src = model.sourceLayerOf[
                        static_cast<size_t>(net_idx - 1)];
                const double c = correlation(
                    ann_maps[static_cast<size_t>(src)], snn_map);
                (pass == 0 ? corr_short : corr_long)[s] += c / images;
            }
        }
    }

    for (size_t s = 0; s < samples.size(); ++s) {
        table.row()
            .add(static_cast<long long>(samples[s] + 1))
            .add(corr_short[s], 4)
            .add(corr_long[s], 4);
    }
    table.print(std::cout);

    const bool decays = corr_short.back() < corr_short.front();
    const bool longer_better =
        corr_long.back() >= corr_short.back() - 0.02;
    std::cout << (decays ? "Correlation decays with depth ✓"
                         : "WARNING: no depth decay")
              << (longer_better
                      ? "; longer window >= shorter at depth ✓ "
                        "(paper Fig. 10 shape)\n"
                      : "; WARNING: longer window not better\n");
}

void
BM_RateMapExtraction(benchmark::State &state)
{
    SyntheticTextures data(16, 10, 16, 3, 1603);
    Network net = buildMobilenetV1(16, 3, 10, 0.25f, 43);
    SpikingModel model = convertToSnn(net, data.firstImages(8));
    SnnSimulator sim(model, 1.0, 1011);
    sim.run(data.image(0), 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.scaledRateMap(0).size());
}
BENCHMARK(BM_RateMapExtraction)->Unit(benchmark::kMicrosecond);

} // namespace
} // namespace nebula

int
main(int argc, char **argv)
{
    nebula::report();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    nebula::bench::writeBenchSummary(argv[0]);
    return 0;
}
