/**
 * @file
 * Reproduces paper Fig. 4: layer-wise average neuron spiking activity
 * (spikes per neuron per timestep) of a converted VGG SNN. Expected
 * shape: activity decreases going deeper into the network, which is
 * why the deeper layers consume less dynamic power on event-driven
 * hardware.
 *
 * Substitution: a width/resolution-scaled VGG-13 trained on the
 * synthetic CIFAR-like texture dataset (the paper's full-size
 * CIFAR-trained VGG is not trainable in this environment); the
 * depth-decay shape is what is being reproduced.
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
        [] { return buildVgg13(16, 3, 10, 0.25f, 42); }, train_set, 3);

    const Tensor calibration = train_set.firstImages(48);
    SpikingModel model = convertToSnn(net, calibration);
    SnnSimulator sim(model, 1.0, 404);

    const int timesteps = 60;
    const int images = 3;
    std::vector<double> activity;
    for (int i = 0; i < images; ++i) {
        const auto result = sim.run(train_set.image(i), timesteps);
        if (activity.empty())
            activity.assign(result.ifActivity.size(), 0.0);
        for (size_t k = 0; k < result.ifActivity.size(); ++k)
            activity[k] += result.ifActivity[k] / images;
    }

    Table table("Fig 4: layer-wise average spiking activity "
                "(VGG-13 scaled, T=60)",
                {"IF layer", "after", "spikes/neuron/step", "bar"});
    for (size_t k = 0; k < activity.size(); ++k) {
        const int net_index = model.ifLayerIndices[k];
        const int src = model.sourceLayerOf[static_cast<size_t>(net_index)];
        const std::string after =
            src >= 0 ? "relu" : "avgpool";
        const int bar_len = static_cast<int>(activity[k] * 120);
        table.row()
            .add(static_cast<long long>(k + 1))
            .add(after)
            .add(activity[k], 4)
            .add(std::string(static_cast<size_t>(std::max(bar_len, 0)),
                             '#'));
    }
    table.print(std::cout);

    // Shape check: front third vs back third.
    const size_t third = std::max<size_t>(1, activity.size() / 3);
    double front = 0.0, back = 0.0;
    for (size_t k = 0; k < third; ++k)
        front += activity[k] / third;
    for (size_t k = activity.size() - third; k < activity.size(); ++k)
        back += activity[k] / third;
    std::cout << "Mean activity, front third: " << formatDouble(front, 4)
              << "  back third: " << formatDouble(back, 4)
              << (back < front
                      ? "  -- decays with depth, as in paper Fig. 4\n"
                      : "  -- WARNING: no depth decay observed\n");
}

void
BM_SnnTimestep(benchmark::State &state)
{
    SyntheticTextures data(32, 10, 16, 3, 1602);
    Network net = buildVgg13(16, 3, 10, 0.25f, 42);
    SpikingModel model = convertToSnn(net, data.firstImages(16));
    SnnSimulator sim(model, 1.0, 405);
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.run(data.image(0), 1).totalSpikes);
}
BENCHMARK(BM_SnnTimestep)->Unit(benchmark::kMillisecond);

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
