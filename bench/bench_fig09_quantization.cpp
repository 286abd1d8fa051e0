/**
 * @file
 * Reproduces paper Fig. 9: inference accuracy versus weight
 * discretization levels with activations quantized to 4 bits, for VGG
 * and MobileNet. Expected shape: accuracy collapses at very coarse
 * weights (2-4 levels) and saturates near the floating-point accuracy
 * by 16 levels -- the justification for NEBULA's 4-bit datapath.
 *
 * Substitution: width/resolution-scaled models trained on the synthetic
 * texture dataset (CIFAR-10 stand-in).
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "nn/quantize.hpp"

namespace nebula {
namespace {

void
reportModel(const char *label,
            const std::function<Network()> &builder,
            const Dataset &train_set, const Dataset &test_set, int epochs,
            bool fine_tune)
{
    Network reference = bench::trainedModel(builder, train_set, epochs);
    const double float_acc = evaluateAccuracy(reference, test_set);
    const Tensor calibration = train_set.firstImages(48);

    Table table(std::string("Fig 9 (") + label +
                    "): accuracy vs weight levels (activations 16-level)",
                {"weight levels", "bits", "accuracy", "delta vs float"});
    table.row()
        .add("float")
        .add("32")
        .add(formatDouble(100 * float_acc, 2) + "%")
        .add("--");
    for (int levels : {2, 4, 6, 8, 12, 16, 32}) {
        Network net = reference.clone();
        const auto quant = quantizeNetwork(net, calibration, levels, 16);
        // Post-training-quantization fine-tuning (the paper cites [2]);
        // needed for the deep separable model.
        if (fine_tune)
            fineTuneQuantized(net, train_set, quant, 2, 0.01);
        const double acc = evaluateAccuracy(net, test_set);
        table.row()
            .add(static_cast<long long>(levels))
            .add(formatDouble(std::log2(levels), 1))
            .add(formatDouble(100 * acc, 2) + "%")
            .add(formatDouble(100 * (acc - float_acc), 2) + "%");
    }
    table.print(std::cout);
}

void
BM_QuantizeNetwork(benchmark::State &state)
{
    SyntheticTextures data(64, 10, 16, 3, 1901);
    for (auto _ : state) {
        Network net = buildVgg13(16, 3, 10, 0.25f, 42);
        quantizeNetwork(net, data.firstImages(16), 16, 16);
        benchmark::DoNotOptimize(net.numLayers());
    }
}
BENCHMARK(BM_QuantizeNetwork)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nebula

int
main(int argc, char **argv)
{
    using namespace nebula;
    SyntheticTextures train10(500, 10, 16, 3, 1601);
    SyntheticTextures test10(200, 10, 16, 3, 1701);

    reportModel("VGG-13 scaled, CIFAR-10-like",
                [] { return buildVgg13(16, 3, 10, 0.25f, 42); }, train10,
                test10, 3, false);
    reportModel("MobileNet-v1 scaled, CIFAR-10-like",
                [] { return buildMobilenetV1(16, 3, 10, 0.25f, 43); },
                train10, test10, 7, true);

    std::cout << "Expected paper shape: near-float accuracy at 16 levels\n"
                 "(4 bits), visible degradation below ~8 levels.\n";
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    nebula::bench::writeBenchSummary(argv[0]);
    return 0;
}
