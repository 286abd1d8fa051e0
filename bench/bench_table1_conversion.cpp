/**
 * @file
 * Reproduces paper Table I: ANN-to-SNN conversion accuracy across the
 * benchmark suite -- ANN accuracy, converted-SNN accuracy at the
 * evidence-integration window, timesteps and depth. Expected shape: the
 * SNN lands within a few points of its ANN on the shallow models, with
 * a wider gap (and many more timesteps) on the deep ones.
 *
 * Substitution: width/resolution-scaled models on synthetic datasets
 * (MNIST/CIFAR/SVHN/ImageNet stand-ins); timesteps scaled down
 * proportionally. The paper's reference numbers are printed alongside.
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "bench_common.hpp"

namespace nebula {
namespace {

struct BenchRow
{
    const char *paperRow; //!< matching Table I entry
    std::function<Network()> builder;
    std::shared_ptr<Dataset> train;
    std::shared_ptr<Dataset> test;
    int epochs;
    double lr;
    int timesteps;        //!< scaled evidence window
    int evalImages;
};

void
report()
{
    auto digits_train = std::make_shared<SyntheticDigits>(1000, 16, 100);
    auto digits_test = std::make_shared<SyntheticDigits>(300, 16, 200);
    auto tex10_train =
        std::make_shared<SyntheticTextures>(500, 10, 16, 3, 1601);
    auto tex10_test =
        std::make_shared<SyntheticTextures>(200, 10, 16, 3, 1701);
    auto tex20_train =
        std::make_shared<SyntheticTextures>(700, 20, 16, 3, 1801);
    auto tex20_test =
        std::make_shared<SyntheticTextures>(200, 20, 16, 3, 1901);
    auto svhn_train = std::make_shared<SyntheticSvhn>(1100, 16, 2001);
    auto svhn_test = std::make_shared<SyntheticSvhn>(200, 16, 2101);
    auto tex20_32_train =
        std::make_shared<SyntheticTextures>(500, 20, 32, 3, 2201);
    auto tex20_32_test =
        std::make_shared<SyntheticTextures>(150, 20, 32, 3, 2301);

    std::vector<BenchRow> rows = {
        {"3-layer MLP / MNIST (96.81 / 95.75, t=50)",
         [] { return buildMlp3(16, 1, 10, 11); }, digits_train,
         digits_test, 6, 0.08, 50, 60},
        {"LeNet5 / MNIST (99.12 / 98.56, t=40)",
         [] { return buildLenet5(16, 1, 10, 12); }, digits_train,
         digits_test, 5, 0.06, 60, 40},
        {"MobileNet-v1 / CIFAR-10 (91.00 / 81.08, t=500)",
         [] { return buildMobilenetV1(16, 3, 10, 0.25f, 43); },
         tex10_train, tex10_test, 7, 0.04, 200, 25},
        {"VGG-13 / CIFAR-10 (91.60 / 90.05, t=300)",
         [] { return buildVgg13(16, 3, 10, 0.25f, 42); }, tex10_train,
         tex10_test, 3, 0.04, 150, 25},
        {"MobileNet-v1 / CIFAR-100 (66.06 / 56.88, t=1000)",
         [] { return buildMobilenetV1(16, 3, 20, 0.25f, 44); },
         tex20_train, tex20_test, 8, 0.04, 250, 20},
        {"VGG-13 / CIFAR-100 (71.50 / 68.32, t=1000)",
         [] { return buildVgg13(16, 3, 20, 0.25f, 45); }, tex20_train,
         tex20_test, 5, 0.04, 200, 20},
        {"SVHN Network / SVHN (94.96 / 94.48, t=100)",
         [] { return buildSvhnNet(16, 3, 10, 0.25f, 46); }, svhn_train,
         svhn_test, 9, 0.05, 120, 25},
        {"AlexNet / ImageNet (51 / 50, t=500)",
         [] { return buildAlexNet(32, 3, 20, 0.25f, 47); },
         tex20_32_train, tex20_32_test, 6, 0.05, 150, 15},
    };

    Table table("Table I: ANN-to-SNN conversion accuracy "
                "(scaled models on synthetic data; paper reference in "
                "row label)",
                {"benchmark (paper ANN/SNN acc, t)", "ANN acc", "SNN acc",
                 "gap", "t-steps", "depth"});

    for (BenchRow &row : rows) {
        Network net = bench::trainedModel(row.builder, *row.train,
                                          row.epochs, row.lr);
        const double ann_acc =
            evaluateAccuracy(net, *row.test, row.evalImages * 4);

        SpikingModel model =
            convertToSnn(net, row.train->firstImages(48));
        SnnSimulator sim(model, 1.0, 777);
        const double snn_acc = sim.evaluateAccuracy(
            *row.test, row.evalImages, row.timesteps);

        table.row()
            .add(row.paperRow)
            .add(formatDouble(100 * ann_acc, 2) + "%")
            .add(formatDouble(100 * snn_acc, 2) + "%")
            .add(formatDouble(100 * (ann_acc - snn_acc), 2) + "%")
            .add(static_cast<long long>(row.timesteps))
            .add(static_cast<long long>(
                net.weightLayerIndices().size()));
    }
    table.print(std::cout);
    std::cout << "Expected paper shape: converted SNNs land within a few\n"
                 "points of their ANN; deep separable models (MobileNet)\n"
                 "lose the most and need the longest windows.\n";
}

void
BM_ConvertMlp(benchmark::State &state)
{
    SyntheticDigits data(64, 16, 100);
    Network net = buildMlp3(16, 1, 10, 11);
    const Tensor calibration = data.firstImages(32);
    for (auto _ : state) {
        SpikingModel model = convertToSnn(net, calibration);
        benchmark::DoNotOptimize(model.net.numLayers());
    }
}
BENCHMARK(BM_ConvertMlp)->Unit(benchmark::kMillisecond);

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
