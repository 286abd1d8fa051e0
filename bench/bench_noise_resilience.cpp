/**
 * @file
 * Reproduces paper Sec. IV-D: Monte-Carlo weight-variability study.
 * 10% multiplicative device variation is injected into a fully
 * quantized 16-level network and inference accuracy is measured over
 * several device-corner draws, for both the ANN and the converted SNN.
 * Expected shape (paper): accuracy drops by well under a percent on
 * average (VGG-ANN 90.31%, VGG-SNN 89.41% with noise) -- neuromorphic
 * workloads tolerate analog imprecision.
 *
 * The sweep runs on the reliability subsystem's campaign runner
 * (functional backend): the Gaussian variability model is the
 * FaultModel special case the legacy VariabilityModel wraps, so this
 * study and the stuck-at fault campaigns share one injection path.
 *
 * A second study measures the online ABFT checksum columns on the chip
 * backend: detected-vs-silent corruption rates per stuck-at fault rate
 * (the campaign's detection accounting against a clean-reference run)
 * and the read-path overhead of the extra column. Records the
 * deterministic `abft.detection_coverage`, `abft.overhead` and
 * `abft.false_positives` scalars CI regresses on.
 *
 * Set NEBULA_BENCH_TINY=1 to shrink to smoke-test size for CI; the
 * committed baseline in bench/baselines was recorded in tiny mode.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "arch/chip.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "reliability/campaign.hpp"

namespace nebula {
namespace {

/** CI smoke-test mode: tiny shapes, same code paths. */
bool
tinyMode()
{
    const char *env = std::getenv("NEBULA_BENCH_TINY");
    return env != nullptr && env[0] == '1';
}

void
report()
{
    const bool tiny = tinyMode();
    SyntheticTextures train_set(tiny ? 160 : 500, 10, 16, 3, 1601);
    SyntheticTextures test_set(tiny ? 80 : 200, 10, 16, 3, 1701);
    Network base = bench::trainedModel(
        [] { return buildVgg13(16, 3, 10, 0.25f, 42); }, train_set,
        tiny ? 1 : 3);
    const Tensor calibration = train_set.firstImages(48);

    Network quantized = buildVgg13(16, 3, 10, 0.25f, 42);
    quantized.copyStateFrom(base);
    quantizeNetwork(quantized, calibration, 16, 16);

    // Sweep sigma {0, 0.10} x 5 device corners through the campaign's
    // functional backend (faults applied straight to the weights).
    CampaignConfig ann_cfg;
    ann_cfg.modelFactory = [](double sigma) {
        return std::make_shared<const GaussianVariabilityModel>(sigma);
    };
    ann_cfg.mitigations = {MitigationSpec::none()};
    ann_cfg.runSnn = false;
    ann_cfg.images = tiny ? 80 : 200;

    CampaignConfig snn_cfg = ann_cfg;
    snn_cfg.runAnn = false;
    snn_cfg.runSnn = true;
    snn_cfg.images = tiny ? 30 : 60;
    snn_cfg.timesteps = tiny ? 40 : 80;

    std::vector<uint64_t> corners{1000, 1001, 1002, 1003, 1004};
    if (tiny)
        corners.resize(2);

    ann_cfg.rates = snn_cfg.rates = {0.0};
    ann_cfg.seeds = snn_cfg.seeds = {55};
    const CampaignResult ann_clean =
        runFunctionalCampaign(quantized, calibration, test_set, ann_cfg);
    const CampaignResult snn_clean =
        runFunctionalCampaign(quantized, calibration, test_set, snn_cfg);
    const double ann_base = ann_clean.meanAccuracy("ann", "none", 0.0);
    const double snn_base = snn_clean.meanAccuracy("snn", "none", 0.0);

    ann_cfg.rates = snn_cfg.rates = {0.10};
    ann_cfg.seeds = snn_cfg.seeds = corners;
    const CampaignResult ann_noisy =
        runFunctionalCampaign(quantized, calibration, test_set, ann_cfg);
    const CampaignResult snn_noisy =
        runFunctionalCampaign(quantized, calibration, test_set, snn_cfg);

    Table table("Sec IV-D: Monte-Carlo 10% weight variability "
                "(quantized VGG-13 scaled)",
                {"trial", "ANN acc", "ANN delta", "SNN acc", "SNN delta"});

    double ann_sum = 0.0, snn_sum = 0.0;
    const size_t trials = corners.size();
    for (size_t trial = 0; trial < trials; ++trial) {
        const double ann_acc = ann_noisy.rows[trial].accuracy;
        const double snn_acc = snn_noisy.rows[trial].accuracy;
        ann_sum += ann_acc;
        snn_sum += snn_acc;
        table.row()
            .add(static_cast<long long>(trial + 1))
            .add(formatDouble(100 * ann_acc, 2) + "%")
            .add(formatDouble(100 * (ann_acc - ann_base), 2) + "%")
            .add(formatDouble(100 * snn_acc, 2) + "%")
            .add(formatDouble(100 * (snn_acc - snn_base), 2) + "%");
    }
    table.row()
        .add("mean")
        .add(formatDouble(100 * ann_sum / trials, 2) + "%")
        .add(formatDouble(100 * (ann_sum / trials - ann_base), 2) + "%")
        .add(formatDouble(100 * snn_sum / trials, 2) + "%")
        .add(formatDouble(100 * (snn_sum / trials - snn_base), 2) + "%");
    table.print(std::cout);
    std::cout << "Clean baselines: ANN "
              << formatDouble(100 * ann_base, 2) << "%, SNN "
              << formatDouble(100 * snn_base, 2)
              << "%.  Paper: 0.74% (ANN) and 0.81% (SNN) mean drop.\n";
}

void
abftReport()
{
    const bool tiny = tinyMode();
    const int image = 12;
    const int images = tiny ? 24 : 48;

    SyntheticDigits train(400, image, /*seed=*/81);
    SyntheticDigits test(images + 8, image, /*seed=*/82);
    Network proto = bench::trainedModel(
        [&] { return buildMlp3(image, 1, 10, 91); }, train, /*epochs=*/6);
    const QuantizationResult quant =
        quantizeNetwork(proto, train.firstImages(64));

    // Read-path cost of the checksum column: two identically programmed
    // clean chips, ABFT off vs on. ADC conversions per inference are
    // deterministic and host-speed independent, so the ratio is a CI
    // gate; the clean ABFT chip must also flag nothing (false-positive
    // budget is zero by construction -- tolerance is half an ADC LSB).
    NebulaConfig on_cfg;
    on_cfg.abft = true;
    Network off_net = proto.clone(), on_net = proto.clone();
    NebulaChip off_chip, on_chip(on_cfg);
    off_chip.programAnn(off_net, quant);
    on_chip.programAnn(on_net, quant);
    const int probes = tiny ? 12 : 24;
    for (int i = 0; i < probes; ++i) {
        off_chip.runAnn(test.image(i));
        on_chip.runAnn(test.image(i));
    }
    const double overhead =
        static_cast<double>(on_chip.stats().adcConversions) /
        static_cast<double>(
            std::max<long long>(off_chip.stats().adcConversions, 1));
    const double false_positives =
        static_cast<double>(on_chip.stats().abftViolations);

    // Detection coverage: stuck-at campaign on the chip backend with
    // the checksum columns on. The campaign classifies every corrupt
    // image (prediction differs from the clean-reference run) as
    // detected (checksum flagged the request) or silent.
    CampaignConfig config;
    config.chip.abft = true;
    config.rates = {0.02, 0.05};
    config.seeds = tiny ? std::vector<uint64_t>{11}
                        : std::vector<uint64_t>{11, 12};
    config.images = images;
    config.runSnn = false;
    const CampaignResult result =
        runChipCampaign(proto, quant, nullptr, test, config);

    Table table("ABFT checksum columns: detected vs silent corruption "
                "(chip backend, stuck-at)",
                {"rate", "seed", "images", "corrupt", "detected", "silent",
                 "coverage"});
    for (const CampaignRow &row : result.rows) {
        table.row()
            .add(formatDouble(100 * row.rate, 1) + "%")
            .add(static_cast<long long>(row.seed))
            .add(static_cast<long long>(row.images))
            .add(static_cast<long long>(row.detected + row.undetected))
            .add(static_cast<long long>(row.detected))
            .add(static_cast<long long>(row.undetected))
            .add(formatDouble(row.detectionCoverage(), 3));
    }
    table.print(std::cout);

    bench::record("abft.detection_coverage", result.detectionCoverage());
    bench::record("abft.overhead", overhead);
    bench::record("abft.false_positives", false_positives);
    std::cout << "ABFT: coverage "
              << formatDouble(result.detectionCoverage(), 3)
              << ", read overhead x" << formatDouble(overhead, 3)
              << ", clean-chip false positives "
              << formatDouble(false_positives, 0) << ".\n\n";
}

void
BM_NoiseInjection(benchmark::State &state)
{
    Network net = buildVgg13(16, 3, 10, 0.25f, 42);
    for (auto _ : state) {
        injectWeightNoise(net, 0.10, 5);
        benchmark::DoNotOptimize(net.parameterCount());
    }
}
BENCHMARK(BM_NoiseInjection)->Unit(benchmark::kMillisecond);

void
BM_FaultMapSampling(benchmark::State &state)
{
    const StuckAtFaultModel model(0.01);
    uint64_t seed = 1;
    for (auto _ : state) {
        FaultMap map(128, 132);
        model.sampleInto(map, seed++);
        benchmark::DoNotOptimize(map.cellFaultCount());
    }
}
BENCHMARK(BM_FaultMapSampling)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nebula

int
main(int argc, char **argv)
{
    nebula::report();
    nebula::abftReport();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    nebula::bench::writeBenchSummary(argv[0]);
    return 0;
}
