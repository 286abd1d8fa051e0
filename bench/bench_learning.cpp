/**
 * @file
 * On-device learning study: what the learning subsystem achieves and
 * costs on the device model.
 *
 *  1. Competitive clustering (learning/stdp) on the pixel-clusterable
 *     SyntheticClusters stream, clean vs pinning-drifted arrays via the
 *     learning campaign. Records `clustering.purity.clean` and
 *     `clustering.purity.drift` -- dimensionless, fully seeded, so CI
 *     regresses on them without host-speed dependence -- plus the
 *     pulse/energy bill per presented sample.
 *
 *  2. Chip-in-the-loop supervised fine-tuning (learning/insitu) on an
 *     mlp3 whose crossbars took a retention-decay ramp: accuracy clean /
 *     degraded / tuned and the deterministic `insitu.recovery_ratio`
 *     (fraction of the decay-lost accuracy the tuner wins back), plus
 *     the write-back pulse bill.
 *
 * Also microbenchmarks the incremental-update path (updateCells on a
 * dirty array vs a full re-program) so the cost advantage of in-place
 * learning stays visible.
 *
 * Set NEBULA_BENCH_TINY=1 to shrink to smoke-test size for CI; the
 * committed baseline in bench/baselines was recorded in tiny mode.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "arch/chip.hpp"
#include "common/table.hpp"
#include "learning/campaign.hpp"
#include "learning/insitu.hpp"
#include "nn/datasets.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "reliability/fault_model.hpp"

#include "bench_common.hpp"

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
clusteringStudy()
{
    const bool tiny = tinyMode();
    const int image = tiny ? 8 : 12;
    const int samples = tiny ? 120 : 240;
    const double drift = 0.05;

    SyntheticClusters data(samples + 32, 10, image, /*seed=*/52);
    LearningCampaignConfig config;
    config.rates = {0.0, drift};
    config.seeds = {3};
    config.samples = samples;
    config.stdp.epochs = 2;
    config.stdp.timesteps = 12;

    const LearningCampaignResult result = runLearningCampaign(data, config);

    Table table("On-device clustering, clean vs pinning drift",
                {"fault rate", "purity", "pulses/sample", "nJ/sample"});
    for (const LearningCampaignRow &row : result.rows) {
        const double presented = static_cast<double>(row.samples) *
                                 config.stdp.epochs;
        table.row()
            .add(formatDouble(100 * row.rate, 1) + "%")
            .add(formatDouble(row.purity, 3))
            .add(formatDouble(row.updates.pulses / presented, 1))
            .add(formatDouble(1e9 * (row.updates.updateEnergy +
                                     row.readEnergy) /
                                  presented,
                              2));
    }
    table.print(std::cout);

    const double clean = result.meanPurity(0.0);
    const double drifted = result.meanPurity(drift);
    bench::record("clustering.purity.clean", clean);
    bench::record("clustering.purity.drift", drifted);
    bench::record("clustering.update_pulses",
                  static_cast<double>(result.rows[0].updates.pulses));
    bench::record("clustering.update_energy_j",
                  result.rows[0].updates.updateEnergy);
    bench::record("clustering.read_energy_j", result.rows[0].readEnergy);
    std::cout << "purity: clean " << formatDouble(clean, 3) << ", at "
              << formatDouble(100 * drift, 1) << "% drift "
              << formatDouble(drifted, 3) << " (chance 0.100).\n\n";
}

void
insituStudy()
{
    const bool tiny = tinyMode();
    const int image = 12;
    const int calib_n = tiny ? 320 : 480;

    SyntheticDigits train(800, image, /*seed=*/61);
    SyntheticDigits test(tiny ? 120 : 200, image, /*seed=*/62);
    Network proto = bench::trainedModel(
        [&] { return buildMlp3(image, 1, 10, 71); }, train, /*epochs=*/8);
    const QuantizationResult quant =
        quantizeNetwork(proto, train.firstImages(64));

    std::vector<Tensor> test_images, calib_images;
    std::vector<int> test_labels, calib_labels;
    for (int i = 0; i < test.size(); ++i) {
        test_images.push_back(test.image(i));
        test_labels.push_back(test.label(i));
    }
    for (int i = 0; i < calib_n; ++i) {
        calib_images.push_back(train.image(i));
        calib_labels.push_back(train.label(i));
    }

    // Clean reference chip.
    Network clean_net = proto.clone();
    NebulaChip clean_chip;
    clean_chip.programAnn(clean_net, quant);
    const double clean = chipAccuracy(clean_chip, test_images, test_labels);

    // Retention-decay ramp shared by the control and tuned chips.
    ReliabilityConfig rel;
    rel.faults = std::make_shared<RetentionDecayFaultModel>(
        /*elapsed=*/0.8, /*tau=*/1.0, /*sigma=*/0.4);
    rel.faultSeed = 99;

    Network control_net = proto.clone();
    NebulaChip control_chip;
    control_chip.setReliability(rel);
    control_chip.programAnn(control_net, quant);
    const double degraded =
        chipAccuracy(control_chip, test_images, test_labels);

    Network tuned_net = proto.clone();
    NebulaChip tuned_chip;
    tuned_chip.setReliability(rel);
    tuned_chip.programAnn(tuned_net, quant);

    InsituConfig ic;
    ic.epochs = 3;
    InsituTuner tuner(tuned_chip, tuned_net, ic);
    const InsituResult run = tuner.tune(calib_images, calib_labels);
    const double tuned = chipAccuracy(tuned_chip, test_images, test_labels);
    const double recovery =
        clean > degraded ? (tuned - degraded) / (clean - degraded) : 1.0;

    Table table("Chip-in-the-loop fine-tuning after retention decay",
                {"chip", "test accuracy"});
    table.row().add("clean").add(formatDouble(100 * clean, 1) + "%");
    table.row().add("decayed (control)").add(
        formatDouble(100 * degraded, 1) + "%");
    table.row().add("decayed + tuned").add(formatDouble(100 * tuned, 1) +
                                           "%");
    table.print(std::cout);

    bench::record("insitu.accuracy.clean", clean);
    bench::record("insitu.accuracy.degraded", degraded);
    bench::record("insitu.accuracy.tuned", tuned);
    bench::record("insitu.recovery_ratio", recovery);
    bench::record("insitu.update_pulses",
                  static_cast<double>(run.updates.pulses));
    bench::record("insitu.update_energy_j", run.updates.updateEnergy);
    bench::record("insitu.chip_forwards",
                  static_cast<double>(run.chipForwards));
    std::cout << "fine-tuning recovered "
              << formatDouble(100 * recovery, 0) << "% of the "
              << formatDouble(100 * (clean - degraded), 1)
              << "-point decay loss (" << run.updates.pulses
              << " pulses, " << run.chipForwards << " chip forwards).\n\n";
}

// ---------------------------------------------------------------------------
// Microbenchmarks: incremental update vs full re-program.
// ---------------------------------------------------------------------------

void
BM_UpdateCellsSparse(benchmark::State &state)
{
    CrossbarParams xp;
    CrossbarArray xbar(xp);
    std::vector<float> weights(
        static_cast<size_t>(xp.rows) * xp.cols, 0.25f);
    xbar.program(weights, {});
    // A 1%-sparse delta batch, the shape one learning step produces.
    std::vector<CellUpdate> ups;
    for (int i = 0; i < xp.rows * xp.cols / 100; ++i)
        ups.push_back({(i * 7) % xp.rows, (i * 13) % xp.cols,
                       (i % 2) ? 1 : -1});
    for (auto _ : state) {
        const UpdateReport report = xbar.updateCells(ups);
        benchmark::DoNotOptimize(report.pulses);
    }
}
BENCHMARK(BM_UpdateCellsSparse)->Unit(benchmark::kMicrosecond);

void
BM_FullReprogram(benchmark::State &state)
{
    CrossbarParams xp;
    CrossbarArray xbar(xp);
    std::vector<float> weights(
        static_cast<size_t>(xp.rows) * xp.cols, 0.25f);
    for (auto _ : state) {
        const ProgramReport report = xbar.program(weights, {});
        benchmark::DoNotOptimize(report.pulses);
    }
}
BENCHMARK(BM_FullReprogram)->Unit(benchmark::kMicrosecond);

} // namespace
} // namespace nebula

int
main(int argc, char **argv)
{
    std::cout << "== NEBULA on-device learning bench ==\n\n";
    nebula::clusteringStudy();
    nebula::insituStudy();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    nebula::bench::writeBenchSummary(argv[0]);
    return 0;
}
