/**
 * @file
 * Fast-path state-management tests: the crossbar EvalCache must never
 * serve stale derived state after programming, fault injection, or
 * mitigation-driven column remapping, and the chip / functional SNN
 * backends must consume identical per-request encoder seed streams.
 */

#include <gtest/gtest.h>

#include "arch/chip.hpp"
#include "nn/models.hpp"
#include "reliability/campaign.hpp"
#include "runtime/request.hpp"
#include "snn/snn_sim.hpp"
#include "testing/reference_crossbar.hpp"

namespace nebula {
namespace testing {
namespace {

constexpr double kCycle = 110e-9;

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    if (a.size() != b.size())
        return false;
    for (long long i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

/** Random weights in [-1, 1] for a rows x cols array. */
std::vector<float>
randomWeights(int rows, int cols, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> w(static_cast<size_t>(rows) * cols);
    for (auto &v : w)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return w;
}

std::vector<double>
rampInputs(int rows)
{
    std::vector<double> inputs(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i)
        inputs[static_cast<size_t>(i)] =
            0.1 + 0.8 * static_cast<double>(i) / std::max(rows - 1, 1);
    return inputs;
}

TEST(CrossbarCache, FaultInjectionAfterEvalIsNotStale)
{
    CrossbarParams params;
    params.rows = 16;
    params.cols = 8;
    CrossbarArray xbar(params);
    xbar.programWeights(randomWeights(16, 8, 11));

    const auto inputs = rampInputs(16);
    // First evaluation builds the cache.
    const CrossbarEval before = xbar.evaluateIdeal(inputs, kCycle);
    EXPECT_TRUE(compareEval(before, referenceIdeal(xbar, inputs, kCycle),
                            0.0)
                    .empty());

    // Break a column and a row *after* the cache was built. The open
    // lines change what evaluation reads without any reprogramming.
    FaultMap map(16, 8);
    map.setColOpen(3);
    map.setRowOpen(5);
    xbar.injectFaults(std::move(map));

    const CrossbarEval after = xbar.evaluateIdeal(inputs, kCycle);
    EXPECT_TRUE(compareEval(after, referenceIdeal(xbar, inputs, kCycle),
                            0.0)
                    .empty())
        << "cached conductances served after fault injection";
    EXPECT_EQ(after.currents[3], 0.0);
    EXPECT_NE(before.currents[3], after.currents[3]);

    // The sparse path reads the same cache.
    SpikeVector all_rows;
    for (int i = 0; i < 16; ++i)
        all_rows.push_back(i);
    CrossbarEval sparse;
    xbar.evaluateSparseInto(all_rows, kCycle, sparse);
    const std::vector<double> ones(16, 1.0);
    EXPECT_TRUE(
        compareEval(sparse, referenceIdeal(xbar, ones, kCycle), 0.0)
            .empty());
}

TEST(CrossbarCache, ReprogramAfterEvalIsNotStale)
{
    CrossbarParams params;
    params.rows = 12;
    params.cols = 6;
    CrossbarArray xbar(params);
    const auto inputs = rampInputs(12);

    xbar.programWeights(randomWeights(12, 6, 21));
    const CrossbarEval first = xbar.evaluateIdeal(inputs, kCycle);

    xbar.programWeights(randomWeights(12, 6, 22));
    const CrossbarEval second = xbar.evaluateIdeal(inputs, kCycle);

    EXPECT_TRUE(compareEval(second, referenceIdeal(xbar, inputs, kCycle),
                            0.0)
                    .empty())
        << "cached conductances served after reprogramming";
    EXPECT_FALSE(compareEval(first, second, 0.0).empty())
        << "different weights should change the currents";
}

TEST(CrossbarCache, MitigatedProgramRemapsCacheView)
{
    // Write-verify + spare-column repair: programming remaps a broken
    // column onto a spare, so the cached logical view must follow the
    // new remap table, not the one from the previous build.
    CrossbarParams params;
    params.rows = 16;
    params.cols = 8;
    params.spareCols = 2;
    CrossbarArray xbar(params);
    const auto inputs = rampInputs(16);
    const auto weights = randomWeights(16, 8, 31);

    ProgrammingConfig clean;
    clean.writeVerify.enabled = true;
    xbar.program(weights, clean);
    const CrossbarEval before = xbar.evaluateIdeal(inputs, kCycle);
    EXPECT_TRUE(compareEval(before, referenceIdeal(xbar, inputs, kCycle),
                            0.0)
                    .empty());
    EXPECT_EQ(xbar.sparesUsed(), 0);

    FaultMap map(16, 8 + 2);
    map.setColOpen(2); // logical column 2 broken -> repairable
    xbar.injectFaults(std::move(map));

    ProgrammingConfig mitigated;
    mitigated.writeVerify.enabled = true;
    mitigated.repair.enabled = true;
    const ProgramReport report = xbar.program(weights, mitigated);
    ASSERT_EQ(report.repairedColumns, 1);
    EXPECT_EQ(xbar.sparesUsed(), 1);
    EXPECT_NE(xbar.physicalColumn(2), 2);

    const CrossbarEval repaired = xbar.evaluateIdeal(inputs, kCycle);
    EXPECT_TRUE(
        compareEval(repaired, referenceIdeal(xbar, inputs, kCycle), 0.0)
            .empty())
        << "cache did not follow the spare-column remap";
    // The repaired column carries real current again (spare is healthy).
    EXPECT_NE(repaired.currents[2], 0.0);
}

TEST(SeedDeterminism, ChipAndFunctionalShareEncoderStream)
{
    SyntheticDigits data(24, 8, 41);
    Network net = buildMlp3(8, 1, 10, 43);
    SpikingModel chip_model = convertToSnn(net, data.firstImages(8));
    SpikingModel sim_model = convertToSnn(net, data.firstImages(8));

    NebulaChip chip;
    chip.programSnn(chip_model);
    SnnSimulator sim(sim_model);

    const Tensor image = data.image(0);
    constexpr int kSteps = 12;
    for (uint64_t id = 0; id < 4; ++id) {
        // The seed each backend would receive for request `id`.
        const uint64_t seed = deriveRequestSeed(/*salt=*/77, id);
        const SnnRunResult on_chip = chip.runSnn(image, kSteps, seed);
        const SnnRunResult functional = sim.run(image, kSteps, seed);

        // Identical seeds must drive identical Poisson input trains on
        // both backends (the logits differ -- the chip quantizes).
        EXPECT_EQ(on_chip.inputRate, functional.inputRate)
            << "encoder streams diverged for request " << id;

        // And each backend is a pure function of (state, image, seed).
        const SnnRunResult chip_again = chip.runSnn(image, kSteps, seed);
        const SnnRunResult sim_again = sim.run(image, kSteps, seed);
        EXPECT_TRUE(bitIdentical(on_chip.logits, chip_again.logits));
        EXPECT_TRUE(bitIdentical(functional.logits, sim_again.logits));
        EXPECT_EQ(on_chip.totalSpikes, chip_again.totalSpikes);
        EXPECT_EQ(functional.totalSpikes, sim_again.totalSpikes);
    }
}

TEST(SeedDeterminism, FunctionalCampaignIsWorkerCountInvariant)
{
    // The functional SNN leg now runs through the engine with
    // per-request seeds (previously a sequential stream forked from the
    // fault seed), so its accuracy cannot depend on worker scheduling.
    SyntheticDigits train(60, 8, 51);
    SyntheticDigits test(16, 8, 52);
    Network net = buildMlp3(8, 1, 10, 53);

    CampaignConfig config;
    config.images = 12;
    config.timesteps = 10;
    config.rates = {0.02};
    config.seeds = {5};
    config.mitigations = {MitigationSpec::none()};
    config.runAnn = false;
    config.runSnn = true;

    config.numWorkers = 1;
    const CampaignResult serial = runFunctionalCampaign(
        net, train.firstImages(16), test, config);
    config.numWorkers = 4;
    const CampaignResult parallel = runFunctionalCampaign(
        net, train.firstImages(16), test, config);

    ASSERT_EQ(serial.rows.size(), parallel.rows.size());
    for (size_t i = 0; i < serial.rows.size(); ++i) {
        EXPECT_EQ(serial.rows[i].correct, parallel.rows[i].correct);
        EXPECT_EQ(serial.rows[i].accuracy, parallel.rows[i].accuracy);
    }
}

} // namespace
} // namespace testing
} // namespace nebula
