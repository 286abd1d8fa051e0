/**
 * @file
 * Quantization pipeline tests (paper Sec. IV-C / Fig. 9) and the
 * Sec. IV-D weight-noise study plumbing.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.hpp"
#include "nn/datasets.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "nn/trainer.hpp"

namespace nebula {
namespace {

TEST(Percentile, MaxAndMedian)
{
    Tensor t({5}, {-4.0f, 1.0f, -2.0f, 3.0f, 0.0f});
    EXPECT_FLOAT_EQ(absPercentile(t, 1.0), 4.0f);
    EXPECT_FLOAT_EQ(absPercentile(t, 0.0), 0.0f);
    EXPECT_FLOAT_EQ(absPercentile(t, 0.5), 2.0f);
}

TEST(QuantizeTensor, SixteenLevelGrid)
{
    Tensor t({4}, {0.93f, -0.41f, 0.08f, -1.5f});
    quantizeTensorSymmetric(t, 1.0f, 16);
    // All values must be on the 16-level grid spanning [-1, 1].
    const float step = 2.0f / 15.0f;
    for (long long i = 0; i < t.size(); ++i) {
        const float k = (t[i] + 1.0f) / step;
        EXPECT_NEAR(k, std::round(k), 1e-4f) << "i=" << i;
        EXPECT_LE(std::abs(t[i]), 1.0f + 1e-6f);
    }
}

TEST(QuantizeTensor, ErrorBoundedByHalfStep)
{
    Rng rng(1);
    Tensor t({1000});
    t.uniform(rng, -1.0f, 1.0f);
    Tensor q = t;
    quantizeTensorSymmetric(q, 1.0f, 16);
    const float half_step = 1.0f / 15.0f;
    for (long long i = 0; i < t.size(); ++i)
        EXPECT_LE(std::abs(q[i] - t[i]), half_step + 1e-6f);
}

TEST(QuantizeTensor, TwoLevelsIsSignFunction)
{
    Tensor t({4}, {0.7f, -0.7f, 0.1f, -0.1f});
    quantizeTensorSymmetric(t, 1.0f, 2);
    EXPECT_FLOAT_EQ(t[0], 1.0f);
    EXPECT_FLOAT_EQ(t[1], -1.0f);
}

TEST(QuantizeTensor, ZeroClipZeroes)
{
    Tensor t({3}, {1.0f, -2.0f, 3.0f});
    quantizeTensorSymmetric(t, 0.0f, 16);
    for (long long i = 0; i < t.size(); ++i)
        EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(Calibration, CeilingsAreDescendingFromActivations)
{
    SyntheticDigits data(64, 12, 9);
    Network net = buildMlp3(12, 1, 10, 3);
    Tensor calibration = data.firstImages(32);
    const auto ceilings = calibrateActivations(net, calibration);
    ASSERT_EQ(ceilings.size(), static_cast<size_t>(net.numLayers()));
    for (float c : ceilings)
        EXPECT_GT(c, 0.0f);
}

TEST(QuantizeNetwork, ReplacesRelusAndQuantizesWeights)
{
    SyntheticDigits data(64, 12, 10);
    Network net = buildMlp3(12, 1, 10, 4);
    const auto result = quantizeNetwork(net, data.firstImages(32), 16, 16);

    // 3 weight layers recorded.
    ASSERT_EQ(result.layers.size(), 3u);
    for (const auto &info : result.layers) {
        EXPECT_GT(info.weightMax, 0.0f);
        EXPECT_GT(info.actCeiling, 0.0f);
    }

    // No plain ReLU remains.
    for (int i = 0; i < net.numLayers(); ++i)
        EXPECT_NE(net.layer(i).kind(), LayerKind::Relu);
}

TEST(QuantizeNetwork, AccuracyNearFloatAt16Levels)
{
    SyntheticDigits train_set(1000, 16, 11);
    SyntheticDigits test_set(300, 16, 12);

    Network net = buildMlp3(16, 1, 10, 5);
    TrainConfig cfg;
    cfg.epochs = 5;
    SgdTrainer trainer(cfg);
    trainer.train(net, train_set);
    const double float_acc = evaluateAccuracy(net, test_set);

    const Tensor calibration = train_set.firstImages(64);
    quantizeNetwork(net, calibration, 16, 16);
    const double quant_acc = evaluateAccuracy(net, test_set);

    // Paper Fig. 9: 16 weight levels are accuracy-competitive.
    EXPECT_GT(quant_acc, float_acc - 0.05);
}

TEST(QuantizeNetwork, AccuracyDegradesMonotonicallyOnAverage)
{
    SyntheticDigits train_set(1000, 16, 13);
    SyntheticDigits test_set(300, 16, 14);

    Network base = buildMlp3(16, 1, 10, 6);
    TrainConfig cfg;
    cfg.epochs = 5;
    SgdTrainer trainer(cfg);
    trainer.train(base, train_set);
    const std::vector<uint8_t> weights = base.save();
    const Tensor calibration = train_set.firstImages(64);

    // Accuracy at 2 levels should be clearly below accuracy at 16.
    auto acc_at = [&](int levels) {
        Network net = buildMlp3(16, 1, 10, 6);
        EXPECT_TRUE(net.load(weights.data(), weights.size()));
        quantizeNetwork(net, calibration, levels, 16);
        return evaluateAccuracy(net, test_set);
    };
    const double acc2 = acc_at(2);
    const double acc16 = acc_at(16);
    EXPECT_GT(acc16, acc2 - 0.02);
    EXPECT_GT(acc16, 0.8);
}

TEST(WeightNoise, TenPercentCostsLittleAccuracy)
{
    // Sec. IV-D: 10% multiplicative weight noise costs <~1-3% accuracy
    // on a quantized model (we allow a looser bound for the small MLP).
    SyntheticDigits train_set(1000, 16, 15);
    SyntheticDigits test_set(300, 16, 16);

    Network net = buildMlp3(16, 1, 10, 7);
    TrainConfig cfg;
    cfg.epochs = 5;
    SgdTrainer trainer(cfg);
    trainer.train(net, train_set);
    quantizeNetwork(net, train_set.firstImages(64), 16, 16);
    const double clean = evaluateAccuracy(net, test_set);

    injectWeightNoise(net, 0.10, 77);
    const double noisy = evaluateAccuracy(net, test_set);
    EXPECT_GT(noisy, clean - 0.08);
}

TEST(WeightNoise, ChangesWeights)
{
    Network net = buildMlp3(12, 1, 10, 8);
    auto params = net.parameters();
    const float before = (*params[0])[0];
    injectWeightNoise(net, 0.2, 5);
    EXPECT_NE((*params[0])[0], before);
}


TEST(QuantizePerChannel, ChannelsGetIndependentRanges)
{
    // One channel with large weights, one with tiny weights: per-channel
    // quantization must preserve the tiny channel's resolution.
    Rng rng(21);
    Network net("pc");
    auto *fc = net.add<Linear>(4, 2, false);
    // Channel 0: weights ~1.0; channel 1: weights ~0.01.
    for (int j = 0; j < 4; ++j) {
        fc->weight()[j] = 1.0f - 0.1f * j;
        fc->weight()[4 + j] = 0.01f - 0.001f * j;
    }
    net.add<Relu>();

    Tensor calibration({4, 4});
    calibration.uniform(rng, 0.0f, 1.0f);
    quantizeNetwork(net, calibration, 16, 16, 0.999, 1.0,
                    /*per_channel=*/true);

    // The tiny channel must not collapse to zero.
    int nonzero = 0;
    for (int j = 0; j < 4; ++j)
        nonzero += (fc->weight()[4 + j] != 0.0f);
    EXPECT_GE(nonzero, 3);
}

TEST(QuantizePerChannel, PerLayerCollapsesTinyChannel)
{
    // Contrast case: per-layer quantization crushes the small channel.
    Rng rng(22);
    Network net("pl");
    auto *fc = net.add<Linear>(4, 2, false);
    for (int j = 0; j < 4; ++j) {
        fc->weight()[j] = 1.0f;
        fc->weight()[4 + j] = 0.01f;
    }
    net.add<Relu>();
    Tensor calibration({4, 4});
    calibration.uniform(rng, 0.0f, 1.0f);
    quantizeNetwork(net, calibration, 16, 16, 0.999, 1.0,
                    /*per_channel=*/false);
    // The even 16-level grid has no zero state: the tiny weights all
    // snap to the +-step/2 grid point nearest zero and lose their
    // relative structure entirely.
    const float half_step = 1.0f / 15.0f;
    for (int j = 0; j < 4; ++j)
        EXPECT_NEAR(std::abs(fc->weight()[4 + j]), half_step, 1e-4f);
}

TEST(FineTune, RecoversQuantizationLoss)
{
    SyntheticDigits train_set(800, 16, 61);
    SyntheticDigits test_set(200, 16, 62);
    Network net = buildMlp3(16, 1, 10, 63);
    TrainConfig cfg;
    cfg.epochs = 5;
    SgdTrainer trainer(cfg);
    trainer.train(net, train_set);

    // Coarse quantization to create a visible loss.
    const auto quant = quantizeNetwork(net, train_set.firstImages(64), 4,
                                       16);
    const double before = evaluateAccuracy(net, test_set);
    const double tuned_train_acc =
        fineTuneQuantized(net, train_set, quant, 2, 0.02);
    const double after = evaluateAccuracy(net, test_set);
    EXPECT_GE(after, before - 0.02);
    EXPECT_GT(tuned_train_acc, 0.5);

    // Weights must still be on a quantized grid per channel.
    const auto idx = net.weightLayerIndices();
    Tensor &w = *net.layer(idx[0]).parameters()[0];
    // (sanity: values bounded)
    EXPECT_LE(w.maxAbs(), 10.0f);
}

} // namespace
} // namespace nebula
