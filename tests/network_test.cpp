/**
 * @file
 * Tests for the Network container: forward orchestration, BN folding,
 * save/load, cloning-related state copies, and the model zoo geometry.
 */

#include <gtest/gtest.h>

#include <vector>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/network.hpp"
#include "nn/pooling.hpp"

namespace nebula {
namespace {

Network
tinyConvNet(uint64_t seed)
{
    Rng rng(seed);
    Network net("tiny");
    net.add<Conv2d>(1, 4, 3, 1, 1, false)->initKaiming(rng);
    net.add<BatchNorm2d>(4);
    net.add<Relu>();
    net.add<AvgPool2d>(2);
    net.add<Flatten>();
    net.add<Linear>(4 * 4 * 4, 10)->initKaiming(rng);
    return net;
}

TEST(Network, ForwardShapes)
{
    Network net = tinyConvNet(1);
    Tensor x({2, 1, 8, 8});
    Tensor y = net.forward(x);
    EXPECT_EQ(y.shape(), (std::vector<int>{2, 10}));
}

TEST(Network, ForwardCollectRecordsEveryLayer)
{
    Network net = tinyConvNet(2);
    Tensor x({1, 1, 8, 8});
    std::vector<Tensor> outputs;
    net.forwardCollect(x, outputs);
    EXPECT_EQ(outputs.size(), static_cast<size_t>(net.numLayers()));
    EXPECT_EQ(outputs.back().shape(), (std::vector<int>{1, 10}));
}

TEST(Network, WeightLayerIndices)
{
    Network net = tinyConvNet(3);
    const auto idx = net.weightLayerIndices();
    ASSERT_EQ(idx.size(), 2u);
    EXPECT_EQ(idx[0], 0);
    EXPECT_EQ(idx[1], 5);
}

TEST(Network, ParameterCount)
{
    Network net = tinyConvNet(4);
    // conv (4*1*3*3) + bn (4+4) + fc (64*10 + 10)
    EXPECT_EQ(net.parameterCount(), 36 + 8 + 650);
}

TEST(Network, FoldBatchNormPreservesFunction)
{
    Network net = tinyConvNet(5);
    // Give BN non-trivial running stats by a few train passes.
    Rng rng(6);
    for (int i = 0; i < 5; ++i) {
        Tensor x({8, 1, 8, 8});
        x.randn(rng, 1.0f);
        net.forward(x, true);
    }

    Tensor probe({3, 1, 8, 8});
    probe.randn(rng, 0.7f);
    Tensor before = net.forward(probe, false);

    EXPECT_TRUE(net.hasBatchNorm());
    net.foldBatchNorm();
    EXPECT_FALSE(net.hasBatchNorm());
    EXPECT_EQ(net.numLayers(), 5); // BN removed

    Tensor after = net.forward(probe, false);
    ASSERT_TRUE(before.sameShape(after));
    for (long long i = 0; i < before.size(); ++i)
        EXPECT_NEAR(before[i], after[i], 1e-4f) << "i=" << i;
}

TEST(Network, SaveLoadRoundTrip)
{
    Network a = tinyConvNet(7);
    const std::vector<uint8_t> bytes = a.save();

    Network b = tinyConvNet(8); // different seed -> different weights
    Tensor probe({1, 1, 8, 8});
    Rng rng(9);
    probe.randn(rng);
    Tensor ya = a.forward(probe), yb = b.forward(probe);
    bool same = true;
    for (long long i = 0; i < ya.size(); ++i)
        same &= (ya[i] == yb[i]);
    EXPECT_FALSE(same);

    ASSERT_TRUE(b.load(bytes.data(), bytes.size()));
    Tensor yb2 = b.forward(probe);
    for (long long i = 0; i < ya.size(); ++i)
        EXPECT_FLOAT_EQ(ya[i], yb2[i]);
}

TEST(Network, LoadRejectsWrongShape)
{
    Network a = tinyConvNet(10);
    const std::vector<uint8_t> bytes = a.save();

    Rng rng(11);
    Network other("other");
    other.add<Linear>(4, 2)->initKaiming(rng);
    EXPECT_FALSE(other.load(bytes.data(), bytes.size()));
}

TEST(Network, LoadRejectsShortOrLongBuffersUntouched)
{
    Network a = tinyConvNet(14);
    std::vector<uint8_t> bytes = a.save();
    Network b = tinyConvNet(15);
    const std::vector<uint8_t> before = b.save();

    EXPECT_FALSE(b.load(bytes.data(), bytes.size() - 1));
    bytes.push_back(0);
    EXPECT_FALSE(b.load(bytes.data(), bytes.size()));
    EXPECT_EQ(b.save(), before) << "a rejected buffer changed the weights";
}

TEST(Network, CopyStateFrom)
{
    Network a = tinyConvNet(12);
    Network b = tinyConvNet(13);
    b.copyStateFrom(a);
    Tensor probe({1, 1, 8, 8});
    Rng rng(14);
    probe.randn(rng);
    Tensor ya = a.forward(probe), yb = b.forward(probe);
    for (long long i = 0; i < ya.size(); ++i)
        EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(Network, CloneProducesIndependentLayer)
{
    Rng rng(15);
    Linear fc(4, 2);
    fc.initKaiming(rng);
    LayerPtr copy = fc.clone();
    auto *fc2 = static_cast<Linear *>(copy.get());
    fc2->weight()[0] += 1.0f;
    EXPECT_NE(fc.weight()[0], fc2->weight()[0]);
}

// -- Model zoo geometry ---------------------------------------------------

TEST(ModelZoo, PaperBenchmarksTable)
{
    const auto &rows = paperBenchmarks();
    ASSERT_EQ(rows.size(), 8u);
    EXPECT_EQ(rows[3].model, "VGG-13");
    EXPECT_NEAR(rows[3].snnAccuracy, 90.05, 1e-9);
    EXPECT_EQ(rows[2].timesteps, 500);
}

TEST(ModelZoo, Mlp3HasThreeWeightLayers)
{
    Network net = buildMlp3(16, 1, 10, 1);
    EXPECT_EQ(net.weightLayerIndices().size(), 3u);
    Tensor x({1, 1, 16, 16});
    EXPECT_EQ(net.forward(x).shape(), (std::vector<int>{1, 10}));
}

TEST(ModelZoo, Lenet5HasFiveWeightLayers)
{
    Network net = buildLenet5(28, 1, 10, 1);
    EXPECT_EQ(net.weightLayerIndices().size(), 5u);
    Tensor x({1, 1, 28, 28});
    EXPECT_EQ(net.forward(x).shape(), (std::vector<int>{1, 10}));
}

TEST(ModelZoo, Vgg13HasThirteenWeightLayers)
{
    Network net = buildVgg13(32, 3, 10, 0.25f, 1);
    EXPECT_EQ(net.weightLayerIndices().size(), 13u);
    Tensor x({1, 3, 32, 32});
    EXPECT_EQ(net.forward(x).shape(), (std::vector<int>{1, 10}));
}

TEST(ModelZoo, MobilenetHasTwentyEightWeightLayers)
{
    // stem + 13 * (dw + pw) + fc = 28 weight layers (paper depth 29
    // counts the input encoding layer as well).
    Network net = buildMobilenetV1(32, 3, 10, 0.25f, 1);
    EXPECT_EQ(net.weightLayerIndices().size(), 28u);
    Tensor x({1, 3, 32, 32});
    EXPECT_EQ(net.forward(x).shape(), (std::vector<int>{1, 10}));
}

TEST(ModelZoo, SvhnNetHasTwelveWeightLayers)
{
    Network net = buildSvhnNet(32, 3, 10, 0.25f, 1);
    EXPECT_EQ(net.weightLayerIndices().size(), 12u);
    Tensor x({1, 3, 32, 32});
    EXPECT_EQ(net.forward(x).shape(), (std::vector<int>{1, 10}));
}

TEST(ModelZoo, AlexNetHasEightWeightLayers)
{
    Network net = buildAlexNet(64, 3, 20, 0.25f, 1);
    EXPECT_EQ(net.weightLayerIndices().size(), 8u);
    Tensor x({1, 3, 64, 64});
    EXPECT_EQ(net.forward(x).shape(), (std::vector<int>{1, 20}));
}

TEST(ModelZoo, PaperModelsByName)
{
    for (const char *name :
         {"mlp3", "lenet5", "vgg13", "mobilenet", "svhn"}) {
        Network net = buildPaperModel(name);
        EXPECT_GT(net.numLayers(), 0) << name;
    }
}

TEST(ModelZoo, SummaryMentionsEveryLayer)
{
    Network net = buildMlp3(16, 1, 10, 1);
    const std::string s = net.summary();
    EXPECT_NE(s.find("linear(256->128)"), std::string::npos);
    EXPECT_NE(s.find("linear(64->10)"), std::string::npos);
}

} // namespace
} // namespace nebula
