/**
 * @file
 * Layer-mapper tests: morphable-tile chaining, NU hierarchy selection,
 * ADC spill decisions, depthwise diagonal packing, utilization.
 */

#include <gtest/gtest.h>

#include "arch/mapping.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"

namespace nebula {
namespace {

/** Map a conv layer after fixing its geometry with a forward pass. */
LayerMapping
mapConv(int in_c, int out_c, int k, int spatial, int stride = 1,
        int pad = 1)
{
    Conv2d conv(in_c, out_c, k, stride, pad);
    Tensor x({1, in_c, spatial, spatial});
    conv.forward(x);
    return LayerMapper().mapLayer(conv, 0);
}

TEST(Mapper, SmallKernelUsesH0)
{
    // Rf <= M: a single atomic crossbar, hierarchy level 0.
    const auto m = mapConv(3, 64, 3, 32); // Rf = 27
    EXPECT_EQ(m.chain, 1);
    EXPECT_EQ(m.hierarchyLevel, 0);
    EXPECT_FALSE(m.needsAdc);
    EXPECT_EQ(m.coresNeeded, 1);
    EXPECT_EQ(m.positions, 32 * 32);
}

TEST(Mapper, MediumKernelChainsWithinTile)
{
    // M < Rf <= 2M: two chained ACs (vertical switch), H1.
    const auto m = mapConv(16, 64, 3, 16); // Rf = 144
    EXPECT_EQ(m.chain, 2);
    EXPECT_EQ(m.hierarchyLevel, 1);
    EXPECT_FALSE(m.needsAdc);
}

TEST(Mapper, LargeKernelUsesSupertileH2)
{
    // 4M < Rf <= 16M: chained across tiles, H2 neuron units.
    const auto m = mapConv(128, 128, 3, 8); // Rf = 1152
    EXPECT_EQ(m.chain, 16);
    EXPECT_EQ(m.hierarchyLevel, 2);
    EXPECT_FALSE(m.needsAdc);
    EXPECT_EQ(m.coresNeeded, 1);
}

TEST(Mapper, HugeKernelSpillsAndNeedsAdc)
{
    // Rf > 16M = 2048: multi-NC, ADC + RU reduction.
    const auto m = mapConv(512, 512, 3, 4); // Rf = 4608
    EXPECT_TRUE(m.needsAdc);
    EXPECT_EQ(m.coreSplit, 3); // ceil(4608 / 2048)
    EXPECT_GT(m.adcConversions, 0);
    EXPECT_EQ(m.ruAdditions,
              m.positions * static_cast<long long>(m.kernels) *
                  (m.coreSplit - 1));
}

TEST(Mapper, VggFirstLayerLowUtilization)
{
    // Paper Sec. IV-B2: VGG's first layer uses only 27 x 64 of a
    // 128 x 128 crossbar.
    const auto m = mapConv(3, 64, 3, 32);
    EXPECT_NEAR(m.utilization, 27.0 * 64 / (128 * 128), 1e-9);
}

TEST(Mapper, ManyKernelsSplitIntoColumnGroups)
{
    const auto m = mapConv(16, 300, 3, 16); // Rf = 144, kernels = 300
    EXPECT_EQ(m.columnGroups, 3); // ceil(300 / 128)
    EXPECT_EQ(m.acsNeeded, 3 * m.chain);
}

TEST(Mapper, DepthwiseDiagonalPacking)
{
    DwConv2d conv(256, 3, 1, 1);
    Tensor x({1, 256, 8, 8});
    conv.forward(x);
    const auto m = LayerMapper().mapLayer(conv, 0);
    // 14 kernels of Rf 9 per 128-row crossbar -> ceil(256/14) = 19 ACs.
    EXPECT_EQ(m.chain, 1);
    EXPECT_EQ(m.acsNeeded, 19);
    EXPECT_FALSE(m.needsAdc);
    EXPECT_EQ(m.dacRowsPerEval, 9 * 256);
    EXPECT_LT(m.utilization, 0.15); // paper: separable convs underutilize
}

TEST(Mapper, LinearLayerSinglePosition)
{
    Linear fc(512, 512);
    Tensor x({1, 512});
    fc.forward(x);
    const auto m = LayerMapper().mapLayer(fc, 0);
    EXPECT_EQ(m.positions, 1);
    EXPECT_EQ(m.chain, 4);
    EXPECT_EQ(m.columnGroups, 4);
    EXPECT_FALSE(m.needsAdc);
}

TEST(Mapper, RejectsNonWeightLayers)
{
    Linear fc(4, 4);
    Tensor x({1, 4});
    fc.forward(x);
    LayerMapper mapper;
    EXPECT_NO_FATAL_FAILURE(mapper.mapLayer(fc, 0));
}

TEST(Mapper, WholeNetworkMapping)
{
    Network net = buildVgg13(32, 3, 10, 1.0f, 1);
    Tensor x({1, 3, 32, 32});
    net.forward(x);
    const auto mapping = LayerMapper().map(net);
    EXPECT_EQ(mapping.layers.size(), 13u);
    EXPECT_TRUE(mapping.anyAdc()); // the 512-channel convs spill
    EXPECT_GT(mapping.totalCores(), 0);
    EXPECT_GT(mapping.totalAcs(), 0);
}

TEST(Mapper, VggOnlyLargeLayersNeedAdc)
{
    Network net = buildVgg13(32, 3, 10, 1.0f, 2);
    Tensor x({1, 3, 32, 32});
    net.forward(x);
    const auto mapping = LayerMapper().map(net);
    for (const auto &m : mapping.layers)
        EXPECT_EQ(m.needsAdc, m.rf > 2048) << m.name;
}


TEST(MapperOptions, RigidTilesUseMoreCrossbars)
{
    Conv2d conv(16, 64, 3, 1, 1); // Rf = 144: morphable chain = 2
    Tensor x({1, 16, 8, 8});
    conv.forward(x);

    const auto adaptive = LayerMapper().mapLayer(conv, 0);
    MapperOptions rigid;
    rigid.morphableTiles = false;
    const auto fixed = LayerMapper(rigid).mapLayer(conv, 0);

    EXPECT_EQ(adaptive.chain, 2);
    EXPECT_EQ(fixed.chain, 16);
    EXPECT_GT(fixed.acsNeeded, adaptive.acsNeeded);
    EXPECT_LT(fixed.utilization, adaptive.utilization);
}

TEST(MapperOptions, NoHierarchyForcesAdcOnChainedLayers)
{
    Conv2d conv(64, 64, 3, 1, 1); // Rf = 576: chain = 8
    Tensor x({1, 64, 8, 8});
    conv.forward(x);

    MapperOptions no_nu;
    no_nu.nuHierarchy = false;
    const auto m = LayerMapper(no_nu).mapLayer(conv, 0);
    EXPECT_TRUE(m.needsAdc);
    EXPECT_EQ(m.adcConversions,
              m.positions * static_cast<long long>(m.kernels) * m.chain);

    // Small-Rf layers (single AC) still avoid the ADC.
    Conv2d small(3, 16, 3, 1, 1);
    Tensor y({1, 3, 8, 8});
    small.forward(y);
    EXPECT_FALSE(LayerMapper(no_nu).mapLayer(small, 0).needsAdc);
}

class MapperRfSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(MapperRfSweep, ChainCoversReceptiveField)
{
    const int in_c = GetParam();
    Linear fc(in_c, 32);
    Tensor x({1, in_c});
    fc.forward(x);
    const auto m = LayerMapper().mapLayer(fc, 0);
    if (!m.needsAdc) {
        EXPECT_GE(m.chain * 128, m.rf);
        // chain is the smallest power of two covering Rf
        if (m.chain > 1)
            EXPECT_LT(m.chain / 2 * 128, m.rf);
    } else {
        EXPECT_GE(m.coreSplit * 2048, m.rf);
    }
    EXPECT_LE(m.utilization, 1.0);
    EXPECT_GT(m.utilization, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MapperRfSweep,
                         ::testing::Values(16, 128, 129, 256, 500, 1024,
                                           2048, 2049, 4096, 10000));

} // namespace
} // namespace nebula
