/**
 * @file
 * Mesh NoC tests: routing, latency, serialization/contention, energy.
 */

#include <gtest/gtest.h>

#include "noc/noc.hpp"

namespace nebula {
namespace {

NocConfig
smallMesh()
{
    NocConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.flitBits = 32;
    cfg.hopLatency = 1;
    return cfg;
}

TEST(Noc, ManhattanDistance)
{
    EXPECT_EQ(MeshNoc::manhattan({0, 0}, {3, 2}), 5);
    EXPECT_EQ(MeshNoc::manhattan({2, 2}, {2, 2}), 0);
}

TEST(Noc, SinglePacketLatency)
{
    MeshNoc noc(smallMesh());
    noc.inject({1, {0, 0}, {2, 1}, 32, 0});
    const auto traces = noc.drain();
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].hops, 3);
    // Each hop: 1 flit serialization + 1 hop latency = 2 cycles.
    EXPECT_EQ(traces[0].latency, 6);
}

TEST(Noc, SelfDeliveryIsFree)
{
    MeshNoc noc(smallMesh());
    noc.inject({1, {1, 1}, {1, 1}, 64, 5});
    const auto traces = noc.drain();
    EXPECT_EQ(traces[0].hops, 0);
    EXPECT_EQ(traces[0].latency, 0);
    EXPECT_DOUBLE_EQ(noc.dynamicEnergy(), 0.0);
}

TEST(Noc, MultiFlitSerialization)
{
    MeshNoc noc(smallMesh());
    // 128 bits over 32-bit flits -> 4 flits.
    noc.inject({1, {0, 0}, {1, 0}, 128, 0});
    const auto traces = noc.drain();
    EXPECT_EQ(traces[0].latency, 4 + 1);
}

TEST(Noc, ContentionSerializesSharedLink)
{
    MeshNoc noc(smallMesh());
    // Two packets share the (0,0)->(1,0) link at the same time.
    noc.inject({1, {0, 0}, {1, 0}, 32, 0});
    noc.inject({2, {0, 0}, {1, 0}, 32, 0});
    const auto traces = noc.drain();
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0].latency, 2);
    EXPECT_GT(traces[1].latency, traces[0].latency);
}

TEST(Noc, DisjointPathsDoNotContend)
{
    MeshNoc noc(smallMesh());
    noc.inject({1, {0, 0}, {1, 0}, 32, 0});
    noc.inject({2, {0, 3}, {1, 3}, 32, 0});
    const auto traces = noc.drain();
    EXPECT_EQ(traces[0].latency, traces[1].latency);
}

TEST(Noc, XyRoutingHopCount)
{
    MeshNoc noc(smallMesh());
    noc.inject({1, {3, 3}, {0, 0}, 32, 0});
    const auto traces = noc.drain();
    EXPECT_EQ(traces[0].hops, 6);
}

TEST(Noc, EnergyScalesWithHopsAndFlits)
{
    MeshNoc noc(smallMesh());
    noc.inject({1, {0, 0}, {1, 0}, 32, 0}); // 1 hop, 1 flit
    noc.drain();
    const double e1 = noc.dynamicEnergy();

    noc.reset();
    noc.inject({2, {0, 0}, {3, 0}, 128, 0}); // 3 hops, 4 flits
    noc.drain();
    EXPECT_NEAR(noc.dynamicEnergy() / e1, 12.0, 1e-9);
}

TEST(Noc, TransferEnergyMatchesAnalytic)
{
    MeshNoc noc(smallMesh());
    const double e = noc.transferEnergy({0, 0}, {2, 2}, 64);
    // 4 hops, 2 flits.
    EXPECT_NEAR(e, 4 * 2 * kFlitHopEnergy, 1e-18);
}

TEST(Noc, DrainDeliversEverything)
{
    MeshNoc noc(smallMesh());
    for (int i = 0; i < 50; ++i)
        noc.inject({i, {i % 4, (i / 4) % 4}, {3 - i % 4, 3 - (i / 4) % 4},
                    64, i});
    const auto traces = noc.drain();
    EXPECT_EQ(traces.size(), 50u);
    EXPECT_EQ(noc.delivered(), 50);
}

TEST(Noc, StatsAccumulate)
{
    MeshNoc noc(smallMesh());
    noc.inject({1, {0, 0}, {3, 3}, 32, 0});
    noc.drain();
    EXPECT_EQ(noc.stats().scalarAt("noc.hops").count(), 1u);
    EXPECT_DOUBLE_EQ(noc.stats().scalarAt("noc.hops").max(), 6.0);
}

TEST(Noc, RejectsOffMeshPackets)
{
    MeshNoc noc(smallMesh());
    EXPECT_DEATH({ noc.inject({1, {0, 0}, {9, 0}, 32, 0}); }, "off-mesh");
}

class NocMeshSizes : public ::testing::TestWithParam<int>
{
};

TEST_P(NocMeshSizes, CornerToCornerScales)
{
    NocConfig cfg;
    cfg.width = cfg.height = GetParam();
    MeshNoc noc(cfg);
    noc.inject({1, {0, 0}, {cfg.width - 1, cfg.height - 1}, 32, 0});
    const auto traces = noc.drain();
    EXPECT_EQ(traces[0].hops, 2 * (GetParam() - 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, NocMeshSizes, ::testing::Values(2, 4, 8, 14));

} // namespace
} // namespace nebula
