/**
 * @file
 * Energy/power model tests: accounting identities, mode asymmetries and
 * the headline paper ratios (who wins, roughly by how much).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/chip.hpp"
#include "arch/energy_model.hpp"
#include "arch/pipeline.hpp"
#include "nn/models.hpp"

namespace nebula {
namespace {

NetworkMapping
mapModel(Network &net, int channels, int spatial)
{
    Tensor x({1, channels, spatial, spatial});
    net.forward(x);
    return LayerMapper().map(net);
}

TEST(ActivityProfile, UniformAndDecaying)
{
    auto u = ActivityProfile::uniform(5, 0.3);
    ASSERT_EQ(u.inputActivity.size(), 5u);
    for (double a : u.inputActivity)
        EXPECT_DOUBLE_EQ(a, 0.3);

    auto d = ActivityProfile::decaying(10, 0.25, 0.8, 0.02);
    EXPECT_DOUBLE_EQ(d.inputActivity[0], 0.25);
    for (size_t i = 1; i < d.inputActivity.size(); ++i)
        EXPECT_LE(d.inputActivity[i], d.inputActivity[i - 1]);
    EXPECT_GE(d.inputActivity.back(), 0.02);
}

TEST(EnergyBreakdown, PricesChipStatsDeltaAtTableIII)
{
    // A hand-built delta of 32 crossbar evals and 10 ADC conversions:
    // one eval keeps 1/16 of its core's driver bank and neuron units
    // busy for one 110 ns cycle, one conversion one ADC for one cycle
    // (Table III: DAC array 26.56 mW, spike drivers 0.904 mW, neuron
    // units 0.151 mW, ADC 0.43 mW). Crossbar and NoC joules pass
    // through as measured.
    ChipStats before;
    before.crossbarEvals = 5;
    before.adcConversions = 3;
    before.crossbarEnergy = 1e-9;
    before.nocEnergy = 2e-10;
    ChipStats after = before;
    after.crossbarEvals += 32;
    after.adcConversions += 10;
    after.crossbarEnergy += 3e-9;
    after.nocEnergy += 4e-10;
    const double cycle = 110e-9;

    const EnergyBreakdown ann =
        estimateEnergyBreakdown(before, after, Mode::ANN);
    EXPECT_DOUBLE_EQ(ann.driverJ, 32 * 26.56e-3 / 16 * cycle);
    EXPECT_DOUBLE_EQ(ann.adcJ, 10 * 0.43e-3 * cycle);
    EXPECT_DOUBLE_EQ(ann.neuronJ, 32 * 0.151e-3 / 16 * cycle);
    EXPECT_DOUBLE_EQ(ann.crossbarJ,
                     after.crossbarEnergy - before.crossbarEnergy);
    EXPECT_DOUBLE_EQ(ann.nocJ, after.nocEnergy - before.nocEnergy);

    const EnergyBreakdown snn =
        estimateEnergyBreakdown(before, after, Mode::SNN);
    EXPECT_DOUBLE_EQ(snn.driverJ, 32 * 0.904e-3 / 16 * cycle);
    EXPECT_DOUBLE_EQ(snn.adcJ, ann.adcJ);
    EXPECT_DOUBLE_EQ(snn.neuronJ, ann.neuronJ);
}

TEST(EnergyModel, ComponentsSumToTotal)
{
    Network net = buildVgg13(32, 3, 10, 0.5f, 1);
    const auto mapping = mapModel(net, 3, 32);
    EnergyModel model;
    const auto result = model.evaluateAnn(
        mapping, ActivityProfile::uniform(mapping.layers.size(), 0.5));

    double component_sum = 0.0;
    for (const auto &kv : result.byComponent)
        component_sum += kv.second;
    EXPECT_NEAR(component_sum, result.totalEnergy,
                1e-9 * result.totalEnergy);

    double layer_sum = 0.0;
    for (const auto &layer : result.layers)
        layer_sum += layer.energy;
    EXPECT_NEAR(layer_sum, result.totalEnergy, 1e-9 * result.totalEnergy);
}

TEST(EnergyModel, AvgPowerIsEnergyOverLatency)
{
    Network net = buildSvhnNet(32, 3, 10, 0.5f, 1);
    const auto mapping = mapModel(net, 3, 32);
    EnergyModel model;
    const auto result = model.evaluateAnn(
        mapping, ActivityProfile::uniform(mapping.layers.size(), 0.5));
    EXPECT_NEAR(result.avgPower, result.totalEnergy / result.latency,
                1e-12);
    EXPECT_GT(result.latency, 0.0);
}

TEST(EnergyModel, SnnEnergyScalesWithTimesteps)
{
    Network net = buildSvhnNet(32, 3, 10, 0.5f, 1);
    const auto mapping = mapModel(net, 3, 32);
    EnergyModel model;
    const auto act =
        ActivityProfile::uniform(mapping.layers.size(), 0.1);
    const auto e100 = model.evaluateSnn(mapping, act, 100);
    const auto e200 = model.evaluateSnn(mapping, act, 200);
    EXPECT_NEAR(e200.totalEnergy / e100.totalEnergy, 2.0, 0.01);
}

TEST(EnergyModel, SnnEnergyGrowsWithActivity)
{
    Network net = buildSvhnNet(32, 3, 10, 0.5f, 1);
    const auto mapping = mapModel(net, 3, 32);
    EnergyModel model;
    const auto quiet = model.evaluateSnn(
        mapping, ActivityProfile::uniform(mapping.layers.size(), 0.02),
        100);
    const auto busy = model.evaluateSnn(
        mapping, ActivityProfile::uniform(mapping.layers.size(), 0.4),
        100);
    EXPECT_GT(busy.totalEnergy, quiet.totalEnergy);
}

TEST(EnergyModel, SnnModeFarLowerPowerThanAnn)
{
    // Paper Sec. VI-C1: SNN mode is ~6.25-10x more power-efficient.
    Network net = buildVgg13(32, 3, 10, 1.0f, 1);
    const auto mapping = mapModel(net, 3, 32);
    EnergyModel model;
    const auto ann = model.evaluateAnn(
        mapping, ActivityProfile::uniform(mapping.layers.size(), 0.5));
    const auto snn = model.evaluateSnn(
        mapping, ActivityProfile::decaying(mapping.layers.size()), 300);
    const double ratio = ann.avgPower / snn.avgPower;
    EXPECT_GT(ratio, 5.0);
    EXPECT_LT(ratio, 25.0);
}

TEST(EnergyModel, SnnModeHigherEnergyThanAnn)
{
    // Distributing computation over T timesteps costs energy
    // (paper Fig. 17): SNN inference energy exceeds ANN inference
    // energy at the benchmark timestep counts.
    Network net = buildSvhnNet(32, 3, 10, 1.0f, 1);
    const auto mapping = mapModel(net, 3, 32);
    EnergyModel model;
    const auto ann = model.evaluateAnn(
        mapping, ActivityProfile::uniform(mapping.layers.size(), 0.5));
    const auto snn = model.evaluateSnn(
        mapping, ActivityProfile::decaying(mapping.layers.size()), 100);
    const double ratio = snn.totalEnergy / ann.totalEnergy;
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 30.0);
}

TEST(EnergyModel, PeakPowerAnnFarAboveSnn)
{
    // Paper Fig. 14: layer-wise ANN peak power is an order of magnitude
    // (up to ~50x) above SNN.
    Network net = buildVgg13(32, 3, 10, 1.0f, 1);
    const auto mapping = mapModel(net, 3, 32);
    EnergyModel model;
    const auto ann = model.evaluateAnn(
        mapping, ActivityProfile::uniform(mapping.layers.size(), 0.5));
    const auto snn = model.evaluateSnn(
        mapping, ActivityProfile::decaying(mapping.layers.size()), 300);
    double max_ratio = 0.0;
    for (size_t i = 0; i < ann.layers.size(); ++i)
        max_ratio = std::max(max_ratio, ann.layers[i].peakPower /
                                            snn.layers[i].peakPower);
    EXPECT_GT(max_ratio, 20.0);
}

TEST(EnergyModel, AdcOnlyChargedWhenSpilled)
{
    Network net = buildSvhnNet(32, 3, 10, 0.25f, 1); // small: no spill
    const auto mapping = mapModel(net, 3, 32);
    EnergyModel model;
    const auto result = model.evaluateAnn(
        mapping, ActivityProfile::uniform(mapping.layers.size(), 0.5));
    for (size_t i = 0; i < mapping.layers.size(); ++i) {
        if (!mapping.layers[i].needsAdc)
            EXPECT_DOUBLE_EQ(result.layers[i].byComponent.at("adc"), 0.0)
                << mapping.layers[i].name;
    }
}

TEST(EnergyModel, HybridBetweenSnnAndAnn)
{
    // Paper Fig. 17: hybrid energy sits between pure SNN and pure ANN.
    Network net = buildSvhnNet(32, 3, 10, 1.0f, 1);
    const auto mapping = mapModel(net, 3, 32);
    EnergyModel model;
    const auto act = ActivityProfile::decaying(mapping.layers.size());
    const int T = 100;

    const auto snn = model.evaluateSnn(mapping, act, T);
    const auto ann = model.evaluateAnn(
        mapping, ActivityProfile::uniform(mapping.layers.size(), 0.5));
    // Hybrid models reach SNN accuracy in fewer timesteps (paper
    // Table II: e.g. SVHN Hyb-1 at t=80 matches the t=100 SNN), so the
    // energy comparison is at the iso-accuracy timestep count.
    const int split = static_cast<int>(mapping.layers.size()) - 2;
    const auto hybrid =
        model.evaluateHybrid(mapping, act, split, T * 8 / 10, 4096,
                             100000);

    EXPECT_LT(hybrid.totalEnergy, snn.totalEnergy);
    EXPECT_GT(hybrid.totalEnergy, ann.totalEnergy);
    // And hybrid power between ANN (highest) and SNN (lowest).
    EXPECT_GT(hybrid.avgPower, snn.avgPower);
    EXPECT_LT(hybrid.avgPower, ann.avgPower);
}

TEST(EnergyModel, HybridPowerGrowsWithAnnLayers)
{
    // Paper Sec. VI-C3: adding ANN layers to the hybrid raises power.
    Network net = buildVgg13(32, 3, 10, 1.0f, 1);
    const auto mapping = mapModel(net, 3, 32);
    EnergyModel model;
    const auto act = ActivityProfile::decaying(mapping.layers.size());
    const int n = static_cast<int>(mapping.layers.size());

    const auto hyb1 =
        model.evaluateHybrid(mapping, act, n - 1, 250, 512, 10000);
    const auto hyb3 =
        model.evaluateHybrid(mapping, act, n - 3, 250, 512, 10000);
    EXPECT_GT(hyb3.avgPower, hyb1.avgPower);
}

TEST(EnergyModel, ComponentShareHelper)
{
    Network net = buildSvhnNet(32, 3, 10, 0.5f, 1);
    const auto mapping = mapModel(net, 3, 32);
    EnergyModel model;
    const auto result = model.evaluateAnn(
        mapping, ActivityProfile::uniform(mapping.layers.size(), 0.5));
    double share_sum = 0.0;
    for (const char *name : {"driver/dac", "crossbar", "neuron", "sram",
                             "edram", "adc", "ru", "noc"})
        share_sum += result.componentShare(name);
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(result.componentShare("nonexistent"), 0.0);
}

TEST(EnergyModel, AnnCrossbarAndDacDominate)
{
    // Paper Fig. 15b: in ANN mode crossbars + DACs dominate (~65%).
    Network net = buildVgg13(32, 3, 10, 1.0f, 1);
    const auto mapping = mapModel(net, 3, 32);
    EnergyModel model;
    const auto result = model.evaluateAnn(
        mapping, ActivityProfile::uniform(mapping.layers.size(), 0.5));
    const double share = result.componentShare("crossbar") +
                         result.componentShare("driver/dac");
    EXPECT_GT(share, 0.35);
}

TEST(EnergyModel, SnnMemoryShareLargerThanAnn)
{
    // Paper Fig. 15a: SRAM/eDRAM share grows in SNN mode.
    Network net = buildVgg13(32, 3, 10, 1.0f, 1);
    const auto mapping = mapModel(net, 3, 32);
    EnergyModel model;
    const auto ann = model.evaluateAnn(
        mapping, ActivityProfile::uniform(mapping.layers.size(), 0.5));
    const auto snn = model.evaluateSnn(
        mapping, ActivityProfile::decaying(mapping.layers.size()), 300);
    const double ann_mem =
        ann.componentShare("sram") + ann.componentShare("edram");
    const double snn_mem =
        snn.componentShare("sram") + snn.componentShare("edram");
    EXPECT_GT(snn_mem, ann_mem);
}

TEST(Pipeline, StageCounts)
{
    Network net = buildVgg13(32, 3, 10, 1.0f, 1);
    Tensor x({1, 3, 32, 32});
    net.forward(x);
    const auto mapping = LayerMapper().map(net);
    PipelineModel pipeline;
    for (const auto &layer : mapping.layers) {
        const int stages = pipeline.stagesFor(layer);
        if (layer.needsAdc)
            EXPECT_GT(stages, 3) << layer.name;
        else
            EXPECT_EQ(stages, 3) << layer.name;
        EXPECT_EQ(pipeline.layerLatencyCycles(layer),
                  stages + layer.positions - 1);
    }
}

TEST(Pipeline, SnnLatencyScalesWithTimesteps)
{
    Network net = buildSvhnNet(32, 3, 10, 0.25f, 1);
    Tensor x({1, 3, 32, 32});
    net.forward(x);
    const auto mapping = LayerMapper().map(net);
    PipelineModel pipeline;
    const double t1 = pipeline.networkLatency(mapping, 1);
    const double t100 = pipeline.networkLatency(mapping, 100);
    EXPECT_NEAR(t100 / t1, 100.0, 1e-9);
    EXPECT_GT(pipeline.throughput(mapping, 1), 0.0);
}

} // namespace
} // namespace nebula
