/**
 * @file
 * Full-stack integration tests: quantized networks executed through the
 * chip model (DW-MTJ crossbars + drivers + neuron units) must agree
 * with the functional simulator, in both ANN and SNN modes; plus the
 * chip statistics.
 */

#include <gtest/gtest.h>

#include "arch/chip.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/datasets.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/pooling.hpp"
#include "nn/quantize.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "snn/convert.hpp"
#include "snn/snn_sim.hpp"

namespace nebula {
namespace {

/** Small trained CNN on 12x12 digits for end-to-end runs. */
Network
trainedTinyCnn(const SyntheticDigits &train_set)
{
    Rng rng(7);
    Network net("tinycnn");
    net.add<Conv2d>(1, 6, 3, 1, 1)->initKaiming(rng);
    net.add<Relu>();
    net.add<AvgPool2d>(2);
    net.add<Flatten>();
    net.add<Linear>(6 * 6 * 6, 10)->initKaiming(rng);

    TrainConfig cfg;
    cfg.epochs = 5;
    cfg.batchSize = 32;
    cfg.learningRate = 0.08;
    SgdTrainer trainer(cfg);
    trainer.train(net, train_set);
    return net;
}

TEST(ChipStats, MergeAddsEveryCounter)
{
    ChipStats a;
    a.crossbarEvals = 3;
    a.adcConversions = 10;
    a.spikes = 7;
    a.crossbarEnergy = 1.5;
    a.nocPackets = 2;
    a.nocEnergy = 0.25;

    ChipStats b;
    b.crossbarEvals = 5;
    b.adcConversions = 1;
    b.spikes = 11;
    b.crossbarEnergy = 0.5;
    b.nocPackets = 4;
    b.nocEnergy = 0.75;

    a.merge(b);
    EXPECT_EQ(a.crossbarEvals, 8);
    EXPECT_EQ(a.adcConversions, 11);
    EXPECT_EQ(a.spikes, 18);
    EXPECT_DOUBLE_EQ(a.crossbarEnergy, 2.0);
    EXPECT_EQ(a.nocPackets, 6);
    EXPECT_DOUBLE_EQ(a.nocEnergy, 1.0);

    // Merging a default-constructed stats block is a no-op.
    a.merge(ChipStats());
    EXPECT_EQ(a.crossbarEvals, 8);
    EXPECT_DOUBLE_EQ(a.nocEnergy, 1.0);
}

TEST(ChipAnn, MatchesFunctionalQuantizedNetwork)
{
    SyntheticDigits train_set(1000, 12, 301);
    SyntheticDigits test_set(60, 12, 302);
    Network net = trainedTinyCnn(train_set);
    const auto quant = quantizeNetwork(net, train_set.firstImages(64));

    NebulaChip chip;
    chip.programAnn(net, quant);

    int agree = 0;
    const int n = 25;
    for (int i = 0; i < n; ++i) {
        const Tensor &image = test_set.image(i);
        Tensor chip_logits = chip.runAnn(image);
        Tensor func_logits =
            net.forward(image.reshaped({1, 1, 12, 12}), false);
        ASSERT_TRUE(chip_logits.sameShape(func_logits));
        agree += (chip_logits.argmaxRow(0) == func_logits.argmaxRow(0));
    }
    // The chip path adds crossbar/neuron quantization on top of the
    // functional 4-bit model; predictions should agree almost always.
    EXPECT_GE(agree, n - 2);
}

TEST(ChipAnn, AccuracyCloseToFunctional)
{
    SyntheticDigits train_set(1000, 12, 303);
    SyntheticDigits test_set(80, 12, 304);
    Network net = trainedTinyCnn(train_set);
    const double float_acc = evaluateAccuracy(net, test_set);
    const auto quant = quantizeNetwork(net, train_set.firstImages(64));

    NebulaChip chip;
    chip.programAnn(net, quant);

    int correct = 0;
    for (int i = 0; i < test_set.size(); ++i) {
        Tensor logits = chip.runAnn(test_set.image(i));
        correct += (logits.argmaxRow(0) == test_set.label(i));
    }
    const double chip_acc = correct / static_cast<double>(test_set.size());
    EXPECT_GT(chip_acc, float_acc - 0.10);
    EXPECT_GT(chip_acc, 0.7);
}

TEST(ChipAnn, StatsCounted)
{
    SyntheticDigits train_set(600, 12, 305);
    Network net = trainedTinyCnn(train_set);
    const auto quant = quantizeNetwork(net, train_set.firstImages(32));

    NebulaChip chip;
    chip.programAnn(net, quant);
    chip.runAnn(train_set.image(0));

    const ChipStats &stats = chip.stats();
    // conv: 144 positions x 1 group + linear: 2 groups (216 rows -> 1?).
    EXPECT_GT(stats.crossbarEvals, 100);
    EXPECT_GT(stats.crossbarEnergy, 0.0);
    EXPECT_GT(stats.adcConversions, 0); // output layer readout
    EXPECT_GT(stats.nocPackets, 0);
    EXPECT_GT(stats.nocEnergy, 0.0);
}

TEST(ChipAnn, DeviceVariationDegradesGracefully)
{
    SyntheticDigits train_set(1000, 12, 306);
    SyntheticDigits test_set(60, 12, 307);
    Network net = trainedTinyCnn(train_set);
    const auto quant = quantizeNetwork(net, train_set.firstImages(64));

    NebulaChip noisy({}, /*variation=*/0.10, /*seed=*/9);
    noisy.programAnn(net, quant);
    int correct = 0;
    for (int i = 0; i < test_set.size(); ++i) {
        Tensor logits = noisy.runAnn(test_set.image(i));
        correct += (logits.argmaxRow(0) == test_set.label(i));
    }
    // Sec. IV-D: 10% device variation costs only a little accuracy.
    EXPECT_GT(correct / static_cast<double>(test_set.size()), 0.6);
}

TEST(ChipAnn, MappingExposed)
{
    SyntheticDigits train_set(600, 12, 308);
    Network net = trainedTinyCnn(train_set);
    const auto quant = quantizeNetwork(net, train_set.firstImages(32));
    NebulaChip chip;
    chip.programAnn(net, quant);
    EXPECT_EQ(chip.mapping().layers.size(), 2u);
    EXPECT_EQ(chip.mapping().layers[0].rf, 9);
    EXPECT_EQ(chip.mapping().layers[1].rf, 216);
}

TEST(ChipSnn, MatchesSnnSimulator)
{
    SyntheticDigits train_set(1000, 12, 309);
    SyntheticDigits test_set(40, 12, 310);
    Network net = trainedTinyCnn(train_set);
    const Tensor calibration = train_set.firstImages(64);

    // Two identical converted models (conversion mutates nothing after
    // folding, so converting twice from the same net is deterministic).
    SpikingModel model_a = convertToSnn(net, calibration);
    SpikingModel model_b = convertToSnn(net, calibration);

    SnnSimulator sim(model_a, 1.0, 71);
    NebulaChip chip;
    chip.programSnn(model_b);

    int agree = 0;
    const int n = 15, T = 40;
    for (int i = 0; i < n; ++i) {
        const auto functional = sim.run(test_set.image(i), T);
        const auto on_chip = chip.runSnn(test_set.image(i), T);
        agree += (functional.predictedClass() == on_chip.predictedClass());
    }
    EXPECT_GE(agree, n - 2);
}

TEST(ChipSnn, SpikeStatisticsPopulated)
{
    SyntheticDigits train_set(600, 12, 311);
    Network net = trainedTinyCnn(train_set);
    SpikingModel model = convertToSnn(net, train_set.firstImages(32));

    NebulaChip chip;
    chip.programSnn(model);
    const auto result = chip.runSnn(train_set.image(0), 30);
    EXPECT_EQ(result.timesteps, 30);
    EXPECT_GT(result.totalSpikes, 0);
    EXPECT_EQ(result.ifActivity.size(), 2u); // relu IF + pool IF
    EXPECT_GT(chip.stats().spikes, 0);
    EXPECT_GT(chip.stats().crossbarEvals, 0);
}

TEST(ChipSnn, AccuracyNearAnn)
{
    SyntheticDigits train_set(1000, 12, 312);
    SyntheticDigits test_set(60, 12, 313);
    Network net = trainedTinyCnn(train_set);
    const double ann_acc = evaluateAccuracy(net, test_set);

    SpikingModel model = convertToSnn(net, train_set.firstImages(64));
    NebulaChip chip;
    chip.programSnn(model);

    int correct = 0;
    for (int i = 0; i < test_set.size(); ++i) {
        const auto result = chip.runSnn(test_set.image(i), 50);
        correct += (result.predictedClass() == test_set.label(i));
    }
    const double snn_acc = correct / static_cast<double>(test_set.size());
    EXPECT_GT(snn_acc, ann_acc - 0.15);
}

/** A seeded untrained mlp3 or lenet5, converted on 16 px digits. */
SpikingModel
convertedModel(const std::string &name, const SyntheticDigits &data)
{
    Network net = name == "lenet5" ? buildLenet5(16, 1, 10, /*seed=*/41)
                                   : buildMlp3(16, 1, 10, /*seed=*/41);
    return convertToSnn(net, data.firstImages(12));
}

/** A seeded untrained mlp3 or lenet5, quantized on 16 px digits. */
struct QuantizedModel
{
    Network net;
    QuantizationResult quant;
};

QuantizedModel
quantizedModel(const std::string &name, const SyntheticDigits &data)
{
    QuantizedModel m{name == "lenet5" ? buildLenet5(16, 1, 10, /*seed=*/41)
                                      : buildMlp3(16, 1, 10, /*seed=*/41),
                     {}};
    m.quant = quantizeNetwork(m.net, data.firstImages(12));
    return m;
}

/** Every ChipStats total of two chips, energies included, bit for bit. */
void
expectSameStats(const ChipStats &a, const ChipStats &b)
{
    EXPECT_EQ(a.crossbarEvals, b.crossbarEvals);
    EXPECT_EQ(a.adcConversions, b.adcConversions);
    EXPECT_EQ(a.spikes, b.spikes);
    EXPECT_EQ(a.crossbarEnergy, b.crossbarEnergy);
    EXPECT_EQ(a.nocPackets, b.nocPackets);
    EXPECT_EQ(a.nocEnergy, b.nocEnergy);
    EXPECT_EQ(a.abftChecks, b.abftChecks);
    EXPECT_EQ(a.abftViolations, b.abftViolations);
}

/** Begin events named @p name across every track of @p session. */
long long
countSpans(const obs::TraceSession &session, const std::string &name)
{
    long long n = 0;
    for (const auto &track : session.tracks())
        for (const obs::TraceEvent &e : track.events)
            if (e.phase == obs::TraceEvent::Phase::Begin && e.name == name)
                ++n;
    return n;
}

NebulaConfig
abftConfig()
{
    NebulaConfig config;
    config.abft = true;
    return config;
}

TEST(ChipStats, RegistryDeltasMatchStats)
{
    // Every run publishes the counters it billed: the registry deltas
    // of one request equal its ChipStats deltas, ANN and SNN alike.
    SyntheticDigits data(16, 16, 91);
    auto &registry = obs::MetricsRegistry::global();
    const char *names[] = {"chip.crossbar_evals", "chip.adc_conversions",
                           "abft.checks", "abft.violations"};
    auto expectDeltas = [&](NebulaChip &chip, const auto &run) {
        double reg_before[4];
        for (int k = 0; k < 4; ++k)
            reg_before[k] = registry.counterValue(names[k]);
        const ChipStats before = chip.stats();
        run();
        const ChipStats &after = chip.stats();
        const long long stat_delta[4] = {
            after.crossbarEvals - before.crossbarEvals,
            after.adcConversions - before.adcConversions,
            after.abftChecks - before.abftChecks,
            after.abftViolations - before.abftViolations};
        EXPECT_GT(stat_delta[0], 0);
        EXPECT_GT(stat_delta[2], 0);
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(registry.counterValue(names[k]) - reg_before[k],
                      static_cast<double>(stat_delta[k]))
                << names[k];
    };

    Network ann = buildMlp3(16, 1, 10, /*seed=*/43);
    const QuantizationResult quant =
        quantizeNetwork(ann, data.firstImages(12));
    NebulaChip ann_chip(abftConfig());
    ann_chip.programAnn(ann, quant);
    expectDeltas(ann_chip, [&] { ann_chip.runAnn(data.image(0)); });

    for (const char *model_name : {"mlp3", "lenet5"}) {
        SCOPED_TRACE(model_name);
        SpikingModel model = convertedModel(model_name, data);
        NebulaChip chip(abftConfig());
        chip.programSnn(model);
        expectDeltas(chip, [&] { chip.runSnn(data.image(1), 12, 7); });
    }
}

TEST(ChipSnn, TracingKeepsThePath)
{
    // A traced request runs the same stage loop as an untraced one:
    // results and every ChipStats total (energies included) match
    // bit for bit, and the trace holds one layer.eval span per mapped
    // layer per timestep.
    SyntheticDigits data(16, 16, 93);
    constexpr int kT = 12;
    for (const char *model_name : {"mlp3", "lenet5"}) {
        SCOPED_TRACE(model_name);
        SpikingModel plain_model = convertedModel(model_name, data);
        SpikingModel traced_model = plain_model.clone();
        NebulaChip plain(abftConfig());
        NebulaChip traced(abftConfig());
        plain.programSnn(plain_model);
        traced.programSnn(traced_model);

        obs::TraceSession::start();
        std::vector<SnnRunResult> traced_runs;
        for (int i = 0; i < 2; ++i)
            traced_runs.push_back(traced.runSnn(data.image(i), kT, 11 + i));
        const std::unique_ptr<obs::TraceSession> session =
            obs::TraceSession::stop();

        for (int i = 0; i < 2; ++i) {
            const SnnRunResult want = plain.runSnn(data.image(i), kT, 11 + i);
            const SnnRunResult &got = traced_runs[static_cast<size_t>(i)];
            ASSERT_EQ(got.logits.size(), want.logits.size());
            for (long long k = 0; k < want.logits.size(); ++k)
                EXPECT_EQ(got.logits[k], want.logits[k]);
            EXPECT_EQ(got.ifSpikes, want.ifSpikes);
            EXPECT_EQ(got.ifNeurons, want.ifNeurons);
            EXPECT_EQ(got.ifActivity, want.ifActivity);
            EXPECT_EQ(got.totalSpikes, want.totalSpikes);
            EXPECT_EQ(got.inputRate, want.inputRate);
        }
        const ChipStats &a = traced.stats();
        const ChipStats &b = plain.stats();
        EXPECT_EQ(a.crossbarEvals, b.crossbarEvals);
        EXPECT_EQ(a.adcConversions, b.adcConversions);
        EXPECT_EQ(a.spikes, b.spikes);
        EXPECT_EQ(a.crossbarEnergy, b.crossbarEnergy);
        EXPECT_EQ(a.nocPackets, b.nocPackets);
        EXPECT_EQ(a.nocEnergy, b.nocEnergy);
        EXPECT_EQ(a.abftChecks, b.abftChecks);
        EXPECT_EQ(a.abftViolations, b.abftViolations);
        EXPECT_GT(a.abftChecks, 0);

        ASSERT_NE(session, nullptr);
        long long layer_evals = 0;
        for (const auto &track : session->tracks())
            for (const obs::TraceEvent &e : track.events)
                if (e.phase == obs::TraceEvent::Phase::Begin &&
                    std::string(e.name) == "layer.eval")
                    ++layer_evals;
        EXPECT_EQ(layer_evals, 2LL * kT * traced.mappedLayerCount());
    }

    // The ANN program runs the same stage loop: one layer.eval span per
    // mapped layer per image.
    for (const char *model_name : {"mlp3", "lenet5"}) {
        SCOPED_TRACE(std::string("ann ") + model_name);
        QuantizedModel plain_model = quantizedModel(model_name, data);
        QuantizedModel traced_model = quantizedModel(model_name, data);
        NebulaChip plain(abftConfig());
        NebulaChip traced(abftConfig());
        plain.programAnn(plain_model.net, plain_model.quant);
        traced.programAnn(traced_model.net, traced_model.quant);

        obs::TraceSession::start();
        std::vector<Tensor> traced_logits;
        for (int i = 0; i < 2; ++i)
            traced_logits.push_back(traced.runAnn(data.image(i)));
        const std::unique_ptr<obs::TraceSession> session =
            obs::TraceSession::stop();

        for (int i = 0; i < 2; ++i) {
            const Tensor want = plain.runAnn(data.image(i));
            const Tensor &got = traced_logits[static_cast<size_t>(i)];
            ASSERT_EQ(got.size(), want.size());
            for (long long k = 0; k < want.size(); ++k)
                EXPECT_EQ(got[k], want[k]);
        }
        expectSameStats(traced.stats(), plain.stats());
        EXPECT_GT(traced.stats().abftChecks, 0);
        ASSERT_NE(session, nullptr);
        EXPECT_EQ(countSpans(*session, "layer.eval"),
                  2LL * traced.mappedLayerCount());
    }
}

TEST(Chip, RequiresProgramBeforeRun)
{
    NebulaChip chip;
    Tensor image({1, 12, 12});
    EXPECT_DEATH({ chip.runAnn(image); }, "no ANN programmed");
    EXPECT_DEATH({ chip.runSnn(image, 10); }, "no SNN programmed");

    // Programming one mode does not arm the other mode's run.
    SyntheticDigits data(4, 16, 95);
    SpikingModel model = convertedModel("mlp3", data);
    NebulaChip snn_chip;
    snn_chip.programSnn(model);
    EXPECT_DEATH({ snn_chip.runAnn(data.image(0)); }, "no ANN programmed");
    QuantizedModel ann = quantizedModel("mlp3", data);
    NebulaChip ann_chip;
    ann_chip.programAnn(ann.net, ann.quant);
    EXPECT_DEATH({ ann_chip.runSnn(data.image(0), 10); },
                 "no SNN programmed");
}

} // namespace
} // namespace nebula
