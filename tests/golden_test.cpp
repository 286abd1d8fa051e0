/**
 * @file
 * Golden regression vectors for the three chip execution modes. Each
 * test runs a fixed tiny model on fixed inputs with fixed seeds and
 * compares every number against tests/golden/<name>.txt: integer
 * quantities (spike counts, accumulator operations) must match exactly,
 * floating-point ones within 1e-12 relative -- any behavioural drift in
 * the device/circuit/arch stack fails here even if accuracy metrics
 * happen to survive it.
 *
 * Golden.AnalyticalModels pins the analytical side the same way: the
 * mapping, EnergyModel (ANN, SNN, hybrid), ISAAC/INXS, pipeline and
 * placement figures of four full-size paper topologies.
 *
 * The servable weight artifacts under src/serving/artifacts/ are
 * goldens too: Golden.ServableArtifactsRetrainBitIdentical retrains
 * each shipped prototype from its spec and requires the committed
 * file, and the copy compiled into the library, byte for byte.
 *
 * To regenerate after an *intentional* numeric change:
 *
 *     NEBULA_REGEN_GOLDEN=1 ./build/tests/golden_test
 *
 * and commit the rewritten files together with the change that
 * justifies them (then rebuild, so the library embeds the new
 * artifacts).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/chip.hpp"
#include "arch/energy_model.hpp"
#include "arch/mapping.hpp"
#include "arch/pipeline.hpp"
#include "arch/placement.hpp"
#include "baselines/inxs.hpp"
#include "baselines/isaac.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/quantize.hpp"
#include "runtime/request.hpp"
#include "serving/artifacts.hpp"
#include "serving/models.hpp"
#include "snn/hybrid.hpp"

namespace nebula {
namespace {

constexpr int kImageSize = 10;
constexpr int kClasses = 10;
constexpr int kTimesteps = 12;
constexpr uint64_t kSeedSalt = 2024;

/** Ordered key/value records of one golden scenario. */
using Golden = std::vector<std::pair<std::string, std::string>>;

std::string
goldenPath(const std::string &name)
{
    return std::string(NEBULA_SOURCE_DIR) + "/tests/golden/" + name;
}

bool
regenRequested()
{
    const char *env = std::getenv("NEBULA_REGEN_GOLDEN");
    return env != nullptr && env[0] == '1';
}

std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
addInt(Golden &g, const std::string &key, long long v)
{
    g.emplace_back(key, std::to_string(v));
}

void
addFloat(Golden &g, const std::string &key, double v)
{
    g.emplace_back(key, formatDouble(v));
}

void
addTensor(Golden &g, const std::string &key, const Tensor &t)
{
    for (long long i = 0; i < t.size(); ++i)
        addFloat(g, key + "[" + std::to_string(i) + "]",
                 static_cast<double>(t[i]));
}

/**
 * Every ChipStats total: op counts exactly, energies within the float
 * tolerance -- pins the billing of whichever stages ran, not only their
 * outputs.
 */
void
addStats(Golden &g, const ChipStats &stats)
{
    addInt(g, "stats.crossbar_evals", stats.crossbarEvals);
    addInt(g, "stats.adc_conversions", stats.adcConversions);
    addInt(g, "stats.noc_packets", stats.nocPackets);
    addInt(g, "stats.spikes", stats.spikes);
    addInt(g, "stats.abft_checks", stats.abftChecks);
    addInt(g, "stats.abft_violations", stats.abftViolations);
    addFloat(g, "stats.crossbar_energy", stats.crossbarEnergy);
    addFloat(g, "stats.noc_energy", stats.nocEnergy);
}

void
writeGolden(const std::string &name, const Golden &actual)
{
    std::ofstream file(goldenPath(name), std::ios::trunc);
    ASSERT_TRUE(file.good()) << "cannot write " << goldenPath(name);
    file << "# Golden vectors -- regenerate with NEBULA_REGEN_GOLDEN=1"
         << " ./golden_test\n";
    for (const auto &kv : actual)
        file << kv.first << " " << kv.second << "\n";
}

/**
 * Compare against the committed file. Integer-looking values must match
 * exactly; floats within 1e-12 relative. Missing file instructs how to
 * create it.
 */
void
checkGolden(const std::string &name, const Golden &actual)
{
    if (regenRequested()) {
        writeGolden(name, actual);
        return;
    }
    std::ifstream file(goldenPath(name));
    ASSERT_TRUE(file.good())
        << "missing golden file " << goldenPath(name)
        << " -- generate it with NEBULA_REGEN_GOLDEN=1 ./golden_test";

    Golden expected;
    std::string line;
    while (std::getline(file, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const size_t space = line.find(' ');
        ASSERT_NE(space, std::string::npos) << "malformed line: " << line;
        expected.emplace_back(line.substr(0, space),
                              line.substr(space + 1));
    }

    ASSERT_EQ(expected.size(), actual.size())
        << "golden " << name << " has a different record count -- "
        << "regenerate if the change is intentional";
    for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(expected[i].first, actual[i].first)
            << "golden " << name << " key order changed at record " << i;
        if (expected[i].second == actual[i].second)
            continue;
        // Not textually identical: allow 1e-12 relative for floats,
        // relative to the value itself, so a joule total near 1e-8 is
        // pinned as tightly as a logit (with |want| floored at 1 it
        // could move by 1e-4 of itself).
        const double want = std::strtod(expected[i].second.c_str(), nullptr);
        const double got = std::strtod(actual[i].second.c_str(), nullptr);
        EXPECT_LE(std::abs(got - want),
                  1e-12 * std::max(std::abs(want), 1e-300))
            << "golden " << name << " drifted at " << actual[i].first
            << ": expected " << expected[i].second << ", got "
            << actual[i].second
            << " -- regenerate with NEBULA_REGEN_GOLDEN=1 only if the"
            << " numeric change is intentional";
    }
}

/** Fixed dataset + float/quantized networks shared by the scenarios. */
struct GoldenFixture
{
    SyntheticDigits data{32, kImageSize, /*seed=*/71};
    Network floatNet;
    Network quantNet;
    QuantizationResult quant;

    GoldenFixture()
        : floatNet(buildMlp3(kImageSize, 1, kClasses, /*seed=*/73)),
          quantNet(floatNet.clone()),
          quant(quantizeNetwork(quantNet, data.firstImages(12)))
    {
    }
};

TEST(Golden, AnnLogitsOnChip)
{
    GoldenFixture fix;
    NebulaChip chip;
    chip.programAnn(fix.quantNet, fix.quant);

    Golden g;
    for (int i = 0; i < 3; ++i) {
        const Tensor logits = chip.runAnn(fix.data.image(i));
        addTensor(g, "image" + std::to_string(i) + ".logit", logits);
        addInt(g, "image" + std::to_string(i) + ".class",
               logits.argmaxRow(0));
    }
    addStats(g, chip.stats());
    checkGolden("ann_logits.txt", g);
}

TEST(Golden, ConvAnnOnChip)
{
    // LeNet-5 at 16 px on the ANN path: conv rows through the batched
    // crossbar evaluation (conv1's padded border included), average
    // pooling on the host, then Linear layers, with the ABFT checksum
    // columns on.
    constexpr int kConvImage = 16;
    SyntheticDigits data(16, kConvImage, /*seed=*/89);
    Network net = buildLenet5(kConvImage, 1, kClasses, /*seed=*/97);
    const QuantizationResult quant =
        quantizeNetwork(net, data.firstImages(12));
    NebulaConfig config;
    config.abft = true;
    NebulaChip chip(config);
    chip.programAnn(net, quant);

    Golden g;
    for (int i = 0; i < 3; ++i) {
        const Tensor logits = chip.runAnn(data.image(i));
        addTensor(g, "image" + std::to_string(i) + ".logit", logits);
        addInt(g, "image" + std::to_string(i) + ".class",
               logits.argmaxRow(0));
    }
    addStats(g, chip.stats());
    checkGolden("conv_ann.txt", g);
}

TEST(Golden, SnnSpikeCountsOnChip)
{
    GoldenFixture fix;
    SpikingModel model = convertToSnn(fix.floatNet, fix.data.firstImages(12));
    NebulaChip chip;
    chip.programSnn(model);

    Golden g;
    for (int i = 0; i < 2; ++i) {
        const uint64_t seed =
            deriveRequestSeed(kSeedSalt, static_cast<uint64_t>(i));
        const SnnRunResult r =
            chip.runSnn(fix.data.image(i), kTimesteps, seed);
        const std::string p = "image" + std::to_string(i) + ".";
        addInt(g, p + "total_spikes", r.totalSpikes);
        for (size_t k = 0; k < r.ifSpikes.size(); ++k)
            addInt(g, p + "if" + std::to_string(k) + ".spikes",
                   r.ifSpikes[k]);
        addFloat(g, p + "input_rate", r.inputRate);
        addTensor(g, p + "logit", r.logits);
        addInt(g, p + "class", r.predictedClass());
    }
    addStats(g, chip.stats());
    checkGolden("snn_spikes.txt", g);
}

TEST(Golden, ConvSnnOnChip)
{
    // LeNet-5 at 16 px: conv stages fed by encoder and IF spikes, average
    // pooling with IF after it, then a Linear behind Flatten -- every SNN
    // stage kind the chip compiles, with the ABFT checksum columns on.
    constexpr int kConvImage = 16;
    SyntheticDigits data(16, kConvImage, /*seed=*/79);
    Network net = buildLenet5(kConvImage, 1, kClasses, /*seed=*/83);
    SpikingModel model = convertToSnn(net, data.firstImages(12));
    NebulaConfig config;
    config.abft = true;
    NebulaChip chip(config);
    chip.programSnn(model);

    Golden g;
    for (int i = 0; i < 3; ++i) {
        const uint64_t seed =
            deriveRequestSeed(kSeedSalt, 200 + static_cast<uint64_t>(i));
        const SnnRunResult r =
            chip.runSnn(data.image(i), kTimesteps, seed);
        const std::string p = "image" + std::to_string(i) + ".";
        addInt(g, p + "total_spikes", r.totalSpikes);
        for (size_t k = 0; k < r.ifSpikes.size(); ++k)
            addInt(g, p + "if" + std::to_string(k) + ".spikes",
                   r.ifSpikes[k]);
        addFloat(g, p + "input_rate", r.inputRate);
        addTensor(g, p + "logit", r.logits);
        addInt(g, p + "class", r.predictedClass());
    }
    addStats(g, chip.stats());
    checkGolden("conv_snn.txt", g);
}

/**
 * Conv(1->20) + ReLU -> depthwise 3x3 stride 2 + ReLU -> Flatten ->
 * Linear(500, 10) at 10 px. With 20 channels and 128-row arrays the
 * depthwise layer packs 14 kernels per crossbar: two diagonal groups.
 */
Network
buildDwNet(uint64_t seed)
{
    Rng rng(seed);
    Network net("dwnet");
    net.add<Conv2d>(1, 20, 3, 1, 1)->initKaiming(rng);
    net.add<Relu>();
    net.add<DwConv2d>(20, 3, 2, 1)->initKaiming(rng);
    net.add<Relu>();
    net.add<Flatten>();
    net.add<Linear>(500, kClasses)->initKaiming(rng);
    return net;
}

TEST(Golden, DwConvOnChip)
{
    // Depthwise conv in both chip modes with ABFT on: ANN rows through
    // the neuron units, SNN rows driven by IF spikes.
    SyntheticDigits data(16, kImageSize, /*seed=*/61);
    NebulaConfig config;
    config.abft = true;
    Golden g;

    Network ann = buildDwNet(/*seed=*/67);
    const QuantizationResult quant =
        quantizeNetwork(ann, data.firstImages(12));
    NebulaChip ann_chip(config);
    ann_chip.programAnn(ann, quant);
    for (int i = 0; i < 2; ++i) {
        const Tensor logits = ann_chip.runAnn(data.image(i));
        const std::string p = "ann.image" + std::to_string(i) + ".";
        addTensor(g, p + "logit", logits);
        addInt(g, p + "class", logits.argmaxRow(0));
    }
    addStats(g, ann_chip.stats());

    Network net = buildDwNet(/*seed=*/67);
    SpikingModel model = convertToSnn(net, data.firstImages(12));
    NebulaChip snn_chip(config);
    snn_chip.programSnn(model);
    for (int i = 0; i < 2; ++i) {
        const uint64_t seed =
            deriveRequestSeed(kSeedSalt, 300 + static_cast<uint64_t>(i));
        const SnnRunResult r =
            snn_chip.runSnn(data.image(i), kTimesteps, seed);
        const std::string p = "snn.image" + std::to_string(i) + ".";
        addInt(g, p + "total_spikes", r.totalSpikes);
        for (size_t k = 0; k < r.ifSpikes.size(); ++k)
            addInt(g, p + "if" + std::to_string(k) + ".spikes",
                   r.ifSpikes[k]);
        addTensor(g, p + "logit", r.logits);
        addInt(g, p + "class", r.predictedClass());
    }
    addStats(g, snn_chip.stats());
    checkGolden("dwconv.txt", g);
}

TEST(Golden, HybridAccumulatorSums)
{
    GoldenFixture fix;
    Network ann = fix.floatNet.clone();
    HybridNetwork hybrid(ann, fix.data.firstImages(12), /*ann_layers=*/1);

    Golden g;
    for (int i = 0; i < 2; ++i) {
        const uint64_t seed =
            deriveRequestSeed(kSeedSalt, 100 + static_cast<uint64_t>(i));
        const HybridRunResult r =
            hybrid.run(fix.data.image(i), kTimesteps, seed);
        const std::string p = "image" + std::to_string(i) + ".";
        addInt(g, p + "prefix_spikes", r.prefixSpikes);
        addInt(g, p + "au_accumulations", r.auAccumulations);
        // The logits are a pure function of the AU sums through the ANN
        // suffix, so pinning them pins the accumulator contents.
        addTensor(g, p + "logit", r.logits);
        addInt(g, p + "class", r.predictedClass());
    }
    addInt(g, "boundary_neurons", hybrid.boundaryNeurons());
    checkGolden("hybrid_accum.txt", g);
}

/** Totals, timing and every component joule of one EnergyModel run. */
void
addInferenceEnergy(Golden &g, const std::string &prefix,
                   const InferenceEnergy &e)
{
    addFloat(g, prefix + ".total_j", e.totalEnergy);
    addFloat(g, prefix + ".latency_s", e.latency);
    addFloat(g, prefix + ".peak_w", e.peakPower);
    for (const auto &kv : e.byComponent)
        addFloat(g, prefix + ".j." + kv.first, kv.second);
}

TEST(Golden, AnalyticalModels)
{
    // Full-size paper topologies covering every mapping shape: Linear
    // (mlp3), Conv (lenet5), DwConv (mobilenet) and kernels that spill
    // over several cores through the ADC (vgg13's 512-channel 3x3
    // convs, Rf 4608 > 16M).
    constexpr int kSnnSteps = 300;
    Golden g;
    for (const std::string name : {"mlp3", "lenet5", "vgg13", "mobilenet"}) {
        Network net = buildPaperModel(name);
        const bool mnist = name == "mlp3" || name == "lenet5";
        const int spatial = mnist ? 28 : 32;
        net.forward(Tensor({1, mnist ? 1 : 3, spatial, spatial}));
        const NetworkMapping mapping = LayerMapper().map(net);
        const size_t layers = mapping.layers.size();

        long long adc = 0, ru = 0, dac_rows = 0, outputs = 0;
        for (const LayerMapping &m : mapping.layers) {
            adc += m.adcConversions;
            ru += m.ruAdditions;
            dac_rows += m.dacRowsPerEval;
            outputs += m.outputElements;
        }
        const std::string p = name + ".";
        addInt(g, p + "map.layers", static_cast<long long>(layers));
        addInt(g, p + "map.cores", mapping.totalCores());
        addInt(g, p + "map.acs", mapping.totalAcs());
        addInt(g, p + "map.any_adc", mapping.anyAdc() ? 1 : 0);
        addInt(g, p + "map.adc_conversions", adc);
        addInt(g, p + "map.ru_additions", ru);
        addInt(g, p + "map.dac_rows_per_eval", dac_rows);
        addInt(g, p + "map.output_elements", outputs);

        const EnergyModel model;
        const ActivityProfile uniform = ActivityProfile::uniform(layers, 0.5);
        const ActivityProfile decaying = ActivityProfile::decaying(layers);
        addInferenceEnergy(g, p + "ann", model.evaluateAnn(mapping, uniform));
        addInferenceEnergy(g, p + "snn",
                           model.evaluateSnn(mapping, decaying, kSnnSteps));
        const int split = std::max<int>(1, static_cast<int>(layers) / 2);
        const long long boundary =
            mapping.layers[static_cast<size_t>(split) - 1].outputElements;
        addInferenceEnergy(g, p + "hybrid",
                           model.evaluateHybrid(mapping, decaying, split,
                                                kSnnSteps, boundary,
                                                boundary * 15));

        addFloat(g, p + "isaac4.total_j",
                 IsaacModel().evaluate(mapping, 0.5).totalEnergy);
        addFloat(g, p + "isaac16.total_j",
                 IsaacModel(IsaacConfig::original16bit())
                     .evaluate(mapping, 0.5)
                     .totalEnergy);
        addFloat(g, p + "inxs.total_j",
                 InxsModel()
                     .evaluate(mapping, decaying.inputActivity, kSnnSteps)
                     .totalEnergy);

        const PipelineModel pipeline;
        addInt(g, p + "pipeline.cycles",
               pipeline.networkLatencyCycles(mapping));
        addFloat(g, p + "pipeline.latency_s", pipeline.networkLatency(mapping));
        addFloat(g, p + "pipeline.snn_latency_s",
                 pipeline.networkLatency(mapping, kSnnSteps));

        const ChipPlacer placer;
        addInt(g, p + "place.ann_cores",
               placer.place(mapping, Mode::ANN).coresUsed);
        addInt(g, p + "place.snn_cores",
               placer.place(mapping, Mode::SNN).coresUsed);
    }
    checkGolden("analytical.txt", g);
}

TEST(Golden, ServableArtifactsRetrainBitIdentical)
{
    // The default prototypes the serving examples and benchmark load.
    for (const char *family : {"mlp3", "lenet5"}) {
        serving::ServableModelSpec spec;
        spec.family = family;
        const std::string key = serving::trainingKey(spec);
        Network net = serving::trainServable(spec);
        const std::vector<uint8_t> retrained =
            serving::encodeArtifact(key, net);

        const std::string path = std::string(NEBULA_SOURCE_DIR) +
                                 "/src/serving/artifacts/" + family +
                                 ".artifact";
        if (regenRequested()) {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char *>(retrained.data()),
                      static_cast<std::streamsize>(retrained.size()));
            ASSERT_TRUE(out.good()) << "cannot write " << path;
            continue;
        }
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good()) << "missing artifact " << path
                               << " -- generate it with "
                               << "NEBULA_REGEN_GOLDEN=1 ./golden_test";
        const std::vector<uint8_t> committed(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        EXPECT_TRUE(committed == retrained)
            << family << ": retraining from the spec no longer gives the "
            << "committed weights -- regenerate with NEBULA_REGEN_GOLDEN=1 "
            << "only if the trainer change is intentional";

        const serving::ArtifactView embedded = serving::findArtifact(key);
        ASSERT_NE(embedded.data, nullptr)
            << family << ": no embedded artifact carries " << key;
        EXPECT_TRUE(std::equal(embedded.data, embedded.data + embedded.size,
                               committed.begin(), committed.end()))
            << family << ": the library embeds a stale copy -- rebuild";
    }
}

} // namespace
} // namespace nebula
