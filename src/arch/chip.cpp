#include "arch/chip.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "arch/pipeline.hpp"
#include "common/logging.hpp"
#include "common/simd.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "snn/encoder.hpp"

namespace nebula {

namespace {

/**
 * Publish the static shape of a freshly programmed network into the
 * global metrics registry: fabric occupancy gauges plus per-layer
 * utilization and pipeline depth. Program time only -- never on the
 * inference path.
 */
void
publishMappingMetrics(const char *mode, const NebulaConfig &config,
                      const NetworkMapping &mapping)
{
    auto &registry = obs::MetricsRegistry::global();
    registry.gauge("chip.layers").set(
        static_cast<double>(mapping.layers.size()));
    registry.gauge("chip.cores").set(
        static_cast<double>(mapping.totalCores()));
    registry.gauge("chip.crossbars").set(
        static_cast<double>(mapping.totalAcs()));

    PipelineModel pipeline(config);
    for (const LayerMapping &layer : mapping.layers) {
        const obs::Labels labels = {
            {"layer", std::to_string(layer.layerIndex)}};
        registry.gauge("chip.layer.utilization", labels)
            .set(layer.utilization);
        registry.gauge("chip.layer.pipeline_stages", labels)
            .set(static_cast<double>(pipeline.stagesFor(layer)));
    }
    NEBULA_DEBUG("chip", mode, " programmed: ", mapping.layers.size(),
                 " weight layers on ", mapping.totalCores(), " cores / ",
                 mapping.totalAcs(), " crossbars");
}

/** Give @p t the shape @p dims, allocating only if it has another. */
void
ensureShape(Tensor &t, std::initializer_list<int> dims)
{
    if (!std::ranges::equal(t.shape(), dims))
        t = Tensor(std::vector<int>(dims));
}

/** @p image with a leading batch dimension of 1. */
Tensor
withBatchDim(const Tensor &image)
{
    std::vector<int> shape{1};
    for (int d = 0; d < image.rank(); ++d)
        shape.push_back(image.dim(d));
    return image.reshaped(shape);
}

/**
 * Bill one evaluation's ABFT verdict: the comparison, and the checksum
 * column read-out digitized alongside the data columns (one extra
 * conversion per checked eval). A no-op without ABFT (checks == 0).
 */
void
billCheck(ChipStats &stats, const CrossbarCheck &check)
{
    stats.abftChecks += check.checks;
    stats.abftViolations += check.violations;
    stats.adcConversions += check.checks;
}

} // namespace

void
ChipStats::merge(const ChipStats &other)
{
    crossbarEvals += other.crossbarEvals;
    adcConversions += other.adcConversions;
    spikes += other.spikes;
    crossbarEnergy += other.crossbarEnergy;
    nocPackets += other.nocPackets;
    nocEnergy += other.nocEnergy;
    abftChecks += other.abftChecks;
    abftViolations += other.abftViolations;
}

EnergyBreakdown
estimateEnergyBreakdown(const ChipStats &before, const ChipStats &after,
                        Mode mode)
{
    const ComponentDb &db = componentDb();
    const double cycle = db.cycleTime();
    const double evals =
        static_cast<double>(after.crossbarEvals - before.crossbarEvals);
    const double conversions =
        static_cast<double>(after.adcConversions - before.adcConversions);

    EnergyBreakdown out;
    out.crossbarJ = after.crossbarEnergy - before.crossbarEnergy;
    out.nocJ = after.nocEnergy - before.nocEnergy;
    // One crossbar evaluation keeps its 1/crossbarsPerCore share of the
    // core's driver bank (ANN DAC array vs. SNN spike drivers) and
    // neuron units busy for one cycle; one ADC conversion is one ADC
    // active for one cycle.
    const double driver_power =
        mode == Mode::ANN ? db.annDacPower() : db.snnDriverPower();
    out.driverJ = evals * driver_power / db.crossbarsPerCore() * cycle;
    out.neuronJ = evals * db.neuronUnitPower() / db.crossbarsPerCore() * cycle;
    out.adcJ = conversions * db.adcPower() * cycle;
    return out;
}

NebulaChip::NebulaChip(const NebulaConfig &config, double variation_sigma,
                       uint64_t seed)
    : config_(config), dac_(config.precisionBits, 0.75),
      variationSigma_(variation_sigma), seed_(seed), mapper_(config),
      runSeeds_(seed ^ 0xc41bu)
{
    NocConfig noc_cfg;
    noc_cfg.width = config_.meshWidth;
    noc_cfg.height = config_.meshHeight;
    noc_ = MeshNoc(noc_cfg);
}

void
NebulaChip::programCrossbar(CrossbarArray &xbar,
                            const std::vector<float> &cells)
{
    if (rel_.faults) {
        FaultMap map(xbar.rows(), xbar.cols() + xbar.params().spareCols);
        rel_.faults->sampleInto(
            map, deriveFaultSeed(rel_.faultSeed,
                                 static_cast<uint64_t>(crossbarIndex_)));
        xbar.injectFaults(std::move(map));
    }
    ++crossbarIndex_;

    ProgrammingConfig pc;
    pc.writeVerify = rel_.writeVerify;
    pc.repair = rel_.repair;
    programReport_.merge(xbar.program(cells, pc));
}

float
NebulaChip::mappedWeightScale(int k) const
{
    NEBULA_ASSERT(k >= 0 && k < mappedLayerCount(),
                  "mapped layer index out of range: ", k);
    return layers_[static_cast<size_t>(k)].weightScale;
}

UpdateReport
NebulaChip::updateMappedLayer(int k,
                              const std::vector<WeightCellUpdate> &ups,
                              const ProgrammingConfig &config)
{
    NEBULA_ASSERT(k >= 0 && k < mappedLayerCount(),
                  "mapped layer index out of range: ", k);
    MappedLayer &layer = layers_[static_cast<size_t>(k)];
    NEBULA_ASSERT(layer.dwKernelsPerAc == 0,
                  "incremental updates not supported for diagonal-packed "
                  "depthwise layers");
    obs::TraceSpan span("learning", "layer.update");
    span.arg("layer", static_cast<double>(layer.map.layerIndex));

    const int m = config_.atomicSize;
    const int rf = layer.source->receptiveField();
    const int kernels = layer.source->numKernels();
    const int top = mappedLevels() - 1;

    // Bucket the updates per column group so each crossbar gets one
    // updateCells pass (one cache invalidation per touched group).
    std::vector<std::vector<CellUpdate>> per_group(layer.groups.size());
    for (const WeightCellUpdate &u : ups) {
        NEBULA_ASSERT(u.kernel >= 0 && u.kernel < kernels && u.r >= 0 &&
                          u.r < rf,
                      "weight cell update out of range: kernel ", u.kernel,
                      " r ", u.r);
        const size_t g = static_cast<size_t>(u.kernel / m);
        CrossbarArray &xbar = *layer.groups[g];
        const int col = u.kernel % m;
        const int target = std::clamp(u.targetLevel, 0, top);
        const int delta = target - xbar.levelAt(u.r, col);
        if (delta == 0)
            continue;
        per_group[g].push_back(CellUpdate{u.r, col, delta});
    }

    UpdateReport report;
    for (size_t g = 0; g < per_group.size(); ++g) {
        if (per_group[g].empty())
            continue;
        report.merge(layer.groups[g]->updateCells(per_group[g], config));
    }

    // Host-side bias learning takes effect pulse-free.
    layer.syncBias();

    updateReport_.merge(report);
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("learning.update.cells")
        .inc(static_cast<double>(report.cells));
    registry.counter("learning.update.pulses")
        .inc(static_cast<double>(report.pulses));
    registry.counter("learning.update.energy_j").inc(report.updateEnergy);
    span.arg("cells", static_cast<double>(report.cells));
    span.arg("pulses", static_cast<double>(report.pulses));
    return report;
}

NebulaChip::MappedLayer
NebulaChip::mapWeightLayer(const Layer &layer, int index,
                           float weight_scale, Mode mode)
{
    MappedLayer mapped;
    mapped.source = &layer;
    mapped.map = mapper_.mapLayer(layer, index);
    mapped.weightScale = weight_scale > 0 ? weight_scale : 1.0f;

    CrossbarParams xp;
    xp.levels = 1 << config_.precisionBits;
    xp.readVoltage = mode == Mode::ANN ? 0.75 : 0.25;
    xp.variationSigma = variationSigma_;
    xp.variationSeed = seed_ + static_cast<uint64_t>(index) * 977;
    xp.spareCols = rel_.spareCols;
    xp.abft = config_.abft;

    const int m = config_.atomicSize;
    const Tensor &w = *layer.constParameters()[0];

    const int rf = layer.receptiveField();
    const int kernels = layer.numKernels();

    if (layer.kind() == LayerKind::DwConv && rf <= m) {
        // Diagonal packing: kpa kernels per crossbar, disjoint row blocks.
        const int kpa = std::max(1, m / rf);
        mapped.dwKernelsPerAc = kpa;
        mapped.groupKernels = kpa;
        const int groups = (kernels + kpa - 1) / kpa;
        for (int g = 0; g < groups; ++g) {
            const int local = std::min(kpa, kernels - g * kpa);
            xp.rows = local * rf;
            xp.cols = local;
            std::vector<float> cells(
                static_cast<size_t>(xp.rows) * xp.cols, 0.0f);
            for (int j = 0; j < local; ++j) {
                const int kernel = g * kpa + j;
                for (int r = 0; r < rf; ++r) {
                    cells[static_cast<size_t>(j * rf + r) * xp.cols + j] =
                        w[static_cast<long long>(kernel) * rf + r] /
                        mapped.weightScale;
                }
            }
            auto xbar = std::make_unique<CrossbarArray>(xp);
            programCrossbar(*xbar, cells);
            mapped.groups.push_back(std::move(xbar));
        }
    } else {
        mapped.groupKernels = m;
        const int groups = (kernels + m - 1) / m;
        for (int g = 0; g < groups; ++g) {
            const int local = std::min(m, kernels - g * m);
            xp.rows = rf;
            xp.cols = local;
            std::vector<float> cells(static_cast<size_t>(rf) * local, 0.0f);
            for (int r = 0; r < rf; ++r)
                for (int j = 0; j < local; ++j)
                    cells[static_cast<size_t>(r) * local + j] =
                        w[static_cast<long long>(g * m + j) * rf + r] /
                        mapped.weightScale;
            auto xbar = std::make_unique<CrossbarArray>(xp);
            programCrossbar(*xbar, cells);
            mapped.groups.push_back(std::move(xbar));
        }
    }
    mapped.syncBias();
    return mapped;
}

void
NebulaChip::MappedLayer::syncBias()
{
    const auto params = source->constParameters();
    if (params.size() > 1)
        bias.assign(params[1]->data(), params[1]->data() + params[1]->size());
    else
        bias.assign(static_cast<size_t>(source->numKernels()), 0.0f);
    biasDrive.assign(hasActivation ? groups.size() : 0, {});
    for (size_t g = 0; g < biasDrive.size(); ++g) {
        const double kappa = groups[g]->currentScale();
        const float *b = bias.data() + g * static_cast<size_t>(groupKernels);
        for (int j = 0; j < groups[g]->cols(); ++j)
            biasDrive[g].push_back(kappa * b[j] /
                                   (weightScale * inputCeiling));
    }
}

void
NebulaChip::resetProgram(Network &net, Mode mode)
{
    layers_.clear();
    prog_ = Program();
    prog_.mode = mode;
    mapping_ = mapper_.map(net);
    clearStats();
    programReport_ = ProgramReport();
    updateReport_ = UpdateReport();
    crossbarIndex_ = 0;
}

void
NebulaChip::programAnn(Network &net, const QuantizationResult &quant)
{
    snnModel_ = nullptr;
    resetProgram(net, Mode::ANN);

    auto info = quant.layers.begin();
    for (int i = 0; i < net.numLayers(); ++i) {
        Layer &layer = net.layer(i);
        if (layer.kind() == LayerKind::ClippedRelu)
            continue; // applied by the preceding layer's neuron units
        Stage stage;
        stage.layer = &layer;
        if (layer.isWeightLayer()) {
            NEBULA_ASSERT(info != quant.layers.end() && info->layerIndex == i,
                          "unmapped weight layer");
            MappedLayer mapped =
                mapWeightLayer(layer, i, info->weightMax, Mode::ANN);
            mapped.inputCeiling = info->actCeiling;
            ++info;

            // Output ceiling: the next ClippedRelu before another weight
            // layer, if any.
            for (int j = i + 1; j < net.numLayers(); ++j) {
                if (net.layer(j).isWeightLayer())
                    break;
                NEBULA_ASSERT(net.layer(j).kind() != LayerKind::Relu,
                              "programAnn requires a quantized network");
                if (net.layer(j).kind() == LayerKind::ClippedRelu) {
                    mapped.outputCeiling =
                        static_cast<ClippedRelu &>(net.layer(j)).ceiling();
                    mapped.hasActivation = true;
                    break;
                }
            }

            // One saturating-ReLU neuron unit per column group.
            if (mapped.hasActivation) {
                const double ceiling_alg =
                    mapped.outputCeiling /
                    (mapped.weightScale * mapped.inputCeiling);
                for (auto &group : mapped.groups) {
                    NeuronUnitParams np;
                    np.count = group->cols();
                    np.levels = 1 << config_.precisionBits;
                    np.window = config_.cycleTime;
                    auto nu = std::make_unique<ReluNeuronUnit>(np);
                    nu->calibrate(group->currentScale(), ceiling_alg);
                    mapped.nus.push_back(std::move(nu));
                }
                mapped.syncBias();
            }
            layers_.push_back(std::move(mapped));
            stage.kind = Stage::Kind::Mapped;
            stage.mapped = layers_.size() - 1;
        }
        prog_.stages.push_back(std::move(stage));
    }
    publishMappingMetrics("ann", config_, mapping_);
}

NEBULA_TARGET_CLONES void
NebulaChip::emitGroup(MappedLayer &layer, size_t g, double *currents,
                      int batch, float *out, size_t stride)
{
    const CrossbarArray &xbar = *layer.groups[g];
    const int cols = xbar.cols();
    const size_t offset = g * static_cast<size_t>(layer.groupKernels);
    out += offset * stride;
    if (layer.hasActivation) {
        const double *bias_cur = layer.biasDrive[g].data();
        const float step = layer.outputCeiling / (mappedLevels() - 1);
        std::vector<int> &codes = prog_.codes;
        codes.resize(static_cast<size_t>(batch) * cols);
        for (int b = 0; b < batch; ++b)
            for (int j = 0; j < cols; ++j)
                currents[b * cols + j] += bias_cur[j];
        layer.nus[g]->evaluateInto(currents, batch * cols, codes.data());
        const int *code = codes.data();
        for (int b = 0; b < batch; ++b, code += cols)
            for (int j = 0; j < cols; ++j)
                out[j * stride + b] = code[j] * step;
        return;
    }
    // The division by kappa stays a division, and an input ceiling of 1
    // (spike drivers) multiplies exactly, so every caller rounds alike.
    const double kappa = xbar.currentScale();
    const float *bias = layer.bias.data() + offset;
    for (int b = 0; b < batch; ++b, currents += cols)
        for (int j = 0; j < cols; ++j)
            out[j * stride + b] = static_cast<float>(
                currents[j] / kappa * layer.weightScale * layer.inputCeiling +
                bias[j]);
}

void
NebulaChip::readGroup(MappedLayer &layer, size_t g,
                      const std::vector<double> *window, float *out,
                      size_t stride)
{
    const CrossbarArray &xbar = *layer.groups[g];
    CrossbarEval &eval = prog_.evalWs;
    if (window != nullptr)
        xbar.evaluateIdealInto(*window, config_.cycleTime, eval);
    else
        xbar.evaluateSparseInto(prog_.active, config_.cycleTime, eval);
    ++stats_.crossbarEvals;
    stats_.crossbarEnergy += eval.energy;
    billCheck(stats_, eval.check);
    emitGroup(layer, g, eval.currents.data(), 1, out, stride);
}

void
NebulaChip::evaluateLayer(MappedLayer &layer, const Tensor &input,
                          bool binary, Tensor &output)
{
    obs::TraceSpan span("chip", "layer.eval");
    span.arg("layer", static_cast<double>(layer.map.layerIndex));
    const long long evals_before = stats_.crossbarEvals;

    const Layer &src = *layer.source;
    const bool dw = src.kind() == LayerKind::DwConv;
    const bool conv = dw || src.kind() == LayerKind::Conv;
    NEBULA_ASSERT(conv || src.kind() == LayerKind::Linear,
                  "unsupported weight layer on chip: ", src.name());
    // The ANN conv read takes each element's drive voltage through the
    // im2col table (evaluateIndexed); every other read takes voltage
    // factors.
    const bool indexed = conv && !binary;
    const size_t groups = layer.groups.size();

    // An input element feeds up to k*k overlapping windows, so its
    // clamp, DAC quantization and (indexed) drive run once. One dark
    // entry sits in front of the input, at offset -1: the im2col
    // table's padding index reads it, so a gather never branches.
    std::vector<double> &norm = prog_.inputs;
    norm.resize(static_cast<size_t>(input.size()) + 1);
    norm[0] = 0.0;
    const double *in = norm.data() + 1;
    for (long long i = 0; i < input.size(); ++i) {
        double x = std::clamp(
            static_cast<double>(input[i]) / layer.inputCeiling, 0.0, 1.0);
        if (!binary)
            x = dac_.quantizedOutput(x);
        norm[static_cast<size_t>(i) + 1] =
            indexed ? layer.groups[0]->drive(x) : x;
    }

    const int kernels = src.numKernels();
    std::vector<double> &window = prog_.window;
    if (!conv) {
        NEBULA_ASSERT(input.size() == static_cast<const Linear &>(src)
                                          .inFeatures(),
                      "linear input mismatch on chip");
        window.assign(in, in + input.size());
        ensureShape(output, {1, kernels});
        for (size_t g = 0; g < groups; ++g)
            readGroup(layer, g, &window, output.data(), 1);
    } else {
        NEBULA_ASSERT(!dw || layer.dwKernelsPerAc > 0,
                      "depthwise layer not diagonal-packed");
        const auto geometry = [](const auto &conv) {
            return std::array<int, 3>{conv.kernel(), conv.stride(),
                                      conv.padding()};
        };
        const auto [k, stride, pad] =
            dw ? geometry(static_cast<const DwConv2d &>(src))
               : geometry(static_cast<const Conv2d &>(src));
        const int in_h = input.dim(2), in_w = input.dim(3);
        const int out_h = (in_h + 2 * pad - k) / stride + 1;
        const int out_w = (in_w + 2 * pad - k) / stride + 1;
        const size_t plane = static_cast<size_t>(out_h) * out_w;
        ensureShape(output, {1, kernels, out_h, out_w});
        float *out_p = output.data();

        // im2col tables: the input offset of every window element,
        // window after window in output raster order, -1 where a window
        // covers padding. A Conv window spans every input channel and
        // one table serves all column groups; a diagonal-packed DwConv
        // group's window spans only its own channels, so each group has
        // a table. Built on the first input of each (H, W) and kept on
        // the layer: the ANN read's tiles load their drives through it,
        // and an SNN window is one table walk with no bounds checks.
        if (layer.gatherH != in_h || layer.gatherW != in_w) {
            layer.gather.assign(dw ? groups : 1, {});
            for (size_t t = 0; t < layer.gather.size(); ++t) {
                const int c0 =
                    dw ? static_cast<int>(t) * layer.groupKernels : 0;
                const int c1 =
                    dw ? c0 + layer.groups[t]->cols()
                       : static_cast<const Conv2d &>(src).inChannels();
                std::vector<int> &table = layer.gather[t];
                table.resize(plane * (c1 - c0) * k * k);
                int *idx = table.data();
                for (int oh = 0; oh < out_h; ++oh)
                    for (int ow = 0; ow < out_w; ++ow)
                        for (int c = c0; c < c1; ++c)
                            for (int kh = 0; kh < k; ++kh)
                                for (int kw = 0; kw < k; ++kw) {
                                    const int ih = oh * stride - pad + kh;
                                    const int iw = ow * stride - pad + kw;
                                    *idx++ = ih < 0 || ih >= in_h ||
                                                     iw < 0 || iw >= in_w
                                                 ? -1
                                                 : (c * in_h + ih) * in_w +
                                                       iw;
                                }
            }
            layer.gatherH = in_h;
            layer.gatherW = in_w;
        }
        // The im2col rows of group @p g's windows from window @p first.
        const auto table = [&](size_t g, size_t first) {
            return layer.gather[dw ? g : 0].data() +
                   first * static_cast<size_t>(layer.groups[g]->rows());
        };

        if (indexed) {
            // ANN mode: one output row of windows per crossbar call, so
            // the cached conductance matrix streams once per four
            // windows. Each window's results are bit-identical to its
            // own solo read; the row's energy is one window-order sum.
            prog_.currents.resize(static_cast<size_t>(out_w) *
                                  layer.groupKernels);
            prog_.checks.resize(static_cast<size_t>(out_w));
            for (int oh = 0; oh < out_h; ++oh)
                for (size_t g = 0; g < groups; ++g) {
                    const size_t first = static_cast<size_t>(oh) * out_w;
                    stats_.crossbarEnergy += layer.groups[g]->evaluateIndexed(
                        in, table(g, first), out_w, config_.cycleTime,
                        prog_.currents.data(), prog_.checks.data());
                    stats_.crossbarEvals += out_w;
                    for (const CrossbarCheck &check : prog_.checks)
                        billCheck(stats_, check);
                    emitGroup(layer, g, prog_.currents.data(), out_w,
                              out_p + first, plane);
                }
        } else {
            // SNN mode: one spike window at a time. Its dark rows are
            // skipped and the rest driven at clamp(1.0) * V == V, so
            // the dense read is the spike driver's read bit for bit.
            for (size_t pos = 0; pos < plane; ++pos)
                for (size_t g = 0; g < groups; ++g) {
                    const int *idx = table(g, pos);
                    window.resize(
                        static_cast<size_t>(layer.groups[g]->rows()));
                    for (size_t e = 0; e < window.size(); ++e)
                        window[e] = in[idx[e]];
                    readGroup(layer, g, &window, out_p + pos, plane);
                }
        }
    }
    span.arg("crossbar_evals",
             static_cast<double>(stats_.crossbarEvals - evals_before));
}

Tensor
NebulaChip::runAnn(const Tensor &image)
{
    NEBULA_ASSERT(prog_.mode == Mode::ANN, "no ANN programmed");
    const ChipStats before = stats_;
    Tensor logits = runStages(withBatchDim(image));
    publishRun(before, Mode::ANN);
    return logits;
}

void
NebulaChip::programSnn(SpikingModel &model)
{
    snnModel_ = &model;
    resetProgram(model.net, Mode::SNN);

    // Compile the stage list while mapping. `spikes` tracks whether the
    // signal at this point is a binary spike map (the encoder output or
    // an IF layer's), which is what lets a Linear drive its rows sparsely.
    Network &net = model.net;
    bool spikes = true;
    for (int i = 0; i < net.numLayers(); ++i) {
        Layer &layer = net.layer(i);
        Stage stage;
        stage.layer = &layer;
        if (layer.isWeightLayer()) {
            const Tensor &w = *layer.parameters()[0];
            const float scale = std::max(w.maxAbs(), 1e-6f);
            MappedLayer mapped = mapWeightLayer(layer, i, scale, Mode::SNN);
            mapped.inputCeiling = 1.0f; // binary spike inputs
            layers_.push_back(std::move(mapped));
            stage.mapped = layers_.size() - 1;
            if (spikes && layer.kind() == LayerKind::Linear) {
                stage.kind = Stage::Kind::Sparse;
                stage.out = Tensor({1, layer.numKernels()});
                if (prog_.stages.empty())
                    prog_.sparseInput = true;
                else
                    prog_.stages.back().feedsSparse = true;
            } else {
                stage.kind = Stage::Kind::Mapped;
            }
            spikes = false;
        } else if (spikes && layer.kind() == LayerKind::Flatten &&
                   i + 1 < net.numLayers() &&
                   net.layer(i + 1).kind() == LayerKind::Linear) {
            // Shape-only: the Linear reads the same spikes in the same
            // order straight from the active-row list.
            continue;
        } else {
            if (layer.kind() == LayerKind::If) {
                stage.neuron = &static_cast<IfLayer &>(layer);
                stage.plainIf = stage.neuron->options().leak == 0.0f &&
                                stage.neuron->options().refractory == 0;
            }
            spikes = stage.neuron != nullptr;
        }
        prog_.stages.push_back(std::move(stage));
    }
    publishMappingMetrics("snn", config_, mapping_);
}

void
NebulaChip::runSparseStage(Stage &stage)
{
    MappedLayer &layer = layers_[stage.mapped];
    obs::TraceSpan span("chip", "layer.eval");
    span.arg("layer", static_cast<double>(layer.map.layerIndex));
    for (size_t g = 0; g < layer.groups.size(); ++g)
        readGroup(layer, g, nullptr, stage.out.data(), 1);
    span.arg("crossbar_evals", static_cast<double>(layer.groups.size()));
}

const Tensor &
NebulaChip::runStages(const Tensor &input)
{
    const bool spiking = prog_.mode == Mode::SNN;
    const long long bits_per_output = spiking ? 1 : config_.precisionBits;
    const Tensor *x = &input;
    for (Stage &stage : prog_.stages) {
        switch (stage.kind) {
        case Stage::Kind::Sparse:
            NEBULA_ASSERT(static_cast<const Linear &>(*stage.layer)
                                  .inFeatures() == x->size(),
                          "linear input mismatch on chip");
            runSparseStage(stage);
            break;
        case Stage::Kind::Mapped: {
            MappedLayer &layer = layers_[stage.mapped];
            evaluateLayer(layer, *x, spiking, stage.out);
            if (!spiking && !layer.hasActivation) {
                // Output layer: partial sums digitized by the ADC.
                stats_.adcConversions += stage.out.size();
                obs::recordInstant("chip", "adc.convert");
            }
            break;
        }
        case Stage::Kind::Host:
            if (stage.neuron) {
                stage.neuron->ensureState(x->shape());
                if (!stage.out.sameShape(*x))
                    stage.out = Tensor(x->shape());
                if (stage.plainIf)
                    stage.neuron->stepPlain(x->data(), stage.out.data(),
                                            x->size());
                else
                    stage.neuron->step(x->data(), stage.out.data(),
                                       x->size());
            } else {
                stage.out = stage.layer->forward(*x, false);
            }
            if (stage.feedsSparse) {
                prog_.active.clear();
                const float *sp = stage.out.data();
                for (long long i = 0; i < stage.out.size(); ++i)
                    if (sp[i] != 0.0f)
                        prog_.active.push_back(static_cast<int>(i));
            }
            break;
        }
        x = &stage.out;
        if (stage.kind != Stage::Kind::Host) {
            // Inter-layer traffic to the next core: precisionBits-bit
            // activations, or one spike bit per output.
            const long long bits = x->size() * bits_per_output;
            obs::TraceSpan noc_span("noc", "transfer");
            noc_span.arg("bits", static_cast<double>(bits));
            stats_.nocPackets++;
            stats_.nocEnergy += noc_.transferEnergy({0, 0}, {1, 0}, bits);
        }
    }
    return *x;
}

SnnRunResult
NebulaChip::runSnn(const Tensor &image, int timesteps)
{
    return runSnn(image, timesteps, runSeeds_.next());
}

SnnRunResult
NebulaChip::runSnn(const Tensor &image, int timesteps,
                   uint64_t encoder_seed)
{
    NEBULA_ASSERT(snnModel_, "no SNN programmed");
    NEBULA_ASSERT(timesteps > 0, "need at least one timestep");
    SpikingModel &model = *snnModel_;
    model.resetState();

    PoissonEncoder encoder(1.0, encoder_seed);
    const Tensor input = withBatchDim(image);
    if (prog_.sparseInput)
        encoder.buildPlan(input, prog_.encPlan);

    SnnRunResult result;
    result.timesteps = timesteps;
    long long input_spikes = 0;
    const ChipStats before = stats_;

    for (int t = 0; t < timesteps; ++t) {
        obs::TraceSpan step_span("chip", "timestep");
        step_span.arg("t", static_cast<double>(t));
        {
            obs::TraceSpan encode_span("snn", "encode");
            if (prog_.sparseInput) {
                encoder.encodeActive(prog_.encPlan, prog_.active);
                input_spikes += static_cast<long long>(prog_.active.size());
            } else {
                encoder.encodeInto(input, prog_.spikeBuf);
                input_spikes += static_cast<long long>(prog_.spikeBuf.sum());
            }
        }

        // A Sparse stage reads the active list, so the input only has to
        // stand for the shape of the spikes it was drawn from.
        const Tensor &out =
            runStages(prog_.sparseInput ? input : prog_.spikeBuf);
        obs::TraceSpan acc_span("snn", "accumulate");
        if (t == 0)
            result.logits = out;
        else
            result.logits.add(out);
    }

    result.inputRate =
        static_cast<double>(input_spikes) / (image.size() * timesteps);
    for (size_t k = 0; k < model.ifLayerIndices.size(); ++k) {
        IfLayer &layer = model.ifLayer(static_cast<int>(k));
        result.ifSpikes.push_back(layer.spikeCount());
        result.ifNeurons.push_back(layer.neuronCount());
        result.totalSpikes += layer.spikeCount();
        const double neurons = std::max<long long>(layer.neuronCount(), 1);
        result.ifActivity.push_back(layer.spikeCount() /
                                    (neurons * timesteps));
    }
    stats_.spikes += result.totalSpikes;
    publishRun(before, Mode::SNN);
    return result;
}

void
NebulaChip::publishRun(const ChipStats &before, Mode mode) const
{
    // Each handle is resolved once per process, on the first run that
    // counts it, so a series still appears only when it first counts.
    static obs::Counter &evals =
        obs::MetricsRegistry::global().counter("chip.crossbar_evals");
    static obs::Counter &conversions =
        obs::MetricsRegistry::global().counter("chip.adc_conversions");
    evals.inc(static_cast<double>(stats_.crossbarEvals - before.crossbarEvals));
    conversions.inc(
        static_cast<double>(stats_.adcConversions - before.adcConversions));
    if (mode == Mode::SNN) {
        static obs::Counter &spikes =
            obs::MetricsRegistry::global().counter("chip.spikes");
        spikes.inc(static_cast<double>(stats_.spikes - before.spikes));
    }
    if (config_.abft) {
        static obs::Counter &checks =
            obs::MetricsRegistry::global().counter("abft.checks");
        static obs::Counter &violations =
            obs::MetricsRegistry::global().counter("abft.violations");
        checks.inc(static_cast<double>(stats_.abftChecks - before.abftChecks));
        violations.inc(static_cast<double>(stats_.abftViolations -
                                           before.abftViolations));
    }
}

} // namespace nebula
