#include "arch/chip.hpp"

#include <algorithm>
#include <cmath>

#include "arch/pipeline.hpp"
#include "circuit/driver.hpp"
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

/**
 * Reconstruct real-unit pre-activations from one column group's
 * normalized sums: out[j] = currents[j] / kappa * scale + bias[j].
 * The division by kappa is kept a division (not a reciprocal multiply)
 * so the result stays bit-identical to evaluateLayer()'s binary emit.
 */
NEBULA_TARGET_CLONES void
emitAffine(float *out, const float *bias, const double *currents, int n,
           double kappa, double scale)
{
    for (int j = 0; j < n; ++j)
        out[j] =
            static_cast<float>(currents[j] / kappa * scale + bias[j]);
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
    : config_(config), variationSigma_(variation_sigma), seed_(seed),
      mapper_(config), runSeeds_(seed ^ 0xc41bu)
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
    obs::TraceSpan span("learning", "layer.update", config_.traceChip);
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

    // Bias lives in the digital periphery: re-sync it from the source
    // network so host-side bias learning takes effect pulse-free.
    const auto params = layer.source->constParameters();
    if (params.size() > 1) {
        const Tensor &b = *params[1];
        layer.bias.assign(b.data(), b.data() + b.size());
    }

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
    const auto params = layer.constParameters();
    const Tensor &w = *params[0];
    if (params.size() > 1) {
        const Tensor &b = *params[1];
        mapped.bias.assign(b.data(), b.data() + b.size());
    } else {
        mapped.bias.assign(static_cast<size_t>(layer.numKernels()), 0.0f);
    }

    const int rf = layer.receptiveField();
    const int kernels = layer.numKernels();

    if (layer.kind() == LayerKind::DwConv && rf <= m) {
        // Diagonal packing: kpa kernels per crossbar, disjoint row blocks.
        const int kpa = std::max(1, m / rf);
        mapped.dwKernelsPerAc = kpa;
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
    return mapped;
}

void
NebulaChip::programAnn(Network &net, const QuantizationResult &quant)
{
    annNet_ = &net;
    snnModel_ = nullptr;
    layers_.clear();
    snn_ = SnnProgram();
    mapping_ = mapper_.map(net);
    clearStats();
    programReport_ = ProgramReport();
    updateReport_ = UpdateReport();
    crossbarIndex_ = 0;

    for (const LayerQuantInfo &info : quant.layers) {
        Layer &layer = net.layer(info.layerIndex);
        MappedLayer mapped = mapWeightLayer(layer, info.layerIndex,
                                            info.weightMax, Mode::ANN);
        mapped.inputCeiling = info.actCeiling;

        // Output ceiling: the next ClippedRelu before another weight
        // layer, if any.
        for (int j = info.layerIndex + 1; j < net.numLayers(); ++j) {
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
        }
        layers_.push_back(std::move(mapped));
    }
    publishMappingMetrics("ann", config_, mapping_);
}

Tensor
NebulaChip::evaluateLayer(MappedLayer &layer, const Tensor &input,
                          bool binary)
{
    obs::TraceSpan span("chip", "layer.eval", config_.traceChip);
    span.arg("layer", static_cast<double>(layer.map.layerIndex));
    const long long evals_before = stats_.crossbarEvals;

    const Layer &src = *layer.source;
    const DacDriver dac(config_.precisionBits, 0.75);
    const float in_ceiling = binary ? 1.0f : layer.inputCeiling;
    const int levels = 1 << config_.precisionBits;
    const float step = layer.hasActivation
                           ? layer.outputCeiling / (levels - 1)
                           : 0.0f;

    // DAC code -> voltage-factor table: the second half of the
    // normalize chain depends only on the 4-bit code, so the divide is
    // hoisted to one table build per layer (same expression per entry).
    std::vector<double> dac_out(static_cast<size_t>(levels));
    for (int c = 0; c < levels; ++c)
        dac_out[static_cast<size_t>(c)] = dac.normalizedOutput(c);

    // Per-column periphery bias drive, window-invariant: hoisted so the
    // divide runs once per column per layer instead of once per column
    // per window (the expression is kept verbatim, so injected values
    // are bit-identical).
    std::vector<std::vector<double>> bias_drive(layer.groups.size());
    auto biasDrive = [&](size_t g, int group_offset,
                         double kappa) -> const double * {
        auto &bd = bias_drive[g];
        if (bd.empty()) {
            const int cols = layer.groups[g]->cols();
            bd.resize(static_cast<size_t>(cols));
            for (int j = 0; j < cols; ++j)
                bd[static_cast<size_t>(j)] =
                    kappa *
                    layer.bias[static_cast<size_t>(group_offset + j)] /
                    (layer.weightScale * in_ceiling);
        }
        return bd.data();
    };
    // Output-level scratch shared by every neuron-unit call this layer.
    std::vector<int> codes;

    // A conv input element is gathered into up to k*k overlapping
    // windows, so the clamp + DAC quantization runs once per element.
    // One dark entry sits in front of the input, at offset -1: the
    // im2col table's padding index reads it, so a gather never branches.
    std::vector<double> norm(static_cast<size_t>(input.size()) + 1, 0.0);
    const double *in = norm.data() + 1;
    for (long long i = 0; i < input.size(); ++i) {
        double x =
            std::clamp(static_cast<double>(input[i]) / in_ceiling, 0.0, 1.0);
        if (!binary)
            x = dac_out[static_cast<size_t>(dac.quantize(x))];
        norm[static_cast<size_t>(i) + 1] = x;
    }
    auto normAt = [&](long long i) { return in[i]; };

    /**
     * Collect the ascending active-row list of a spike window for the
     * sparse driver path. Returns false (dense fallback) if any nonzero
     * entry is not exactly 1.0 -- e.g. fractional values downstream of
     * an averaging layer -- since evaluateSparse assumes unit drivers.
     */
    auto binaryActive = [](const std::vector<double> &window,
                           SpikeVector &active) {
        active.clear();
        for (size_t r = 0; r < window.size(); ++r) {
            if (window[r] == 0.0)
                continue;
            if (window[r] != 1.0)
                return false;
            active.push_back(static_cast<int>(r));
        }
        return true;
    };

    /**
     * Evaluate one column group for one input window and emit
     * (kernel, value) pairs. With a following activation the column
     * currents (plus the periphery bias injection) pass through the
     * group's saturating-ReLU neuron unit; otherwise the raw weighted
     * sum is reconstructed in real units for the ADC/RU path.
     */
    auto evalGroup = [&](size_t g, int group_offset, bool use_nu,
                         const std::vector<double> &window,
                         const SpikeVector *active, auto &&emit) {
        CrossbarArray &xbar = *layer.groups[g];
        auto eval = active != nullptr
                        ? xbar.evaluateSparse(*active, config_.cycleTime)
                        : xbar.evaluateIdeal(window, config_.cycleTime);
        ++stats_.crossbarEvals;
        stats_.crossbarEnergy += eval.energy;
        billCheck(stats_, eval.check);
        const double kappa = xbar.currentScale();
        if (use_nu) {
            // The eval result is ours by value: inject the periphery
            // bias current in place instead of copying the column.
            std::vector<double> &currents = eval.currents;
            const double *bias_cur = biasDrive(g, group_offset, kappa);
            const int cols = xbar.cols();
            for (int j = 0; j < cols; ++j)
                currents[static_cast<size_t>(j)] += bias_cur[j];
            codes.resize(static_cast<size_t>(cols));
            layer.nus[g]->evaluateInto(currents.data(), cols,
                                       codes.data());
            for (int j = 0; j < cols; ++j)
                emit(group_offset + j,
                     codes[static_cast<size_t>(j)] * step);
        } else {
            for (int j = 0; j < xbar.cols(); ++j) {
                const double sum_norm =
                    eval.currents[static_cast<size_t>(j)] / kappa;
                emit(group_offset + j,
                     static_cast<float>(
                         sum_norm * layer.weightScale * in_ceiling +
                         layer.bias[static_cast<size_t>(group_offset + j)]));
            }
        }
    };

    /**
     * Batched form of evalGroup: @p batch windows (row-major
     * batch x rows) through one evaluateIdealBatch call, emitting
     * (window, kernel, value). Per-window arithmetic is the same
     * expression sequence as evalGroup, so results are bit-identical to
     * @p batch separate calls -- only the matrix traffic is amortized.
     */
    std::vector<double> batch_currents;
    auto evalGroupBatch = [&](size_t g, int group_offset, bool use_nu,
                              const std::vector<double> &windows,
                              int batch, auto &&emit) {
        CrossbarArray &xbar = *layer.groups[g];
        const CrossbarBatchEval eval =
            xbar.evaluateIdealBatch(windows, batch, config_.cycleTime);
        stats_.crossbarEvals += batch;
        stats_.crossbarEnergy += eval.energy;
        for (const CrossbarCheck &check : eval.checks)
            billCheck(stats_, check);
        const double kappa = xbar.currentScale();
        const int cols = xbar.cols();
        std::vector<double> &currents = batch_currents;
        currents.resize(static_cast<size_t>(cols));
        for (int b = 0; b < batch; ++b) {
            const double *cur =
                eval.currents.data() + static_cast<size_t>(b) * cols;
            if (use_nu) {
                const double *bias_cur =
                    biasDrive(g, group_offset, kappa);
                for (int j = 0; j < cols; ++j)
                    currents[static_cast<size_t>(j)] =
                        cur[j] + bias_cur[j];
                codes.resize(static_cast<size_t>(cols));
                layer.nus[g]->evaluateInto(currents.data(), cols,
                                           codes.data());
                for (int j = 0; j < cols; ++j)
                    emit(b, group_offset + j,
                         codes[static_cast<size_t>(j)] * step);
            } else {
                for (int j = 0; j < cols; ++j) {
                    const double sum_norm = cur[j] / kappa;
                    emit(b, group_offset + j,
                         static_cast<float>(
                             sum_norm * layer.weightScale * in_ceiling +
                             layer.bias[static_cast<size_t>(group_offset +
                                                            j)]));
                }
            }
        }
    };

    const bool use_nu = layer.hasActivation && !binary;
    const int kernels = src.numKernels();
    Tensor output;

    if (src.kind() == LayerKind::Linear) {
        const auto &fc = static_cast<const Linear &>(src);
        NEBULA_ASSERT(input.size() == fc.inFeatures(),
                      "linear input mismatch on chip");
        std::vector<double> window(static_cast<size_t>(fc.inFeatures()));
        for (long long i = 0; i < input.size(); ++i)
            window[static_cast<size_t>(i)] = normAt(i);

        SpikeVector active;
        const SpikeVector *spikes =
            binary && binaryActive(window, active) ? &active : nullptr;
        output = Tensor({1, kernels});
        float *out_p = output.data();
        for (size_t g = 0; g < layer.groups.size(); ++g)
            evalGroup(g, static_cast<int>(g) * config_.atomicSize, use_nu,
                      window, spikes, [&](int kernel, float value) {
                          out_p[kernel] = value;
                      });
    } else if (src.kind() == LayerKind::Conv) {
        const auto &conv = static_cast<const Conv2d &>(src);
        const int k = conv.kernel(), stride = conv.stride(),
                  pad = conv.padding();
        const int in_c = conv.inChannels();
        const int in_h = input.dim(2), in_w = input.dim(3);
        const int out_h = (in_h + 2 * pad - k) / stride + 1;
        const int out_w = (in_w + 2 * pad - k) / stride + 1;

        output = Tensor({1, kernels, out_h, out_w});
        float *out_p = output.data();
        const int rf_conv = conv.receptiveField();

        // im2col table: the input offset of every window element,
        // window after window in output raster order, -1 where a window
        // covers padding. Built on the first input of each (H, W) and
        // kept on the layer; a gather is then one table walk with no
        // bounds checks, shared by the ANN rows and the SNN windows.
        if (layer.gatherH != in_h || layer.gatherW != in_w) {
            layer.gather.resize(static_cast<size_t>(out_h) * out_w *
                                rf_conv);
            int *idx = layer.gather.data();
            for (int oh = 0; oh < out_h; ++oh)
                for (int ow = 0; ow < out_w; ++ow)
                    for (int c = 0; c < in_c; ++c)
                        for (int kh = 0; kh < k; ++kh)
                            for (int kw = 0; kw < k; ++kw) {
                                const int ih = oh * stride - pad + kh;
                                const int iw = ow * stride - pad + kw;
                                *idx++ = ih < 0 || ih >= in_h || iw < 0 ||
                                                 iw >= in_w
                                             ? -1
                                             : (c * in_h + ih) * in_w + iw;
                            }
            layer.gatherH = in_h;
            layer.gatherW = in_w;
        }
        // Gather @p count consecutive windows from window @p first on.
        auto gatherWindows = [&](int first, int count, double *windows) {
            const int *idx =
                layer.gather.data() + static_cast<size_t>(first) * rf_conv;
            const size_t n = static_cast<size_t>(count) * rf_conv;
            for (size_t e = 0; e < n; ++e)
                windows[e] = in[idx[e]];
        };

        if (!binary) {
            // ANN mode: batch one output row of windows per crossbar
            // call so the cached conductance matrix streams once per
            // out_w windows instead of once per window.
            std::vector<double> windows(
                static_cast<size_t>(out_w) * rf_conv);
            for (int oh = 0; oh < out_h; ++oh) {
                gatherWindows(oh * out_w, out_w, windows.data());
                for (size_t g = 0; g < layer.groups.size(); ++g)
                    evalGroupBatch(
                        g, static_cast<int>(g) * config_.atomicSize,
                        use_nu, windows, out_w,
                        [&](int ow, int kernel, float value) {
                            out_p[(static_cast<size_t>(kernel) * out_h +
                                   oh) *
                                      out_w +
                                  ow] = value;
                        });
            }
        } else {
            std::vector<double> window(static_cast<size_t>(rf_conv));
            SpikeVector active;
            for (int oh = 0; oh < out_h; ++oh) {
                for (int ow = 0; ow < out_w; ++ow) {
                    gatherWindows(oh * out_w + ow, 1, window.data());
                    const SpikeVector *spikes =
                        binaryActive(window, active) ? &active : nullptr;
                    for (size_t g = 0; g < layer.groups.size(); ++g)
                        evalGroup(g,
                                  static_cast<int>(g) * config_.atomicSize,
                                  use_nu, window, spikes,
                                  [&](int kernel, float value) {
                                      out_p[(static_cast<size_t>(kernel) *
                                                 out_h +
                                             oh) *
                                                out_w +
                                            ow] = value;
                                  });
                }
            }
        }
    } else if (src.kind() == LayerKind::DwConv) {
        const auto &conv = static_cast<const DwConv2d &>(src);
        const int k = conv.kernel(), stride = conv.stride(),
                  pad = conv.padding();
        const int channels = conv.channels();
        const int in_h = input.dim(2), in_w = input.dim(3);
        const int out_h = (in_h + 2 * pad - k) / stride + 1;
        const int out_w = (in_w + 2 * pad - k) / stride + 1;
        const int kpa = layer.dwKernelsPerAc;
        NEBULA_ASSERT(kpa > 0, "depthwise layer not diagonal-packed");

        output = Tensor({1, channels, out_h, out_w});
        float *out_p = output.data();
        SpikeVector active;
        for (int oh = 0; oh < out_h; ++oh) {
            for (int ow = 0; ow < out_w; ++ow) {
                for (size_t g = 0; g < layer.groups.size(); ++g) {
                    CrossbarArray &xbar = *layer.groups[g];
                    const int local = xbar.cols();
                    std::vector<double> window(
                        static_cast<size_t>(xbar.rows()), 0.0);
                    for (int j = 0; j < local; ++j) {
                        const int c = static_cast<int>(g) * kpa + j;
                        size_t r = static_cast<size_t>(j) * k * k;
                        for (int kh = 0; kh < k; ++kh)
                            for (int kw = 0; kw < k; ++kw, ++r) {
                                const int ih = oh * stride - pad + kh;
                                const int iw = ow * stride - pad + kw;
                                window[r] =
                                    (ih < 0 || ih >= in_h || iw < 0 ||
                                     iw >= in_w)
                                        ? 0.0
                                        : normAt((static_cast<long long>(
                                                      c) *
                                                      in_h +
                                                  ih) *
                                                     in_w +
                                                 iw);
                            }
                    }
                    const SpikeVector *spikes =
                        binary && binaryActive(window, active) ? &active
                                                               : nullptr;
                    evalGroup(g, static_cast<int>(g) * kpa, use_nu, window,
                              spikes, [&](int kernel, float value) {
                                  out_p[(static_cast<size_t>(kernel) *
                                             out_h +
                                         oh) *
                                            out_w +
                                        ow] = value;
                              });
                }
            }
        }
    } else {
        NEBULA_PANIC("unsupported weight layer on chip: ", src.name());
    }
    span.arg("crossbar_evals",
             static_cast<double>(stats_.crossbarEvals - evals_before));
    return output;
}

Tensor
NebulaChip::runAnn(const Tensor &image)
{
    NEBULA_ASSERT(annNet_, "no ANN programmed");
    Network &net = *annNet_;

    std::vector<int> batched;
    batched.push_back(1);
    for (int d = 0; d < image.rank(); ++d)
        batched.push_back(image.dim(d));
    Tensor x = image.reshaped(batched);

    const ChipStats before = stats_;
    size_t next_mapped = 0;
    for (int i = 0; i < net.numLayers(); ++i) {
        Layer &layer = net.layer(i);
        if (layer.isWeightLayer()) {
            NEBULA_ASSERT(next_mapped < layers_.size(),
                          "unmapped weight layer");
            MappedLayer &mapped = layers_[next_mapped++];
            x = evaluateLayer(mapped, x, false);
            if (!mapped.hasActivation) {
                // Output layer: partial sums digitized by the ADC.
                stats_.adcConversions += x.size();
                obs::recordInstant("chip", "adc.convert",
                                   config_.traceChip);
            }
            // Inter-layer traffic: 4-bit activations to the next core.
            obs::TraceSpan noc_span("noc", "transfer", config_.traceChip);
            noc_span.arg("bits", static_cast<double>(
                                     x.size() * config_.precisionBits));
            stats_.nocPackets++;
            stats_.nocEnergy += noc_.transferEnergy(
                {0, 0}, {1, 0}, x.size() * config_.precisionBits);
        } else if (layer.kind() == LayerKind::ClippedRelu) {
            // Already applied by the preceding layer's neuron units.
            continue;
        } else {
            x = layer.forward(x, false);
        }
    }
    publishRun(before, Mode::ANN);
    return x;
}

void
NebulaChip::programSnn(SpikingModel &model)
{
    snnModel_ = &model;
    annNet_ = nullptr;
    layers_.clear();
    snn_ = SnnProgram();
    mapping_ = mapper_.map(model.net);
    clearStats();
    programReport_ = ProgramReport();
    updateReport_ = UpdateReport();
    crossbarIndex_ = 0;

    // Compile the stage list while mapping. `spikes` tracks whether the
    // signal at this point is a binary spike map (the encoder output or
    // an IF layer's), which is what lets a Linear drive its rows sparsely.
    Network &net = model.net;
    bool spikes = true;
    for (int i = 0; i < net.numLayers(); ++i) {
        Layer &layer = net.layer(i);
        SnnStage stage;
        stage.layer = &layer;
        if (layer.isWeightLayer()) {
            const Tensor &w = *layer.parameters()[0];
            const float scale = std::max(w.maxAbs(), 1e-6f);
            MappedLayer mapped = mapWeightLayer(layer, i, scale, Mode::SNN);
            mapped.inputCeiling = 1.0f; // binary spike inputs
            layers_.push_back(std::move(mapped));
            stage.mapped = layers_.size() - 1;
            if (spikes && layer.kind() == LayerKind::Linear) {
                stage.kind = SnnStage::Kind::Sparse;
                stage.out = Tensor({1, layer.numKernels()});
                if (snn_.stages.empty())
                    snn_.sparseInput = true;
                else
                    snn_.stages.back().feedsSparse = true;
            } else {
                stage.kind = SnnStage::Kind::Mapped;
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
        snn_.stages.push_back(std::move(stage));
    }
    publishMappingMetrics("snn", config_, mapping_);
}

void
NebulaChip::runSparseStage(SnnStage &stage)
{
    MappedLayer &layer = layers_[stage.mapped];
    obs::TraceSpan span("chip", "layer.eval", config_.traceChip);
    span.arg("layer", static_cast<double>(layer.map.layerIndex));
    float *out = stage.out.data();
    for (size_t g = 0; g < layer.groups.size(); ++g) {
        CrossbarArray &xbar = *layer.groups[g];
        xbar.evaluateSparseInto(snn_.active, config_.cycleTime, snn_.evalWs);
        ++stats_.crossbarEvals;
        stats_.crossbarEnergy += snn_.evalWs.energy;
        billCheck(stats_, snn_.evalWs.check);
        // Binary drivers: in_ceiling == 1 exactly, so evaluateLayer()'s
        // emit reduces to emitAffine() bit for bit.
        const int group_offset = static_cast<int>(g) * config_.atomicSize;
        emitAffine(out + group_offset, layer.bias.data() + group_offset,
                   snn_.evalWs.currents.data(), xbar.cols(),
                   xbar.currentScale(), static_cast<double>(layer.weightScale));
    }
    span.arg("crossbar_evals", static_cast<double>(layer.groups.size()));
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
    std::vector<int> batched;
    batched.push_back(1);
    for (int d = 0; d < image.rank(); ++d)
        batched.push_back(image.dim(d));
    const Tensor input = image.reshaped(batched);
    if (snn_.sparseInput)
        encoder.buildPlan(input, snn_.encPlan);

    SnnRunResult result;
    result.timesteps = timesteps;
    long long input_spikes = 0;
    const ChipStats before = stats_;

    for (int t = 0; t < timesteps; ++t) {
        obs::TraceSpan step_span("chip", "timestep", config_.traceChip);
        step_span.arg("t", static_cast<double>(t));
        {
            obs::TraceSpan encode_span("snn", "encode", config_.traceChip);
            if (snn_.sparseInput) {
                encoder.encodeActive(snn_.encPlan, snn_.active);
                input_spikes += static_cast<long long>(snn_.active.size());
            } else {
                encoder.encodeInto(input, snn_.spikeBuf);
                input_spikes += static_cast<long long>(snn_.spikeBuf.sum());
            }
        }

        // A Sparse stage reads the active list, so x only has to stand
        // for the shape of the spikes it was drawn from.
        const Tensor *x = snn_.sparseInput ? &input : &snn_.spikeBuf;
        for (SnnStage &stage : snn_.stages) {
            switch (stage.kind) {
            case SnnStage::Kind::Sparse:
                NEBULA_ASSERT(static_cast<const Linear &>(*stage.layer)
                                      .inFeatures() == x->size(),
                              "linear input mismatch on chip");
                runSparseStage(stage);
                break;
            case SnnStage::Kind::Mapped:
                stage.out = evaluateLayer(layers_[stage.mapped], *x, true);
                break;
            case SnnStage::Kind::Host:
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
                    snn_.active.clear();
                    const float *sp = stage.out.data();
                    for (long long i = 0; i < stage.out.size(); ++i)
                        if (sp[i] != 0.0f)
                            snn_.active.push_back(static_cast<int>(i));
                }
                break;
            }
            x = &stage.out;
            if (stage.kind != SnnStage::Kind::Host) {
                // Inter-layer traffic: one spike bit per output to the
                // next core.
                obs::TraceSpan noc_span("noc", "transfer",
                                        config_.traceChip);
                noc_span.arg("bits", static_cast<double>(x->size()));
                stats_.nocPackets++;
                stats_.nocEnergy +=
                    noc_.transferEnergy({0, 0}, {1, 0}, x->size());
            }
        }
        obs::TraceSpan acc_span("snn", "accumulate", config_.traceChip);
        if (t == 0)
            result.logits = *x;
        else
            result.logits.add(*x);
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
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("chip.crossbar_evals")
        .inc(static_cast<double>(stats_.crossbarEvals - before.crossbarEvals));
    registry.counter("chip.adc_conversions")
        .inc(static_cast<double>(stats_.adcConversions -
                                 before.adcConversions));
    if (mode == Mode::SNN)
        registry.counter("chip.spikes")
            .inc(static_cast<double>(stats_.spikes - before.spikes));
    if (config_.abft) {
        registry.counter("abft.checks")
            .inc(static_cast<double>(stats_.abftChecks - before.abftChecks));
        registry.counter("abft.violations")
            .inc(static_cast<double>(stats_.abftViolations -
                                     before.abftViolations));
    }
}

} // namespace nebula
