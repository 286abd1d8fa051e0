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
 * so the result stays bit-identical to the generic walk's emit.
 */
NEBULA_TARGET_CLONES void
emitAffine(float *out, const float *bias, const double *currents, int n,
           double kappa, double scale)
{
    for (int j = 0; j < n; ++j)
        out[j] =
            static_cast<float>(currents[j] / kappa * scale + bias[j]);
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
    xp.fastEval = config_.fastEval;
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
    fastPlan_ = SnnFastPlan();
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

    auto normalize = [&](float v) {
        double x =
            std::clamp(static_cast<double>(v) / in_ceiling, 0.0, 1.0);
        if (!binary)
            x = dac_out[static_cast<size_t>(dac.quantize(x))];
        return x;
    };

    const bool fast = config_.fastEval;

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

    // Fast path: a conv input element is gathered into up to k*k
    // overlapping windows; run the clamp + DAC quantization once per
    // element instead of once per gather. Same values, fewer ops.
    std::vector<double> norm;
    if (fast) {
        norm.resize(static_cast<size_t>(input.size()));
        for (long long i = 0; i < input.size(); ++i)
            norm[static_cast<size_t>(i)] = normalize(input[i]);
    }
    auto normAt = [&](long long i) {
        return fast ? norm[static_cast<size_t>(i)] : normalize(input[i]);
    };

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
        if (config_.abft) {
            stats_.abftChecks += eval.check.checks;
            stats_.abftViolations += eval.check.violations;
            // The checksum column read-out is digitized alongside the
            // data columns: one extra conversion per checked eval.
            stats_.adcConversions += eval.check.checks;
        }
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
        if (config_.abft) {
            for (const CrossbarCheck &check : eval.checks) {
                stats_.abftChecks += check.checks;
                stats_.abftViolations += check.violations;
                stats_.adcConversions += check.checks;
            }
        }
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
            fast && binary && binaryActive(window, active) ? &active
                                                           : nullptr;
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

        auto gatherWindow = [&](int oh, int ow, double *window) {
            size_t r = 0;
            for (int c = 0; c < in_c; ++c)
                for (int kh = 0; kh < k; ++kh)
                    for (int kw = 0; kw < k; ++kw, ++r) {
                        const int ih = oh * stride - pad + kh;
                        const int iw = ow * stride - pad + kw;
                        window[r] =
                            (ih < 0 || ih >= in_h || iw < 0 || iw >= in_w)
                                ? 0.0
                                : normAt((static_cast<long long>(c) *
                                              in_h +
                                          ih) *
                                             in_w +
                                         iw);
                    }
        };

        if (fast && !binary) {
            // ANN mode: batch one output row of windows per crossbar
            // call so the cached conductance matrix streams once per
            // out_w windows instead of once per window.
            std::vector<double> windows(
                static_cast<size_t>(out_w) * rf_conv);
            for (int oh = 0; oh < out_h; ++oh) {
                for (int ow = 0; ow < out_w; ++ow)
                    gatherWindow(oh, ow,
                                 windows.data() +
                                     static_cast<size_t>(ow) * rf_conv);
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
                    gatherWindow(oh, ow, window.data());
                    const SpikeVector *spikes =
                        fast && binary && binaryActive(window, active)
                            ? &active
                            : nullptr;
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
                        fast && binary && binaryActive(window, active)
                            ? &active
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

    const long long evals_before = stats_.crossbarEvals;
    const long long adc_before = stats_.adcConversions;
    const long long checks_before = stats_.abftChecks;
    const long long violations_before = stats_.abftViolations;

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
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("chip.crossbar_evals")
        .inc(static_cast<double>(stats_.crossbarEvals - evals_before));
    registry.counter("chip.adc_conversions")
        .inc(static_cast<double>(stats_.adcConversions - adc_before));
    if (config_.abft) {
        registry.counter("abft.checks")
            .inc(static_cast<double>(stats_.abftChecks - checks_before));
        registry.counter("abft.violations")
            .inc(static_cast<double>(stats_.abftViolations -
                                     violations_before));
    }
    return x;
}

void
NebulaChip::programSnn(SpikingModel &model)
{
    snnModel_ = &model;
    annNet_ = nullptr;
    layers_.clear();
    mapping_ = mapper_.map(model.net);
    clearStats();
    programReport_ = ProgramReport();
    updateReport_ = UpdateReport();
    crossbarIndex_ = 0;

    for (int i = 0; i < model.net.numLayers(); ++i) {
        Layer &layer = model.net.layer(i);
        if (!layer.isWeightLayer())
            continue;
        const Tensor &w = *layer.parameters()[0];
        const float scale = std::max(w.maxAbs(), 1e-6f);
        MappedLayer mapped = mapWeightLayer(layer, i, scale, Mode::SNN);
        mapped.inputCeiling = 1.0f; // binary spike inputs
        layers_.push_back(std::move(mapped));
    }
    buildSnnFastPlan();
    publishMappingMetrics("snn", config_, mapping_);
}

void
NebulaChip::buildSnnFastPlan()
{
    fastPlan_ = SnnFastPlan();
    if (!snnModel_)
        return;
    Network &net = snnModel_->net;

    std::vector<SnnFastStage> stages;
    size_t next_mapped = 0;
    long long in_features = -1;
    long long prev_features = -1;
    for (int i = 0; i < net.numLayers(); ++i) {
        Layer &layer = net.layer(i);
        switch (layer.kind()) {
        case LayerKind::Flatten:
            // Shape-only; spike values pass through untouched.
            break;
        case LayerKind::Linear: {
            const auto &fc = static_cast<const Linear &>(layer);
            // Every stage but the last must feed an IF layer: only then
            // is the next stage's input a binary spike map the sparse
            // driver path may assume.
            if (!stages.empty() && stages.back().ifAfter == nullptr)
                return;
            if (prev_features >= 0 && fc.inFeatures() != prev_features)
                return;
            if (in_features < 0)
                in_features = fc.inFeatures();
            SnnFastStage stage;
            stage.layerIndex = next_mapped++;
            stage.features = fc.numKernels();
            stage.nocEnergy =
                noc_.transferEnergy({0, 0}, {1, 0}, stage.features);
            stage.preAct = Tensor({1, stage.features});
            prev_features = stage.features;
            stages.push_back(std::move(stage));
            break;
        }
        case LayerKind::If: {
            if (stages.empty() || stages.back().ifAfter != nullptr)
                return;
            auto &neuron = static_cast<IfLayer &>(layer);
            stages.back().ifAfter = &neuron;
            stages.back().plainIf = neuron.options().leak == 0.0f &&
                                    neuron.options().refractory == 0;
            stages.back().spikes = Tensor({1, stages.back().features});
            break;
        }
        default:
            return; // unsupported topology: keep the generic walk
        }
    }
    if (stages.empty() || next_mapped != layers_.size())
        return;

    fastPlan_.inFeatures = in_features;
    fastPlan_.stages = std::move(stages);
    fastPlan_.usable = true;
}

long long
NebulaChip::snnFastStep(PoissonEncoder &encoder, int t,
                        SnnRunResult &result)
{
    SnnFastPlan &plan = fastPlan_;
    encoder.encodeActive(plan.encPlan, plan.active);
    const long long input_spikes =
        static_cast<long long>(plan.active.size());

    const Tensor *stage_out = nullptr;
    for (SnnFastStage &stage : plan.stages) {
        MappedLayer &layer = layers_[stage.layerIndex];
        // Same expression sequence as evalGroup's non-NU emit with
        // binary drivers: in_ceiling == 1 exactly, so folding it away
        // leaves emitAffine() bit-identical to the generic walk.
        // differential_test and the SNN golden vectors pin this.
        float *out = stage.preAct.data();
        for (size_t g = 0; g < layer.groups.size(); ++g) {
            CrossbarArray &xbar = *layer.groups[g];
            xbar.evaluateSparseInto(plan.active, config_.cycleTime,
                                    plan.evalWs);
            ++stats_.crossbarEvals;
            stats_.crossbarEnergy += plan.evalWs.energy;
            if (config_.abft) {
                stats_.abftChecks += plan.evalWs.check.checks;
                stats_.abftViolations += plan.evalWs.check.violations;
                stats_.adcConversions += plan.evalWs.check.checks;
            }
            const int group_offset =
                static_cast<int>(g) * config_.atomicSize;
            emitAffine(out + group_offset, layer.bias.data() + group_offset,
                       plan.evalWs.currents.data(), xbar.cols(),
                       xbar.currentScale(),
                       static_cast<double>(layer.weightScale));
        }
        stats_.nocPackets++;
        stats_.nocEnergy += stage.nocEnergy;

        if (stage.ifAfter) {
            if (stage.plainIf)
                stage.ifAfter->stepPlain(stage.preAct.data(),
                                         stage.spikes.data(),
                                         stage.features);
            else
                stage.ifAfter->step(stage.preAct.data(),
                                    stage.spikes.data(), stage.features);
            plan.active.clear();
            const float *sp = stage.spikes.data();
            for (int i = 0; i < stage.features; ++i)
                if (sp[i] != 0.0f)
                    plan.active.push_back(i);
            stage_out = &stage.spikes;
        } else {
            stage_out = &stage.preAct;
        }
    }

    if (t == 0)
        result.logits = *stage_out;
    else
        result.logits.add(*stage_out);
    return input_spikes;
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

    SnnRunResult result;
    result.timesteps = timesteps;
    long long input_spikes = 0;
    const long long evals_before = stats_.crossbarEvals;
    const long long checks_before = stats_.abftChecks;
    const long long violations_before = stats_.abftViolations;

    // The preplanned pipeline runs the same arithmetic without the
    // per-step tensor churn; an actively recording trace session keeps
    // the instrumented walk so its spans stay complete.
    const bool use_plan =
        config_.fastEval && fastPlan_.usable &&
        !(config_.traceChip && obs::TraceSession::enabled());
    if (use_plan) {
        NEBULA_ASSERT(image.size() == fastPlan_.inFeatures,
                      "image size does not match the programmed SNN");
        for (SnnFastStage &stage : fastPlan_.stages)
            if (stage.ifAfter)
                stage.ifAfter->ensureState({1, stage.features});
        encoder.buildPlan(image, fastPlan_.encPlan);
    }

    for (int t = 0; t < timesteps; ++t) {
        if (use_plan) {
            input_spikes += snnFastStep(encoder, t, result);
            continue;
        }
        obs::TraceSpan step_span("chip", "timestep", config_.traceChip);
        step_span.arg("t", static_cast<double>(t));

        Tensor spikes;
        {
            obs::TraceSpan encode_span("snn", "encode", config_.traceChip);
            spikes = encoder.encode(image);
        }
        input_spikes += static_cast<long long>(spikes.sum());
        Tensor x = spikes.reshaped(batched);

        size_t next_mapped = 0;
        for (int i = 0; i < model.net.numLayers(); ++i) {
            Layer &layer = model.net.layer(i);
            if (layer.isWeightLayer()) {
                NEBULA_ASSERT(next_mapped < layers_.size(),
                              "unmapped weight layer");
                x = evaluateLayer(layers_[next_mapped++], x, true);
                obs::TraceSpan noc_span("noc", "transfer",
                                        config_.traceChip);
                noc_span.arg("bits", static_cast<double>(x.size()));
                stats_.nocPackets++;
                stats_.nocEnergy +=
                    noc_.transferEnergy({0, 0}, {1, 0}, x.size());
            } else {
                x = layer.forward(x, false);
            }
        }
        obs::TraceSpan acc_span("snn", "accumulate", config_.traceChip);
        if (t == 0)
            result.logits = x;
        else
            result.logits.add(x);
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
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("chip.crossbar_evals")
        .inc(static_cast<double>(stats_.crossbarEvals - evals_before));
    registry.counter("chip.spikes")
        .inc(static_cast<double>(result.totalSpikes));
    if (config_.abft) {
        registry.counter("abft.checks")
            .inc(static_cast<double>(stats_.abftChecks - checks_before));
        registry.counter("abft.violations")
            .inc(static_cast<double>(stats_.abftViolations -
                                     violations_before));
    }
    return result;
}

} // namespace nebula
