/**
 * @file
 * Functional on-chip inference: executes a quantized ANN or a converted
 * SNN through the actual circuit models -- programmed DW-MTJ crossbar
 * arrays (with quantized conductances, optional device variation),
 * multi-level DAC / 1-bit spike drivers, and saturating-ReLU neuron
 * units -- following the layer mapping the LayerMapper produces.
 *
 * The spiking path computes column currents through the crossbars and
 * integrates membranes with the algorithmic IF model; circuit-level
 * tests (NeuronUnitCircuit.*) establish that the DW-MTJ neuron device
 * matches that model to within pinning quantization, so the chip
 * simulator does not instantiate per-output-position device objects.
 * programAnn() and programSnn() compile the network into one stage
 * list; runAnn() runs it once and runSnn() once per timestep, traced or
 * not. The golden vectors (tests/golden/) pin its outputs and ChipStats
 * totals.
 *
 * Used by the integration tests and the quickstart example to show the
 * full device -> circuit -> architecture -> algorithm stack agreeing
 * with the functional simulator.
 */

#ifndef NEBULA_ARCH_CHIP_HPP
#define NEBULA_ARCH_CHIP_HPP

#include <memory>
#include <optional>
#include <vector>

#include "arch/energy_breakdown.hpp"
#include "arch/energy_model.hpp"
#include "arch/mapping.hpp"
#include "circuit/crossbar.hpp"
#include "circuit/driver.hpp"
#include "circuit/neuron_unit.hpp"
#include "nn/quantize.hpp"
#include "noc/noc.hpp"
#include "reliability/mitigation.hpp"
#include "snn/convert.hpp"
#include "snn/snn_sim.hpp"

namespace nebula {

/** Counters gathered while running on the chip model. */
struct ChipStats
{
    long long crossbarEvals = 0;   //!< column-group evaluations
    long long adcConversions = 0;  //!< output-layer + spill conversions
    long long spikes = 0;          //!< SNN spikes emitted
    double crossbarEnergy = 0.0;   //!< device-level ohmic energy (J)
    long long nocPackets = 0;      //!< inter-layer transfers
    double nocEnergy = 0.0;        //!< J
    long long abftChecks = 0;      //!< checksum-column comparisons
    long long abftViolations = 0;  //!< comparisons exceeding tolerance

    /**
     * Accumulate another chip's counters into this one. Every field is
     * an additive total, so merging per-replica stats equals the stats
     * one chip would have gathered serving all requests itself; the
     * inference runtime uses this to aggregate worker-local counters
     * without locking the per-request path.
     */
    void merge(const ChipStats &other);
};

/**
 * Attribute the activity between two ChipStats snapshots (taken around
 * one inference on a worker-owned chip) to components as joules.
 * Crossbar/NoC energy is the measured delta; ADC, driver and neuron
 * joules price the delta's op counts at Table III powers over one
 * cycle (per-crossbar-eval share of a core's driver bank and neuron
 * units, per-conversion ADC activity) -- the energy_model methodology
 * applied to live counters instead of projected layer walks.
 */
EnergyBreakdown estimateEnergyBreakdown(const ChipStats &before,
                                        const ChipStats &after, Mode mode);

/** The NEBULA chip functional model. */
class NebulaChip
{
  public:
    explicit NebulaChip(const NebulaConfig &config = {},
                        double variation_sigma = 0.0, uint64_t seed = 5);

    /**
     * Program a quantized ANN (output of quantizeNetwork) onto ANN-mode
     * crossbars. The network must contain no plain (unclipped) ReLUs.
     */
    void programAnn(Network &net, const QuantizationResult &quant);

    /** Run one (C, H, W) image through the programmed ANN. */
    Tensor runAnn(const Tensor &image);

    /** Program a converted spiking model onto SNN-mode crossbars. */
    void programSnn(SpikingModel &model);

    /**
     * Run one image for T timesteps through the programmed SNN, using
     * the chip's internal seed stream for the Poisson input encoder
     * (results depend on how many runs preceded this one).
     */
    SnnRunResult runSnn(const Tensor &image, int timesteps);

    /**
     * Run one image for T timesteps with an explicit encoder seed.
     * Output is a pure function of (programmed state, image, timesteps,
     * seed) -- the call-order-independent form the concurrent runtime
     * uses so results stay bit-exact across worker replicas.
     */
    SnnRunResult runSnn(const Tensor &image, int timesteps,
                        uint64_t encoder_seed);

    /**
     * Attach a reliability scenario; takes effect at the next
     * programAnn/programSnn. Every crossbar then samples a private
     * FaultMap from ReliabilityConfig::faultSeed (decorrelated per
     * array, reproducible given the seed and the network shape) and is
     * programmed with the configured mitigations. Reprogramming the
     * same network resamples identical maps.
     */
    void setReliability(ReliabilityConfig rel) { rel_ = std::move(rel); }
    const ReliabilityConfig &reliability() const { return rel_; }

    /**
     * Aggregate programming accounting (pulses, failed cells, repairs,
     * program energy) of the last programAnn/programSnn.
     */
    const ProgramReport &programReport() const { return programReport_; }

    /**
     * One weight-cell update at network granularity: move the cell that
     * holds weight element (kernel, r) of a mapped layer to an absolute
     * conductance level (clamped to the device range). The chip resolves
     * the crossbar group and logical column the mapper placed it on.
     */
    struct WeightCellUpdate
    {
        int kernel = 0;      //!< output kernel index in the layer
        int r = 0;           //!< receptive-field (input) index
        int targetLevel = 0; //!< absolute level in [0, levels-1]
    };

    /** Number of mapped weight layers (programming order). */
    int mappedLayerCount() const { return static_cast<int>(layers_.size()); }

    /** |w| normalization used on mapped layer @p k's cells. */
    float mappedWeightScale(int k) const;

    /** Conductance levels per cell (1 << precisionBits). */
    int mappedLevels() const { return 1 << kPrecisionBits; }

    /**
     * Incrementally reprogram cells of mapped weight layer @p k through
     * CrossbarArray::updateCells -- faults/remap respected, EvalCache
     * invalidated, every pulse billed. Also re-reads the layer's bias
     * from the source network (bias lives in the digital periphery, so
     * host-side bias updates take effect without pulses). Not supported
     * for diagonal-packed depthwise layers.
     */
    UpdateReport updateMappedLayer(int k,
                                   const std::vector<WeightCellUpdate> &ups,
                                   const ProgrammingConfig &config = {});

    /** Aggregate incremental-update accounting since the last program. */
    const UpdateReport &updateReport() const { return updateReport_; }

    const ChipStats &stats() const { return stats_; }
    void clearStats() { stats_ = ChipStats(); }

    /** Mapping of the currently programmed network. */
    const NetworkMapping &mapping() const { return mapping_; }

  private:
    /** One weight layer programmed onto crossbar column groups. */
    struct MappedLayer
    {
        const Layer *source = nullptr;  //!< layer in the programmed net
        LayerMapping map;
        std::vector<std::unique_ptr<CrossbarArray>> groups;
        std::vector<std::unique_ptr<ReluNeuronUnit>> nus; //!< per group
        std::vector<float> bias;  //!< real-unit bias per kernel
        float weightScale = 1.0f; //!< |w| normalization used on the cells
        float inputCeiling = 1.0f;  //!< a_max of the incoming activation
                                    //!< (1 for binary spike inputs)
        float outputCeiling = 0.0f; //!< a_max after the following ReLU
        bool hasActivation = false;
        int dwKernelsPerAc = 0;     //!< >0 for diagonal-packed depthwise
        int groupKernels = 0;       //!< kernels per column group
        /** Per group and column: the neuron unit's bias current. */
        std::vector<std::vector<double>> biasDrive;
        /**
         * im2col tables (see evaluateLayer) for one input size: one for
         * a Conv, one per column group for a diagonal-packed DwConv.
         */
        std::vector<std::vector<int>> gather;
        int gatherH = -1; //!< input height the table was built for
        int gatherW = -1; //!< input width the table was built for

        /**
         * Re-read the bias from the source layer (it lives in the
         * digital periphery) and, with an activation, the bias current
         * each neuron-unit column injects.
         */
        void syncBias();
    };

    /** Program one weight layer's crossbars. */
    MappedLayer mapWeightLayer(const Layer &layer, int index,
                               float weight_scale, Mode mode);

    /**
     * Sample this crossbar's fault map (if a fault model is attached)
     * and program it with the configured mitigations, accumulating the
     * report. Crossbars are numbered in programming order, so the maps
     * are deterministic for a given network and faultSeed.
     */
    void programCrossbar(CrossbarArray &xbar,
                         const std::vector<float> &cells);

    /**
     * Evaluate a mapped weight layer on a real-unit input tensor into
     * @p output as real-unit pre-activations (1, K, H', W') or (1, K),
     * reusing its storage when the shape matches. A Conv or DwConv, in
     * either mode, reads one output row of im2col windows per column
     * group and call (CrossbarArray::evaluateIndexed); a Linear reads
     * each group through readGroup().
     * @param binary True in SNN mode: inputs (spike maps or pooled
     *               spike rates) drive at clamp(x) * V, with no DAC.
     */
    void evaluateLayer(MappedLayer &layer, const Tensor &input, bool binary,
                       Tensor &output);

    /**
     * Rebuild column group @p g's outputs for @p batch windows (the
     * row-major batch x cols @p currents) into out[b + k * stride] for
     * window b and each kernel k of the group. With an activation, the
     * bias current is injected into @p currents in place and the
     * group's neuron unit reads them out as output levels; otherwise
     * the weighted sum is rebuilt in real units for the ADC path.
     */
    void emitGroup(MappedLayer &layer, size_t g, double *currents,
                   int batch, float *out, size_t stride);

    /**
     * Read column group @p g of @p layer into the program's result
     * workspace -- driven by a Linear's dense input factors @p window,
     * or by the active-row list when @p window is null (a Sparse
     * stage) -- bill the evaluation and emit its outputs into out[k]
     * for each kernel k of the group.
     */
    void readGroup(MappedLayer &layer, size_t g,
                   const std::vector<double> *window, float *out);

    /**
     * One step of the compiled stage list. The kind is fixed at program
     * time from the topology, never by an option:
     *  - Sparse (SNN): a Linear whose input is the encoder's or an IF
     *    layer's spikes (at most a Flatten between, folded away): its
     *    column groups are driven by the active-row list;
     *  - Mapped: every other weight layer, through evaluateLayer();
     *  - Host: IF, pooling and Flatten, computed beside the crossbars.
     * An ANN ClippedRelu compiles to nothing: the preceding weight
     * layer's neuron units apply it.
     */
    struct Stage
    {
        enum class Kind { Sparse, Mapped, Host };
        Kind kind = Kind::Host;
        Layer *layer = nullptr;    //!< layer in the programmed net
        size_t mapped = 0;         //!< into layers_ (Sparse, Mapped)
        IfLayer *neuron = nullptr; //!< the IF layer of a Host stage
        bool plainIf = false;      //!< neuron qualifies for stepPlain()
        bool feedsSparse = false;  //!< refill the active list from out
        Tensor out;                //!< stage output, reused every run
    };

    /** The compiled network: its mode, stage list and run workspaces. */
    struct Program
    {
        std::optional<Mode> mode;  //!< empty until programmed
        std::vector<Stage> stages;
        bool sparseInput = false;  //!< first stage reads encoder rows
        Tensor input;              //!< the image with its batch dim
        Tensor spikeBuf;           //!< encoder output (dense input)
        SpikeVector active;        //!< active-row list between stages
        /** One layer's input factors (conv read: drives), dark first. */
        std::vector<double> inputs;
        std::vector<double> window; //!< a Linear read's input factors
        CrossbarEval evalWs;       //!< solo read result workspace
        std::vector<double> currents;      //!< indexed read currents
        std::vector<CrossbarCheck> checks; //!< indexed read verdicts
        std::vector<int> codes;    //!< neuron-unit output levels
        PoissonEncoder::EncodePlan encPlan; //!< per-run encode plan
    };

    /** Drop the programmed network and map @p net for @p mode. */
    void resetProgram(Network &net, Mode mode);

    /**
     * Run the stage list once on @p input (one ANN image or one SNN
     * timestep's spikes) and return the last stage's output. NoC
     * traffic is billed per weight stage, at kPrecisionBits bits per
     * output in ANN mode and one spike bit in SNN mode.
     */
    const Tensor &runStages(const Tensor &input);

    /**
     * Run one Sparse stage: every column group driven by the active
     * rows, pre-activations rebuilt into stage.out.
     */
    void runSparseStage(Stage &stage);

    /**
     * Publish the ChipStats deltas since @p before (one run) into the
     * metrics registry, through counter handles resolved once per
     * process.
     */
    void publishRun(const ChipStats &before, Mode mode) const;

    NebulaConfig config_;
    DacDriver dac_; //!< ANN input drivers: kPrecisionBits DAC at 0.75 V
    double variationSigma_;
    uint64_t seed_;
    ReliabilityConfig rel_;
    ProgramReport programReport_;
    UpdateReport updateReport_;
    int crossbarIndex_ = 0; //!< programming-order counter for fault seeds
    LayerMapper mapper_;
    MeshNoc noc_;

    SpikingModel *snnModel_ = nullptr;
    std::vector<MappedLayer> layers_; //!< one per weight layer, in order
    Program prog_;
    NetworkMapping mapping_;
    ChipStats stats_;
    Rng runSeeds_;
};

} // namespace nebula

#endif // NEBULA_ARCH_CHIP_HPP
