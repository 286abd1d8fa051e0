/**
 * @file
 * Behavioural model of the all-spin neuromorphic crossbar (paper Fig. 3).
 *
 * Synaptic DW-MTJ cells sit at the row/column intersections; input
 * voltages driven on the bit-lines are weighted by the programmed cell
 * conductances and the resulting currents sum along the source-lines
 * (Kirchhoff's current law), evaluating a full matrix-vector product in
 * one 110 ns stage.
 *
 * Signed weights use a reference-column scheme: each cell stores
 * G = G_mid + w * dG/2 (w in [-1, 1]) and a shared reference column
 * programmed to G_mid is subtracted from every column current, so the
 * differential current is proportional to the signed dot product. The
 * current-driven spin neurons integrate that signed current directly --
 * no I-to-V conversion is needed (Sec. II-C).
 *
 * Two evaluation modes are provided:
 *  - ideal: exact Kirchhoff summation;
 *  - parasitic: wire resistance along rows/columns is included via a
 *    full nodal Gauss-Seidel solve (slow, for validation and the supply
 *    voltage ablation) or a fast per-cell attenuation approximation.
 *
 * Fast evaluation: the array keeps an EvalCache of derived read-path
 * state -- the logical-column (remap-resolved) dense conductance view,
 * the per-row reference conductance and total row conductance used for
 * energy accounting, the open-column mask, the read scratch (active
 * rows and drive voltages) and the parasitic solver workspace. The
 * cache is invalidated whenever the programmed state can change
 * (program, injectFaults, updateCells) and rebuilt lazily on the next
 * evaluation, so the per-evaluation inner loop is a pure multiply-add
 * over a contiguous matrix with no remap gathers and no per-row
 * conductance re-summation. The dense view's rows are padded with
 * zero cells to a multiple of 16 columns, so its two column kernels --
 * a 1-window x 16-column tile and a 4-window x 8-column tile, both
 * register-blocked -- always run at full width and store only the real
 * columns. The 4-bit DAC read (evaluateIdeal) and the 1-bit spike read
 * (evaluateSparseInto) walk only the driven rows in ascending order;
 * the indexed conv read (evaluateIndexed) walks every row of four
 * im2col windows at once, a dark row adding an exact +0.0. All end in
 * one per-window finish (reference subtract, open columns, energy,
 * ABFT check), so a spike read is bit-identical to the dense read of
 * its 0/1 vector and an indexed window to its solo read.
 * tests/differential_test.cpp pins each to the naive reference model
 * in src/testing.
 *
 * Reliability: the array can carry an explicit FaultMap (stuck cells,
 * pinning drift, retention decay, line opens) injected before
 * programming, and the program() entry point supports the mitigation
 * flow of src/reliability -- closed-loop write-verify and spare-column
 * repair over CrossbarParams::spareCols physical spares. Logical
 * columns are indirected through a remap table so a repaired column
 * reads its spare transparently.
 */

#ifndef NEBULA_CIRCUIT_CROSSBAR_HPP
#define NEBULA_CIRCUIT_CROSSBAR_HPP

#include <algorithm>
#include <vector>

#include "common/chip_params.hpp"
#include "device/dw_params.hpp"
#include "device/mtj.hpp"
#include "reliability/fault_model.hpp"
#include "reliability/mitigation.hpp"

namespace nebula {

/** Crossbar electrical configuration. */
struct CrossbarParams
{
    int rows = kAtomicSize;
    int cols = kAtomicSize;

    /** Physical spare columns available for repair (0 = none). */
    int spareCols = 0;

    /** Read supply voltage on the bit-lines (V). SNN 0.25, ANN 0.75. */
    double readVoltage = kSnnDriverVoltage;

    /** Number of programmable conductance levels per cell. */
    int levels = 1 << kPrecisionBits;

    /** MTJ stack of the synaptic cells. */
    MtjParams mtj;

    /** Wire resistance between adjacent cells on a row/column (ohm). */
    double wireResistance = 2.5;

    /** Relative device-to-device conductance variation (0 = none). */
    double variationSigma = 0.0;
    uint64_t variationSeed = 7;

    /**
     * Program and read an ABFT checksum column: one extra physical
     * column whose per-row conductance encodes the row-sum of the
     * *intended* quantized data weights, G_chk[i] = G_mid +
     * (sum_j wq_ij / cols) * dG/2. On every ideal evaluation the
     * observed data-column current sum is compared against
     * cols * (I_chk - I_ref) within an ADC-quantization-derived
     * tolerance; a mismatch flags the result as corrupt. Off (default)
     * leaves layout, arithmetic and energy byte-identical to an array
     * without the column.
     */
    bool abft = false;
};

/**
 * Outcome of the ABFT checksum-column comparison attached to one
 * evaluation. `checks` is 0 when no check ran (abft off, or a path
 * where the checksum identity does not hold, e.g. the parasitic solve).
 */
struct CrossbarCheck
{
    int checks = 0;        //!< 1 when the checksum column was compared
    int violations = 0;    //!< 1 when the residual exceeded tolerance
    double residual = 0.0; //!< |observed - expected| current (A)
    double tolerance = 0.0; //!< detection threshold used (A)
};

/** Result of one crossbar evaluation. */
struct CrossbarEval
{
    /** Differential (signed) column currents (A), one per column. */
    std::vector<double> currents;

    /** Total ohmic energy dissipated in the array this evaluation (J). */
    double energy = 0.0;

    /** ABFT checksum verdict (checks == 0 unless CrossbarParams::abft). */
    CrossbarCheck check;
};

/**
 * Active-row list for the 1-bit spike driver path: indices of the rows
 * whose bit-line carries a spike this cycle, in ascending order.
 */
using SpikeVector = std::vector<int>;

/** A single M x N analog crossbar array. */
class CrossbarArray
{
  public:
    explicit CrossbarArray(const CrossbarParams &params);

    /**
     * Overlay device faults before programming. The map must cover the
     * physical data columns: rows x (cols + spareCols).
     */
    void injectFaults(FaultMap faults);

    /** The injected fault map (empty if none). */
    const FaultMap &faults() const { return faults_; }

    /**
     * Program signed normalized weights with the selected mitigations:
     * optional spare-column repair (columns whose uncorrectable defect
     * count exceeds the threshold are remapped onto the healthiest
     * spares before programming) and optional closed-loop write-verify
     * (program -> sense -> trim per cell within a pulse budget).
     *
     * @param weights Row-major rows x cols matrix, entries in [-1, 1];
     *                values are quantized to the cell's discrete levels.
     * @return pulse / energy / failure / repair accounting.
     */
    ProgramReport program(const std::vector<float> &weights,
                          const ProgrammingConfig &config);

    /**
     * Legacy single-pulse programming path (no mitigation): quantize,
     * apply device variation if configured, write each cell once.
     */
    void programWeights(const std::vector<float> &weights);

    /**
     * Incremental per-cell updates -- the on-device learning write path.
     * Each CellUpdate moves one logical cell by a signed number of
     * conductance levels from its *sensed* current level (read path, no
     * disturb), issuing one programming pulse per level step traversed.
     * Semantics match program() cell for cell: the landing conductance
     * of the final pulse follows the same fault model (open-loop pinning
     * drift offset, retention decay applied after the write, device
     * variation when configured), write-verify trims within the same
     * pulse budget, and the spare-column remap is respected. Stuck cells
     * and open lines swallow the pulse without moving (the incremental
     * single-level pulse has no depin escalation -- reprogramming via
     * program() is the repair tool) and are counted blockedCells.
     * Targets landing outside [0, levels-1] are clamped and counted.
     *
     * The EvalCache is invalidated whenever any cell changed, so the
     * next evaluation reads the learned conductances.
     */
    UpdateReport updateCells(const std::vector<CellUpdate> &updates,
                             const ProgrammingConfig &config = {});

    /** Single-cell convenience form of updateCells(). */
    UpdateReport applyDelta(int row, int col, int delta,
                            const ProgrammingConfig &config = {});

    /**
     * Sensed discrete level of logical cell (row, col): the nearest
     * programmable level to the cell's read conductance, clamped to
     * [0, levels-1]. Uses the ordinary sense path (read-disturb-free);
     * decayed or drifted cells report the level they *read as*, not the
     * one that was addressed.
     */
    int levelAt(int row, int col) const;

    /**
     * Evaluate the ideal dot product for normalized inputs in [0, 1]
     * (inputs are quantized to the driver resolution by the caller).
     * Rows whose clamped input is 0 are skipped; the rest are driven at
     * input * readVoltage. By-value form of evaluateIdealInto().
     *
     * @param inputs     One normalized voltage factor per row.
     * @param duration   Evaluation window (s), for energy accounting.
     */
    CrossbarEval evaluateIdeal(const std::vector<double> &inputs,
                               double duration) const;

    /**
     * evaluateIdeal() into a caller-owned result, so repeated reads (a
     * Linear layer's groups, run after run) reuse one allocation. The
     * result always holds exactly cols() currents, and `check` is
     * reset when abft is off.
     */
    void evaluateIdealInto(const std::vector<double> &inputs,
                           double duration, CrossbarEval &eval) const;

    /**
     * Spike-driven read into a caller-owned result: only the rows
     * listed in @p active (ascending row indices, each driven at full
     * read voltage) contribute. Bit-identical to evaluateIdeal() on the
     * equivalent dense 0/1 vector, but the cost is linear in the number
     * of *active* rows -- the event-driven current-domain accumulation
     * the SNN mode's efficiency argument rests on.
     */
    void evaluateSparseInto(const SpikeVector &active, double duration,
                            CrossbarEval &eval) const;

    /**
     * Drive voltage of a row for normalized input @p input: clamped to
     * [0, 1], times the read voltage (a -0.0 input drives -0.0 V, which
     * every read treats as dark). Every read drives its rows with it.
     */
    double drive(double input) const
    {
        return std::clamp(input, 0.0, 1.0) * p_.readVoltage;
    }

    /**
     * Read @p batch windows drawn through an im2col index table -- the
     * conv read. Window b drives row i at drive[index[b * rows + i]]:
     * @p drive holds drive() of every input element, and index -1 reads
     * the dark entry drive[-1], which must be 0. Windows are processed
     * in register-blocked groups of four: a cached conductance row is
     * streamed once per group and multiplied into four windows'
     * accumulators (GEMM-style). Every row is walked, dark or not, with
     * no compaction: a dark row adds an exact +0.0 to partials that are
     * never -0.0, so each window's batch x cols @p currents and its
     * ABFT verdict in @p checks (batch entries, reset when abft is off)
     * are bit-identical to evaluateIdeal() of the gathered window.
     *
     * @return the windows' evaluateIdeal() energies summed in window
     *         order, starting from 0.0.
     */
    double evaluateIndexed(const double *drive, const int *index, int batch,
                           double duration, double *currents,
                           CrossbarCheck *checks) const;

    /**
     * Evaluate with interconnect parasitics using a nodal Gauss-Seidel
     * solve of the full resistive network. Accurate but O(rows*cols*iters);
     * intended for validation and small ablation sweeps.
     */
    CrossbarEval evaluateParasitic(const std::vector<double> &inputs,
                                   double duration, int max_iters = 400,
                                   double tolerance = 1e-9) const;

    /**
     * Signed dot-product scale: current per unit (w * x) where w, x are
     * the normalized weight/input. currents = kappa * (W^T x).
     */
    double currentScale() const;

    /**
     * Conductance of logical column @p col at @p row (repair remap
     * applied); col == cols() addresses the shared reference column.
     */
    double conductanceAt(int row, int col) const;

    /** Normalized signed weight recovered from the programmed cell. */
    double weightAt(int row, int col) const;

    /**
     * Raw physical-cell conductance (no remap; spares and the reference
     * column at physical index cols()+spareCols addressable). For the
     * reference-model validation harness -- inference code wants the
     * logical view of conductanceAt().
     */
    double physicalConductanceAt(int row, int phys_col) const;

    /** Worst-case (all cells on, all inputs max) column current (A). */
    double maxColumnCurrent() const;

    /** Physical column serving logical column @p col. */
    int physicalColumn(int col) const;

    /** Columns currently remapped onto spares. */
    int sparesUsed() const;

    int rows() const { return p_.rows; }
    int cols() const { return p_.cols; }
    const CrossbarParams &params() const { return p_; }

  private:
    /**
     * Derived read-path state, rebuilt lazily after any event that can
     * change the programmed conductances or the column remap (program,
     * injectFaults). Single-threaded per array, like every other
     * mutable member: worker replicas each own their crossbars.
     */
    struct EvalCache
    {
        bool valid = false;

        /**
         * rows x stride remapped data conductances, logical order; the
         * cells past cols (stride is cols rounded up to a multiple of
         * 16) are 0 and are never summed into rowGsum.
         */
        std::vector<double> dense;
        size_t stride = 0;

        /** Per-row reference-column conductance. */
        std::vector<double> refCol;

        /** Per-row checksum-column conductance (abft only, else empty). */
        std::vector<double> chkCol;

        /**
         * Per-row total conductance for energy accounting: data +
         * reference, plus the checksum column when abft is on (its
         * read current is sensed every evaluation, so its dissipation
         * is billed with the rest of the array).
         */
        std::vector<double> rowGsum;

        /** Per-logical-column open-line flag. */
        std::vector<uint8_t> colOpen;
        bool anyColOpen = false;

        /**
         * Read scratch: the active rows of one solo read and their
         * drive voltages (rows entries each).
         */
        std::vector<int> active;
        std::vector<double> va;

        /** Gauss-Seidel node-voltage workspace (parasitic solve). */
        std::vector<double> vr, vc, source;
    };

    /** One read window's ascending active-row chains. */
    struct ReadChains
    {
        double ref = 0.0;   //!< reference-column current (A)
        double power = 0.0; //!< ohmic power over the driven rows (W)
        double chk = 0.0;   //!< checksum-column current (abft only)
        double vsq = 0.0;   //!< sum of v^2 over driven rows (abft only)
    };

    /** The cache, built if stale. */
    EvalCache &evalCache() const;

    /**
     * One window's read over the @p n_active ascending rows in
     * @p active, driven at the voltages in the cache's `va`: the solo
     * column tile, the chains, then finishWindow().
     */
    void readWindow(const int *active, int n_active, double duration,
                    CrossbarEval &eval) const;

    /**
     * Finish one read window: subtract the reference current from each
     * of its cols() @p currents, zero the open columns and, under abft,
     * compare the checksum into @p check (reset otherwise). Returns the
     * window's energy over @p duration.
     */
    double finishWindow(const ReadChains &chains, double duration,
                        double *currents, CrossbarCheck &check) const;

    /** Mark every derived view stale (programmed state changed). */
    void invalidateCache() { cache_.valid = false; }

    /** Physical data columns (logical + spares). */
    int physicalDataCols() const { return p_.cols + p_.spareCols; }

    /**
     * Physical columns per row in conductance_: data + reference, plus
     * the ABFT checksum column (at physicalDataCols() + 1) when abft.
     */
    int physicalStride() const
    {
        return physicalDataCols() + (p_.abft ? 2 : 1);
    }

    /**
     * ABFT residual comparison from one evaluation's aggregates, all
     * accumulated in ascending row/column order so every evaluator
     * produces bit-identical verdicts.
     *
     * @param currents    Final (reference-subtracted, open-masked)
     *                    data-column currents.
     * @param chk_current Checksum-column current sum_i v_i * G_chk[i].
     * @param ref_current Reference-column current sum_i v_i * G_ref[i].
     * @param vsq_sum     sum_i v_i^2 over the driven rows (V^2), for
     *                    the variation term of the tolerance.
     */
    CrossbarCheck makeCheck(const double *currents, double chk_current,
                            double ref_current, double vsq_sum) const;

    double &cellAt(int row, int phys_col);
    double cellAt(int row, int phys_col) const;

    /** Decide the spare remap from the fault map (worst columns first). */
    void planRepair(const ProgrammingConfig &config, ProgramReport &report);

    /** Program one data cell; appends pulse/failure accounting. */
    void programCell(int row, int phys_col, int level,
                     const ProgrammingConfig &config,
                     const GaussianVariabilityModel &noise, Rng &rng,
                     ProgramReport &report);

    /**
     * Move one physical data cell from sensed level @p current to
     * @p target with per-level-step pulses. Returns true when the
     * stored conductance may have changed (caller invalidates cache).
     */
    bool updateCell(int row, int phys_col, int current, int target,
                    const ProgrammingConfig &config,
                    const GaussianVariabilityModel &noise,
                    UpdateReport &report);

    const CellFault &faultAt(int row, int phys_col) const;
    bool openAt(int row, int phys_col) const;

    CrossbarParams p_;
    MtjStack cell_;
    std::vector<double> conductance_; //!< rows x physicalStride, row-major
    FaultMap faults_;                 //!< empty when fault-free
    std::vector<int> remap_;          //!< logical col -> physical col
    double gMid_;
    double gHalfSwing_;
    Rng updateRng_; //!< variation stream of the incremental update path
    mutable EvalCache cache_;
};

} // namespace nebula

#endif // NEBULA_CIRCUIT_CROSSBAR_HPP
