#include "circuit/crossbar.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hpp"
#include "common/simd.hpp"
#include "device/synapse_device.hpp"

namespace nebula {

namespace {

/**
 * Register-tiled single-window kernel: one tile of 16 column
 * accumulators lives in registers across the whole active-row walk, so
 * the inner loop issues one conductance load per 4 columns instead of a
 * load+store round-trip on the output row per crossbar row. Each
 * column's partial sum still grows in ascending active-row order --
 * bit-identical to the naive row walk -- because FP addition order per
 * output element is unchanged; only where the partial lives (register
 * vs memory) differs. The tile always runs at full width: the padded
 * cache row holds zeros past the last column, and only the @p width
 * real columns are stored.
 *
 * @param dense   Padded conductance cache, row-major with @p stride.
 * @param active  Ascending row indices with nonzero drive voltage.
 * @param va      Drive voltage per active row (parallel to @p active).
 * @param out     Output columns [j0, j0+width); width <= 16.
 */
NEBULA_TARGET_CLONES void
soloColsTile16(const double *dense, size_t stride, const int *active,
               int n_active, const double *va, int j0, int width,
               double *out)
{
    // Two 8-wide accumulator streams rather than one flat 16-element
    // tile: this is the loop shape GCC's vectorizer reliably maps onto
    // one full-width register per stream across every clone ISA.
    double acc0[8] = {};
    double acc1[8] = {};
    for (int a = 0; a < n_active; ++a) {
        const double v = va[a];
        const double *g =
            dense + static_cast<size_t>(active[a]) * stride + j0;
        for (int t = 0; t < 8; ++t) {
            acc0[t] += v * g[t];
            acc1[t] += v * g[8 + t];
        }
    }
    std::copy_n(acc0, std::min(width, 8), out + j0);
    if (width > 8)
        std::copy_n(acc1, width - 8, out + j0 + 8);
}

/**
 * Register-tiled four-window tile of the indexed read: a 4-window x
 * 8-column accumulator block is held in registers across the whole row
 * walk, so each conductance element is loaded once per tile and feeds
 * four multiply-add streams with no output traffic in the inner loop.
 * Each window's drive comes straight from the per-element drive array
 * through its im2col row (index -1 reads the dark entry, drive[-1] ==
 * 0). Every row is walked: a dark row adds an exact +0.0 to a partial
 * that is never -0.0, so per (window, column) the sum is bit-identical
 * to the solo tile's walk over only the driven rows. Like the solo tile
 * it runs at full width over the padded row.
 *
 * With @p kChains the same walk also runs the solo read's chains for
 * the four windows: ref[w] += v * refCol[i] and power[w] += v * v *
 * rowGsum[i], in ascending row order.
 *
 * @param win  Four windows' im2col rows of @p rows input offsets.
 * @param live Windows whose columns are stored (the rest repeat the last).
 * @param out  Window 0's output columns [j0, j0+width); windows 1..3
 *             follow at +out_stride each. width <= 8.
 */
template <bool kChains>
[[gnu::always_inline]] inline void
indexedTile4x8(const double *dense, size_t stride, int rows,
               const double *drive, const int *const *win, int j0, int width,
               int live, double *out, size_t out_stride,
               const double *ref_col, const double *row_gsum, double *ref,
               double *power)
{
    const int *w0 = win[0], *w1 = win[1], *w2 = win[2], *w3 = win[3];
    double acc[4][8] = {};
    double r[4] = {}, p[4] = {};
    for (int i = 0; i < rows; ++i) {
        const double v0 = drive[w0[i]];
        const double v1 = drive[w1[i]];
        const double v2 = drive[w2[i]];
        const double v3 = drive[w3[i]];
        const double *g = dense + static_cast<size_t>(i) * stride + j0;
        for (int t = 0; t < 8; ++t) {
            const double gg = g[t];
            acc[0][t] += v0 * gg;
            acc[1][t] += v1 * gg;
            acc[2][t] += v2 * gg;
            acc[3][t] += v3 * gg;
        }
        if constexpr (kChains) {
            const double gr = ref_col[i];
            const double gs = row_gsum[i];
            r[0] += v0 * gr;
            r[1] += v1 * gr;
            r[2] += v2 * gr;
            r[3] += v3 * gr;
            p[0] += v0 * v0 * gs;
            p[1] += v1 * v1 * gs;
            p[2] += v2 * v2 * gs;
            p[3] += v3 * v3 * gs;
        }
    }
    for (int w = 0; w < live; ++w)
        std::copy_n(acc[w], width,
                    out + static_cast<size_t>(w) * out_stride + j0);
    if constexpr (kChains) {
        std::copy(r, r + 4, ref);
        std::copy(p, p + 4, power);
    }
}

/**
 * One four-window group of the indexed read: every column tile of the
 * group's windows (row-major, @p cols per window), the first carrying
 * the reference and power chains.
 */
NEBULA_TARGET_CLONES void
indexedGroup4(const double *dense, size_t stride, int rows, int cols,
              const double *drive, const int *const *win, int live,
              double *out, const double *ref_col, const double *row_gsum,
              double *ref, double *power)
{
    const size_t out_stride = static_cast<size_t>(cols);
    indexedTile4x8<true>(dense, stride, rows, drive, win, 0,
                         std::min(8, cols), live, out, out_stride, ref_col,
                         row_gsum, ref, power);
    for (int j = 8; j < cols; j += 8)
        indexedTile4x8<false>(dense, stride, rows, drive, win, j,
                              std::min(8, cols - j), live, out, out_stride,
                              nullptr, nullptr, nullptr, nullptr);
}

/**
 * ABFT chains of four indexed windows: per window w, chk[w] += v *
 * chkCol[i] and vsq[w] += v * v over every row in ascending order.
 */
NEBULA_TARGET_CLONES void
indexedChecksum4(int rows, const double *drive, const int *const *win,
                 const double *chk_col, double *chk, double *vsq)
{
    const int *w0 = win[0], *w1 = win[1], *w2 = win[2], *w3 = win[3];
    double k[4] = {}, q[4] = {};
    for (int i = 0; i < rows; ++i) {
        const double v0 = drive[w0[i]];
        const double v1 = drive[w1[i]];
        const double v2 = drive[w2[i]];
        const double v3 = drive[w3[i]];
        const double gk = chk_col[i];
        k[0] += v0 * gk;
        k[1] += v1 * gk;
        k[2] += v2 * gk;
        k[3] += v3 * gk;
        q[0] += v0 * v0;
        q[1] += v1 * v1;
        q[2] += v2 * v2;
        q[3] += v3 * v3;
    }
    std::copy(k, k + 4, chk);
    std::copy(q, q + 4, vsq);
}

/** Energy of one full-drive program pulse (paper device parameters). */
double
programPulseEnergy()
{
    static const double energy = SynapseDevice().pulseEnergy();
    return energy;
}

} // namespace

CrossbarArray::CrossbarArray(const CrossbarParams &params)
    : p_(params), cell_(params.mtj),
      updateRng_(params.variationSeed ^ 0x757064ull)
{
    NEBULA_ASSERT(p_.rows > 0 && p_.cols > 0, "bad crossbar geometry");
    NEBULA_ASSERT(p_.spareCols >= 0, "negative spare column count");
    NEBULA_ASSERT(p_.levels >= 2, "need at least 2 conductance levels");
    gMid_ = 0.5 * (cell_.conductanceP() + cell_.conductanceAp());
    gHalfSwing_ = 0.5 * (cell_.conductanceP() - cell_.conductanceAp());
    // +1: the extra column is the shared reference column at G_mid.
    // With abft a second extra column holds the row checksum; every
    // cell at G_mid encodes zero weight, whose row-sum checksum is
    // also G_mid, so the blank array satisfies the identity.
    conductance_.assign(static_cast<size_t>(p_.rows) * physicalStride(),
                        gMid_);
    remap_.resize(static_cast<size_t>(p_.cols));
    std::iota(remap_.begin(), remap_.end(), 0);
}

double &
CrossbarArray::cellAt(int row, int phys_col)
{
    return conductance_[static_cast<size_t>(row) * physicalStride() +
                        phys_col];
}

double
CrossbarArray::cellAt(int row, int phys_col) const
{
    return conductance_[static_cast<size_t>(row) * physicalStride() +
                        phys_col];
}

void
CrossbarArray::injectFaults(FaultMap faults)
{
    NEBULA_ASSERT(faults.rows() == p_.rows &&
                      faults.cols() == physicalDataCols(),
                  "fault map geometry mismatch: got ", faults.rows(), "x",
                  faults.cols(), " want ", p_.rows, "x", physicalDataCols());
    faults_ = std::move(faults);
    // Open lines change what evaluation reads even without reprogramming.
    invalidateCache();
}

const CellFault &
CrossbarArray::faultAt(int row, int phys_col) const
{
    static const CellFault kNone{};
    return faults_.empty() ? kNone : faults_.cell(row, phys_col);
}

bool
CrossbarArray::openAt(int row, int phys_col) const
{
    return !faults_.empty() &&
           (faults_.rowOpen(row) || faults_.colOpen(phys_col));
}

void
CrossbarArray::planRepair(const ProgrammingConfig &config,
                          ProgramReport &report)
{
    std::iota(remap_.begin(), remap_.end(), 0);
    if (!config.repair.enabled || p_.spareCols <= 0 || faults_.empty())
        return;

    // Post-manufacture test knows the defect map; rank physical columns
    // by the defects the selected programming flow cannot correct.
    const int phys = physicalDataCols();
    std::vector<int> defects(static_cast<size_t>(phys));
    for (int p = 0; p < phys; ++p)
        defects[static_cast<size_t>(p)] =
            faults_.columnDefectCount(p, config.writeVerify.enabled);

    std::vector<char> spare_free(static_cast<size_t>(phys), 0);
    for (int s = p_.cols; s < phys; ++s)
        spare_free[static_cast<size_t>(s)] = 1;

    // Worst logical columns pick their spare first.
    std::vector<int> order(static_cast<size_t>(p_.cols));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return defects[static_cast<size_t>(a)] >
               defects[static_cast<size_t>(b)];
    });

    for (int j : order) {
        const int victim = defects[static_cast<size_t>(j)];
        if (victim <= config.repair.faultThreshold)
            break; // sorted: nothing worse follows
        int best = -1;
        for (int s = p_.cols; s < phys; ++s) {
            if (!spare_free[static_cast<size_t>(s)])
                continue;
            if (best < 0 || defects[static_cast<size_t>(s)] <
                                defects[static_cast<size_t>(best)])
                best = s;
        }
        // A spare is only worth taking when strictly healthier.
        if (best >= 0 && defects[static_cast<size_t>(best)] < victim) {
            spare_free[static_cast<size_t>(best)] = 0;
            remap_[static_cast<size_t>(j)] = best;
            ++report.repairedColumns;
        } else {
            ++report.irreparableColumns;
        }
    }
}

void
CrossbarArray::programCell(int row, int phys_col, int level,
                           const ProgrammingConfig &config,
                           const GaussianVariabilityModel &noise, Rng &rng,
                           ProgramReport &report)
{
    const int top = p_.levels - 1;
    const double step = 2.0 * gHalfSwing_ / top;
    const double g_lo = 0.25 * cell_.conductanceAp();
    const double g_hi = 2.0 * cell_.conductanceP();
    const double g_target = gMid_ + (2.0 * level / top - 1.0) * gHalfSwing_;
    ++report.cells;

    if (openAt(row, phys_col)) {
        // Unwritable either way; closed loop detects the open line on
        // the first verify read and gives up.
        ++report.pulses;
        report.programEnergy += programPulseEnergy();
        if (config.writeVerify.enabled)
            ++report.failedCells;
        cellAt(row, phys_col) = 0.0;
        return;
    }

    const CellFault fault = faultAt(row, phys_col);
    const double stuck_value = fault.kind == FaultKind::StuckHigh
                                   ? cell_.conductanceP()
                                   : cell_.conductanceAp();

    if (!config.writeVerify.enabled) {
        // Open loop: one pulse, take whatever the device lands on.
        ++report.pulses;
        report.programEnergy += programPulseEnergy();
        double g;
        if (fault.stuck()) {
            g = stuck_value;
        } else {
            int level_eff = level;
            if (fault.kind == FaultKind::Drift)
                level_eff = std::clamp(level + fault.drift, 0, top);
            g = gMid_ + (2.0 * level_eff / top - 1.0) * gHalfSwing_;
            if (p_.variationSigma > 0.0)
                g *= noise.programFactor(rng);
            if (fault.kind == FaultKind::Decay)
                g = gMid_ + (g - gMid_) * fault.decay;
            g = std::clamp(g, g_lo, g_hi);
        }
        cellAt(row, phys_col) = g;
        return;
    }

    // Closed loop: program -> sense -> trim. The controller corrects the
    // aim point by the sensed error, so systematic offsets (pinning
    // drift) cancel; per-pulse write noise shrinks as 1/pulse (trim
    // pulses displace the wall less). Retry pulses give a softly pinned
    // wall a depin chance; hard stuck cells and opens never converge.
    const WriteVerifyConfig &wv = config.writeVerify;
    const double tolerance = wv.toleranceLevels * step;
    double aim = g_target;
    double landed = stuck_value;
    bool freed = !fault.stuck();
    bool ok = false;

    for (int pulse = 1; pulse <= wv.maxPulses; ++pulse) {
        ++report.pulses;
        report.programEnergy += programPulseEnergy();
        if (!freed && pulse > 1 && !fault.hard &&
            rng.bernoulli(wv.depinProbability))
            freed = true;
        if (!freed) {
            landed = stuck_value;
        } else {
            const double factor =
                1.0 + (noise.programFactor(rng) - 1.0) / pulse;
            landed = aim * factor;
            if (fault.kind == FaultKind::Drift)
                landed += fault.drift * step;
            landed = std::clamp(landed, g_lo, g_hi);
        }
        if (std::abs(landed - g_target) <= tolerance) {
            ok = true;
            break;
        }
        aim = std::clamp(aim + (g_target - landed), g_lo, g_hi);
    }
    if (!ok)
        ++report.failedCells;

    // Retention decay acts after programming; verification cannot see it.
    if (fault.kind == FaultKind::Decay)
        landed = gMid_ + (landed - gMid_) * fault.decay;
    cellAt(row, phys_col) = landed;
}

bool
CrossbarArray::updateCell(int row, int phys_col, int current, int target,
                          const ProgrammingConfig &config,
                          const GaussianVariabilityModel &noise,
                          UpdateReport &report)
{
    const int top = p_.levels - 1;
    const double step = 2.0 * gHalfSwing_ / top;
    const double g_lo = 0.25 * cell_.conductanceAp();
    const double g_hi = 2.0 * cell_.conductanceP();
    const double g_target = gMid_ + (2.0 * target / top - 1.0) * gHalfSwing_;

    if (openAt(row, phys_col)) {
        // The line is broken: the pulse is spent, nothing moves.
        ++report.pulses;
        report.updateEnergy += programPulseEnergy();
        ++report.blockedCells;
        return false;
    }
    const CellFault fault = faultAt(row, phys_col);
    if (fault.stuck()) {
        // The single-level update pulse is gentler than the full program
        // waveform, so a pinned wall stays pinned (no depin escalation
        // on the incremental path; program() is the repair tool).
        ++report.pulses;
        report.updateEnergy += programPulseEnergy();
        ++report.blockedCells;
        return false;
    }

    const int moved = std::abs(target - current);
    if (moved == 0)
        return false;

    if (!config.writeVerify.enabled) {
        // Open loop: one pulse per level step, and the final pulse lands
        // exactly as programCell()'s open-loop write of the same target
        // level would -- drift offset, variation, decay, clamp in the
        // same order, so the differential tests can pin updateCells() to
        // a whole-array re-program().
        report.pulses += moved;
        report.updateEnergy += moved * programPulseEnergy();
        int level_eff = target;
        if (fault.kind == FaultKind::Drift)
            level_eff = std::clamp(target + fault.drift, 0, top);
        double g = gMid_ + (2.0 * level_eff / top - 1.0) * gHalfSwing_;
        if (p_.variationSigma > 0.0)
            g *= noise.programFactor(updateRng_);
        if (fault.kind == FaultKind::Decay)
            g = gMid_ + (g - gMid_) * fault.decay;
        g = std::clamp(g, g_lo, g_hi);
        cellAt(row, phys_col) = g;
        return true;
    }

    // Closed loop: the traversal steps are open pulses, the arrival
    // pulse starts programCell()'s program -> sense -> trim controller
    // (same aim correction, same 1/pulse noise shrink, same budget).
    report.pulses += moved - 1;
    report.updateEnergy += (moved - 1) * programPulseEnergy();

    const WriteVerifyConfig &wv = config.writeVerify;
    const double tolerance = wv.toleranceLevels * step;
    double aim = g_target;
    double landed = g_target;
    bool ok = false;
    for (int pulse = 1; pulse <= wv.maxPulses; ++pulse) {
        ++report.pulses;
        report.updateEnergy += programPulseEnergy();
        const double factor =
            1.0 + (noise.programFactor(updateRng_) - 1.0) / pulse;
        landed = aim * factor;
        if (fault.kind == FaultKind::Drift)
            landed += fault.drift * step;
        landed = std::clamp(landed, g_lo, g_hi);
        if (std::abs(landed - g_target) <= tolerance) {
            ok = true;
            break;
        }
        aim = std::clamp(aim + (g_target - landed), g_lo, g_hi);
    }
    if (!ok)
        ++report.failedCells;

    // Retention decay acts after programming; verification cannot see it.
    if (fault.kind == FaultKind::Decay)
        landed = gMid_ + (landed - gMid_) * fault.decay;
    cellAt(row, phys_col) = landed;
    return true;
}

UpdateReport
CrossbarArray::updateCells(const std::vector<CellUpdate> &updates,
                           const ProgrammingConfig &config)
{
    UpdateReport report;
    const GaussianVariabilityModel noise(p_.variationSigma);
    const int top = p_.levels - 1;
    bool touched = false;
    // Per-row sum of intended level movement, for the checksum column.
    std::vector<long long> row_delta;
    if (p_.abft)
        row_delta.assign(static_cast<size_t>(p_.rows), 0);
    for (const CellUpdate &u : updates) {
        NEBULA_ASSERT(u.row >= 0 && u.row < p_.rows && u.col >= 0 &&
                          u.col < p_.cols,
                      "cell update out of range: (", u.row, ", ", u.col,
                      ") on ", p_.rows, "x", p_.cols);
        if (u.delta == 0)
            continue;
        ++report.cells;
        const int current = levelAt(u.row, u.col);
        int target = current + u.delta;
        if (target < 0 || target > top) {
            target = std::clamp(target, 0, top);
            ++report.clampedCells;
        }
        report.levelSteps += std::abs(target - current);
        if (p_.abft)
            row_delta[static_cast<size_t>(u.row)] += target - current;
        if (updateCell(u.row, remap_[static_cast<size_t>(u.col)], current,
                       target, config, noise, report))
            touched = true;
    }
    if (p_.abft) {
        // Keep the checksum column tracking the *intended* state: one
        // exact verification write per touched row, billed like any
        // other pulse. A stuck/open data cell that swallowed its update
        // leaves the array deviating from intent, so the divergence the
        // checksum now reports is a true corruption, not a bookkeeping
        // artifact.
        const int chk = physicalDataCols() + 1;
        for (int i = 0; i < p_.rows; ++i) {
            const long long d = row_delta[static_cast<size_t>(i)];
            if (d == 0)
                continue;
            ++report.pulses;
            report.updateEnergy += programPulseEnergy();
            cellAt(i, chk) +=
                (2.0 * d / top / p_.cols) * gHalfSwing_;
            touched = true;
        }
    }
    if (touched)
        invalidateCache();
    return report;
}

UpdateReport
CrossbarArray::applyDelta(int row, int col, int delta,
                          const ProgrammingConfig &config)
{
    return updateCells({CellUpdate{row, col, delta}}, config);
}

int
CrossbarArray::levelAt(int row, int col) const
{
    const double norm = (conductanceAt(row, col) - gMid_) / gHalfSwing_;
    const int top = p_.levels - 1;
    const int level = static_cast<int>(std::lround((norm + 1.0) / 2.0 * top));
    return std::clamp(level, 0, top);
}

ProgramReport
CrossbarArray::program(const std::vector<float> &weights,
                       const ProgrammingConfig &config)
{
    NEBULA_ASSERT(weights.size() ==
                      static_cast<size_t>(p_.rows) * p_.cols,
                  "weight matrix size mismatch: got ", weights.size(),
                  " want ", p_.rows * p_.cols);

    ProgramReport report;
    invalidateCache();
    planRepair(config, report);

    const GaussianVariabilityModel noise(p_.variationSigma);
    Rng rng(p_.variationSeed);
    const int top = p_.levels - 1;
    const int ref = physicalDataCols();

    for (int i = 0; i < p_.rows; ++i) {
        double wq_sum = 0.0;
        for (int j = 0; j < p_.cols; ++j) {
            const double w = std::clamp<double>(
                weights[static_cast<size_t>(i) * p_.cols + j], -1.0, 1.0);
            // Quantize to the discrete DW pinning states.
            const int level =
                static_cast<int>(std::lround((w + 1.0) / 2.0 * top));
            wq_sum += 2.0 * level / top - 1.0;
            programCell(i, remap_[static_cast<size_t>(j)], level, config,
                        noise, rng, report);
        }
        // Reference column stays at G_mid (possibly with variation too).
        double gref = gMid_;
        if (p_.variationSigma > 0.0)
            gref *= noise.programFactor(rng);
        if (!faults_.empty() && faults_.rowOpen(i))
            gref = 0.0;
        cellAt(i, ref) = gref;
        if (p_.abft) {
            // Checksum column: the row-sum of the intended quantized
            // weights, scaled into the cell swing so it can be sensed
            // as one ordinary column current. Written through the
            // closed verification loop with an uncapped pulse budget
            // (one column per array can afford it), so it lands on
            // target exactly -- detection compares the noisy data
            // columns against this trusted expectation. A broken row
            // line is driven from the dedicated verification driver,
            // so the checksum cell is NOT zeroed with the data cells:
            // the dead row then reads 0 on the data side but keeps a
            // nonzero expectation, which is exactly the violation.
            ++report.pulses;
            report.programEnergy += programPulseEnergy();
            cellAt(i, ref + 1) =
                gMid_ + (wq_sum / p_.cols) * gHalfSwing_;
        }
    }
    return report;
}

void
CrossbarArray::programWeights(const std::vector<float> &weights)
{
    program(weights, ProgrammingConfig{});
}

int
CrossbarArray::physicalColumn(int col) const
{
    NEBULA_ASSERT(col >= 0 && col < p_.cols, "column out of range");
    return remap_[static_cast<size_t>(col)];
}

int
CrossbarArray::sparesUsed() const
{
    int used = 0;
    for (int p : remap_)
        used += p >= p_.cols;
    return used;
}

double
CrossbarArray::conductanceAt(int row, int col) const
{
    NEBULA_ASSERT(row >= 0 && row < p_.rows && col >= 0 && col <= p_.cols,
                  "conductanceAt out of range");
    const int phys = col == p_.cols ? physicalDataCols()
                                    : remap_[static_cast<size_t>(col)];
    return cellAt(row, phys);
}

double
CrossbarArray::weightAt(int row, int col) const
{
    return (conductanceAt(row, col) - gMid_) / gHalfSwing_;
}

double
CrossbarArray::physicalConductanceAt(int row, int phys_col) const
{
    NEBULA_ASSERT(row >= 0 && row < p_.rows && phys_col >= 0 &&
                      phys_col < physicalStride(),
                  "physicalConductanceAt out of range");
    return cellAt(row, phys_col);
}

double
CrossbarArray::currentScale() const
{
    return p_.readVoltage * gHalfSwing_;
}

double
CrossbarArray::maxColumnCurrent() const
{
    return p_.readVoltage * cell_.conductanceP() * p_.rows;
}

CrossbarArray::EvalCache &
CrossbarArray::evalCache() const
{
    EvalCache &c = cache_;
    if (c.valid)
        return c;

    const int rows = p_.rows;
    const int cols = p_.cols;
    const int ref = physicalDataCols();
    // Rows padded to whole 16-column tiles; the padding cells stay 0.
    c.stride = (static_cast<size_t>(cols) + 15) / 16 * 16;
    c.dense.assign(static_cast<size_t>(rows) * c.stride, 0.0);
    c.refCol.resize(static_cast<size_t>(rows));
    c.rowGsum.resize(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i) {
        const double *row =
            &conductance_[static_cast<size_t>(i) * physicalStride()];
        double *dense = &c.dense[static_cast<size_t>(i) * c.stride];
        // Summation order (logical columns, then reference) matches
        // testing::referenceIdeal, so the energy term is bit-identical.
        double row_g = 0.0;
        for (int j = 0; j < cols; ++j) {
            const double g = row[remap_[static_cast<size_t>(j)]];
            dense[j] = g;
            row_g += g;
        }
        c.refCol[static_cast<size_t>(i)] = row[ref];
        c.rowGsum[static_cast<size_t>(i)] = row_g + row[ref];
    }
    if (p_.abft) {
        // Checksum column view, and its read dissipation folded into
        // the per-row conductance totals: the column is sensed on
        // every evaluation, so its ohmic energy is billed with the
        // data and reference columns.
        c.chkCol.resize(static_cast<size_t>(rows));
        for (int i = 0; i < rows; ++i) {
            const double g_chk =
                conductance_[static_cast<size_t>(i) * physicalStride() +
                             ref + 1];
            c.chkCol[static_cast<size_t>(i)] = g_chk;
            c.rowGsum[static_cast<size_t>(i)] += g_chk;
        }
    }

    c.colOpen.assign(static_cast<size_t>(cols), 0);
    c.anyColOpen = false;
    if (!faults_.empty()) {
        for (int j = 0; j < cols; ++j) {
            if (faults_.colOpen(remap_[static_cast<size_t>(j)])) {
                c.colOpen[static_cast<size_t>(j)] = 1;
                c.anyColOpen = true;
            }
        }
    }
    c.active.resize(static_cast<size_t>(rows));
    c.va.resize(static_cast<size_t>(rows));
    c.valid = true;
    return c;
}

void
CrossbarArray::readWindow(const int *active, int n_active, double duration,
                          CrossbarEval &eval) const
{
    const EvalCache &c = cache_;
    const int cols = p_.cols;
    eval.currents.resize(static_cast<size_t>(cols));
    double *out = eval.currents.data();
    for (int j = 0; j < cols; j += 16)
        soloColsTile16(c.dense.data(), c.stride, active, n_active,
                       c.va.data(), j, std::min(16, cols - j), out);

    // Reference column and dissipation (and the checksum current and
    // sum of v^2 under ABFT): ascending active-row chains, split from
    // the column-current walk.
    ReadChains chains;
    for (int a = 0; a < n_active; ++a) {
        const double v = c.va[static_cast<size_t>(a)];
        const size_t i = static_cast<size_t>(active[a]);
        chains.ref += v * c.refCol[i];
        chains.power += v * v * c.rowGsum[i];
    }
    if (p_.abft) {
        for (int a = 0; a < n_active; ++a) {
            const double v = c.va[static_cast<size_t>(a)];
            chains.chk += v * c.chkCol[static_cast<size_t>(active[a])];
            chains.vsq += v * v;
        }
    }
    eval.energy = finishWindow(chains, duration, out, eval.check);
}

double
CrossbarArray::finishWindow(const ReadChains &chains, double duration,
                            double *currents, CrossbarCheck &check) const
{
    const EvalCache &c = cache_;
    for (int j = 0; j < p_.cols; ++j)
        currents[j] -= chains.ref;
    if (c.anyColOpen) {
        for (int j = 0; j < p_.cols; ++j)
            if (c.colOpen[static_cast<size_t>(j)])
                currents[j] = 0.0;
    }
    check = p_.abft ? makeCheck(currents, chains.chk, chains.ref, chains.vsq)
                    : CrossbarCheck{};
    return chains.power * duration;
}

CrossbarEval
CrossbarArray::evaluateIdeal(const std::vector<double> &inputs,
                             double duration) const
{
    CrossbarEval eval;
    evaluateIdealInto(inputs, duration, eval);
    return eval;
}

void
CrossbarArray::evaluateIdealInto(const std::vector<double> &inputs,
                                 double duration, CrossbarEval &eval) const
{
    NEBULA_ASSERT(inputs.size() == static_cast<size_t>(p_.rows),
                  "input vector size mismatch");
    EvalCache &c = evalCache();
    // Active-row gather by branch-free compaction: every row is written
    // at the next slot, which advances only if the row is driven.
    int n_active = 0;
    for (int i = 0; i < p_.rows; ++i) {
        const double v = drive(inputs[i]);
        c.active[static_cast<size_t>(n_active)] = i;
        c.va[static_cast<size_t>(n_active)] = v;
        n_active += v != 0.0;
    }
    readWindow(c.active.data(), n_active, duration, eval);
}

void
CrossbarArray::evaluateSparseInto(const SpikeVector &active,
                                  double duration, CrossbarEval &eval) const
{
    EvalCache &c = evalCache();
    const int n_active = static_cast<int>(active.size());
    NEBULA_ASSERT(n_active <= p_.rows, "more active rows than rows");
    for (int a = 0; a < n_active; ++a) {
        NEBULA_ASSERT(active[static_cast<size_t>(a)] >= 0 &&
                          active[static_cast<size_t>(a)] < p_.rows,
                      "active row out of range");
        c.va[static_cast<size_t>(a)] = p_.readVoltage;
    }
    readWindow(active.data(), n_active, duration, eval);
}

double
CrossbarArray::evaluateIndexed(const double *drive, const int *index,
                               int batch, double duration, double *currents,
                               CrossbarCheck *checks) const
{
    NEBULA_ASSERT(batch > 0, "empty evaluation batch");
    const int cols = p_.cols;
    const int rows = p_.rows;
    const EvalCache &c = evalCache();
    // Windows go in groups of four; a short last group repeats its last
    // window, whose spare results are never stored.
    double energy = 0.0;
    for (int b = 0; b < batch; b += 4) {
        const int live = std::min(4, batch - b);
        const int *win[4];
        for (int l = 0; l < 4; ++l)
            win[l] = index + static_cast<size_t>(b + std::min(l, live - 1)) *
                                 rows;
        double *out = currents + static_cast<size_t>(b) * cols;
        double ref[4], power[4], chk[4] = {}, vsq[4] = {};
        indexedGroup4(c.dense.data(), c.stride, rows, cols, drive, win, live,
                      out, c.refCol.data(), c.rowGsum.data(), ref, power);
        if (p_.abft)
            indexedChecksum4(rows, drive, win, c.chkCol.data(), chk, vsq);
        for (int l = 0; l < live; ++l)
            energy += finishWindow({ref[l], power[l], chk[l], vsq[l]},
                                   duration,
                                   out + static_cast<size_t>(l) * cols,
                                   checks[b + l]);
    }
    return energy;
}

CrossbarCheck
CrossbarArray::makeCheck(const double *currents, double chk_current,
                         double ref_current, double vsq_sum) const
{
    CrossbarCheck check;
    check.checks = 1;

    // ABFT identity: every data cell holds G_mid + wq*dG/2 and the
    // checksum cell holds G_mid + (sum_j wq)/cols * dG/2, so on a clean
    // array  sum_j I_j(raw) == cols * I_chk  exactly. The reference
    // current appears cols times on both sides of the subtracted form
    // and cancels algebraically, taking its programming noise with it.
    double observed = 0.0;
    for (int j = 0; j < p_.cols; ++j)
        observed += currents[j];
    const double expected =
        static_cast<double>(p_.cols) * (chk_current - ref_current);
    check.residual = std::abs(observed - expected);

    // Tolerance floor: half a conductance LSB at full read drive --
    // the same quantum the column ADC resolves, so anything under it
    // is invisible to the readout anyway. On top, 6 sigma of the
    // accumulated programming variation: per-cell noise is an
    // independent zero-mean factor of spread sigma on a conductance
    // bounded by G_max, and the residual sums cols cells per driven
    // row, giving Var <= sigma^2 * G_max^2 * cols * sum_i v_i^2.
    const double step_g = 2.0 * gHalfSwing_ / (p_.levels - 1);
    double tol = 0.5 * p_.readVoltage * step_g;
    if (p_.variationSigma > 0.0) {
        const double g_max = gMid_ + gHalfSwing_;
        tol += 6.0 * p_.variationSigma * g_max *
               std::sqrt(static_cast<double>(p_.cols) * vsq_sum);
    }
    check.tolerance = tol;
    check.violations = check.residual > tol ? 1 : 0;
    return check;
}

CrossbarEval
CrossbarArray::evaluateParasitic(const std::vector<double> &inputs,
                                 double duration, int max_iters,
                                 double tolerance) const
{
    NEBULA_ASSERT(inputs.size() == static_cast<size_t>(p_.rows),
                  "input vector size mismatch");

    const int rows = p_.rows;
    const int cols = physicalStride(); // data + spares + reference
    const double gw = 1.0 / p_.wireResistance;

    // Node voltages: vr (bit-line side) and vc (source-line side). The
    // solver workspace lives in the eval cache so repeated solves (the
    // supply-voltage ablation sweeps) stop churning the allocator; it
    // is fully re-initialized below, so results are unchanged.
    std::vector<double> &vr = cache_.vr;
    std::vector<double> &vc = cache_.vc;
    std::vector<double> &source = cache_.source;
    vr.assign(static_cast<size_t>(rows) * cols, 0.0);
    vc.assign(static_cast<size_t>(rows) * cols, 0.0);
    source.resize(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i)
        source[static_cast<size_t>(i)] = drive(inputs[i]);

    auto g = [&](int i, int j) {
        return conductance_[static_cast<size_t>(i) * cols + j];
    };
    auto idx = [&](int i, int j) {
        return static_cast<size_t>(i) * cols + j;
    };

    // Initial guess: ideal voltages (sources on rows, ground on columns).
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j)
            vr[idx(i, j)] = source[i];

    double delta = 0.0;
    for (int iter = 0; iter < max_iters; ++iter) {
        delta = 0.0;
        for (int i = 0; i < rows; ++i) {
            for (int j = 0; j < cols; ++j) {
                // Row node (i, j): neighbors are the driver (j == 0),
                // adjacent row nodes, and the cell to the column node.
                double num = g(i, j) * vc[idx(i, j)];
                double den = g(i, j);
                if (j == 0) {
                    num += gw * source[i];
                    den += gw;
                } else {
                    num += gw * vr[idx(i, j - 1)];
                    den += gw;
                }
                if (j + 1 < cols) {
                    num += gw * vr[idx(i, j + 1)];
                    den += gw;
                }
                const double nv = num / den;
                delta = std::max(delta, std::abs(nv - vr[idx(i, j)]));
                vr[idx(i, j)] = nv;

                // Column node (i, j): neighbors are adjacent column nodes
                // and ground (the spin neuron's magneto-metallic input)
                // at the bottom (i == rows - 1).
                double cnum = g(i, j) * vr[idx(i, j)];
                double cden = g(i, j);
                if (i > 0) {
                    cnum += gw * vc[idx(i - 1, j)];
                    cden += gw;
                }
                if (i + 1 < rows) {
                    cnum += gw * vc[idx(i + 1, j)];
                    cden += gw;
                } else {
                    // bottom node tied to ground through one wire segment
                    cden += gw;
                }
                const double ncv = cnum / cden;
                delta = std::max(delta, std::abs(ncv - vc[idx(i, j)]));
                vc[idx(i, j)] = ncv;
            }
        }
        if (delta < tolerance)
            break;
    }

    CrossbarEval eval;
    eval.currents.assign(p_.cols, 0.0);
    // Column output current = bottom node voltage / wire segment to gnd.
    const double ref = vc[idx(rows - 1, physicalDataCols())] * gw;
    for (int j = 0; j < p_.cols; ++j) {
        const int p = remap_[static_cast<size_t>(j)];
        if (!faults_.empty() && faults_.colOpen(p)) {
            eval.currents[static_cast<size_t>(j)] = 0.0;
            continue;
        }
        eval.currents[static_cast<size_t>(j)] =
            vc[idx(rows - 1, p)] * gw - ref;
    }

    // Power delivered by the row drivers.
    double power = 0.0;
    for (int i = 0; i < rows; ++i)
        power += source[i] * (source[i] - vr[idx(i, 0)]) * gw;
    eval.energy = power * duration;
    return eval;
}

} // namespace nebula
