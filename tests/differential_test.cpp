/**
 * @file
 * Differential tests pinning the crossbar fast evaluation paths (cached
 * ideal, sparse spike-driven, indexed conv, parasitic-with-workspace) to the
 * naive reference model in src/testing. Each path sweeps hundreds of
 * seeded random cases over geometry, spare columns, fault maps,
 * mitigations and input sparsity; a mismatch is shrunk to a minimal
 * reproducer before being reported.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>

#include "testing/reference_crossbar.hpp"

namespace nebula {
namespace testing {
namespace {

constexpr double kCycle = 110e-9;

/** Run @p cases seeded cases; shrink and report the first failure. */
void
runCases(int cases, uint64_t seed_base,
         const std::function<CaseConfig(uint64_t)> &generate,
         const CasePredicate &mismatch)
{
    for (int k = 0; k < cases; ++k) {
        const uint64_t seed = seed_base + static_cast<uint64_t>(k);
        const CaseConfig config = generate(seed);
        const std::string detail = mismatch(config);
        if (detail.empty())
            continue;
        std::string min_detail;
        const CaseConfig minimal = shrinkCase(config, mismatch, &min_detail);
        FAIL() << "differential mismatch: " << detail
               << "\n  original: " << config.describe()
               << "\n  minimal:  " << minimal.describe()
               << "\n  minimal mismatch: " << min_detail;
    }
}

TEST(Differential, IdealMatchesReferenceBitExact)
{
    runCases(
        600, 1000, randomCase, [](const CaseConfig &config) {
            BuiltCase built = buildCase(config);
            const CrossbarEval got =
                built.xbar->evaluateIdeal(built.inputs, kCycle);
            const CrossbarEval want =
                referenceIdeal(*built.xbar, built.inputs, kCycle);
            return compareEval(got, want, 0.0);
        });
}

/**
 * Program the ABFT checksum column on half the cases. The flag is drawn
 * here, not in randomCase, so no other test's cases move.
 */
CaseConfig
withAbft(CaseConfig config)
{
    config.abft = Rng(config.seed ^ 0xabf7ull).bernoulli(0.5);
    return config;
}

/** First difference between two ABFT verdicts, or empty. */
std::string
compareCheck(const CrossbarCheck &got, const CrossbarCheck &want)
{
    if (got.checks == want.checks && got.violations == want.violations &&
        got.residual == want.residual && got.tolerance == want.tolerance)
        return std::string();
    std::ostringstream out;
    out.precision(17);
    out << "ABFT check " << got.checks << "/" << got.violations
        << " residual " << got.residual << " tol " << got.tolerance
        << " != " << want.checks << "/" << want.violations << " residual "
        << want.residual << " tol " << want.tolerance;
    return out.str();
}

TEST(Differential, SparseMatchesReferenceBitExact)
{
    // Spike-driven path: active-row list against the densified naive
    // evaluation, across sparsity levels from near-dense to one spike,
    // with the checksum column on half the cases. Both fast reads go
    // through their Into forms, each reusing one result across every
    // case: a result left by a wider array or an ABFT case must not
    // leak columns or a verdict into the next case.
    CrossbarEval got;
    CrossbarEval dense;
    runCases(
        600, 3000,
        [](uint64_t seed) {
            CaseConfig config = withAbft(randomCase(seed));
            config.snnMode = true;
            return config;
        },
        [&](const CaseConfig &config) {
            BuiltCase built = buildCase(config);
            built.xbar->evaluateSparseInto(built.active, kCycle, got);
            const CrossbarEval want =
                referenceIdeal(*built.xbar, built.inputs, kCycle);
            std::string detail = compareEval(got, want, 0.0);
            if (!detail.empty())
                return "sparse vs reference: " + detail;
            if (got.check.checks != (config.abft ? 1 : 0))
                return std::string("sparse read ABFT check count ") +
                       std::to_string(got.check.checks);
            // And against the dense fast path, which must be identical.
            built.xbar->evaluateIdealInto(built.inputs, kCycle, dense);
            detail = compareEval(got, dense, 0.0);
            if (detail.empty())
                detail = compareCheck(got.check, dense.check);
            if (!detail.empty())
                return "sparse vs dense fast path: " + detail;
            return std::string();
        });
}

/**
 * Compare the indexed conv read against per-window solo evaluateIdeal
 * of the gathered windows: currents and ABFT checks bit-exact per
 * window, energy equal to the window-order sum of the solo energies,
 * and nothing written past the batch.
 *
 * The case's rows become one conv window of channels x k x k, with k
 * the largest of 5, 3 and 2 whose square divides the rows (1 when none
 * does, or on a coin flip), over a random input with stride 1 or 2 and
 * padding 0..k-1; the batch is a run of consecutive windows of its
 * im2col table, from anywhere in the output plane. An input element is
 * dark (+0.0 or -0.0) at the case's sparsity and otherwise drawn from
 * [-0.1, 1.1], so the drive clamp acts on both ends.
 */
std::string
compareIndexedToSolo(const CaseConfig &config, int min_batch, int max_batch)
{
    BuiltCase built = buildCase(config);
    const CrossbarArray &xbar = *built.xbar;
    Rng rng(config.seed ^ 0x1d3c0ull);
    const int rows = xbar.rows();
    const int cols = xbar.cols();
    int k = 1;
    for (int side : {5, 3, 2}) {
        if (rows % (side * side) == 0 && rng.bernoulli(0.8)) {
            k = side;
            break;
        }
    }
    const int channels = rows / (k * k);
    const int stride = rng.uniformInt(1, 2);
    const int pad = rng.uniformInt(0, k - 1);
    const int in_h = rng.uniformInt(k, k + 5);
    const int in_w = rng.uniformInt(k, k + 9);
    const int out_h = (in_h + 2 * pad - k) / stride + 1;
    const int out_w = (in_w + 2 * pad - k) / stride + 1;

    std::vector<int> table;
    for (int oh = 0; oh < out_h; ++oh)
        for (int ow = 0; ow < out_w; ++ow)
            for (int c = 0; c < channels; ++c)
                for (int kh = 0; kh < k; ++kh)
                    for (int kw = 0; kw < k; ++kw) {
                        const int ih = oh * stride - pad + kh;
                        const int iw = ow * stride - pad + kw;
                        table.push_back(
                            ih < 0 || ih >= in_h || iw < 0 || iw >= in_w
                                ? -1
                                : (c * in_h + ih) * in_w + iw);
                    }
    const int windows = out_h * out_w;
    const int batch =
        std::min(windows, rng.uniformInt(min_batch, max_batch));
    const int first = rng.uniformInt(0, windows - batch);

    std::vector<double> x(static_cast<size_t>(channels) * in_h * in_w);
    for (double &v : x)
        v = rng.bernoulli(config.sparsity)
                ? (rng.bernoulli(0.5) ? 0.0 : -0.0)
                : rng.uniform(-0.1, 1.1);
    std::vector<double> drive(x.size() + 1, 0.0); // dark entry first
    for (size_t e = 0; e < x.size(); ++e)
        drive[e + 1] = xbar.drive(x[e]);

    // Sentinels past the batch, and verdicts that must be overwritten.
    constexpr double kSentinel = 12345.0;
    std::vector<double> currents(static_cast<size_t>(batch + 4) * cols,
                                 kSentinel);
    std::vector<CrossbarCheck> checks(static_cast<size_t>(batch),
                                      CrossbarCheck{7, 7, -1.0, -1.0});
    const int *index = table.data() + static_cast<size_t>(first) * rows;
    const double energy = xbar.evaluateIndexed(
        drive.data() + 1, index, batch, kCycle, currents.data(),
        checks.data());
    for (size_t e = static_cast<size_t>(batch) * cols; e < currents.size();
         ++e)
        if (currents[e] != kSentinel)
            return "indexed read wrote past its batch";

    std::vector<double> window(static_cast<size_t>(rows));
    double energy_sum = 0.0;
    for (int b = 0; b < batch; ++b) {
        for (int i = 0; i < rows; ++i) {
            const int idx = index[static_cast<size_t>(b) * rows + i];
            window[static_cast<size_t>(i)] =
                idx < 0 ? 0.0 : x[static_cast<size_t>(idx)];
        }
        const CrossbarEval solo = xbar.evaluateIdeal(window, kCycle);
        std::ostringstream out;
        out.precision(17);
        out << "k=" << k << " stride=" << stride << " pad=" << pad
            << " batch=" << batch << " window " << b << ": ";
        for (int c = 0; c < cols; ++c) {
            const double got = currents[static_cast<size_t>(b) * cols + c];
            if (got != solo.currents[static_cast<size_t>(c)]) {
                out << "col " << c << ": indexed " << got << " != solo "
                    << solo.currents[static_cast<size_t>(c)];
                return out.str();
            }
        }
        const std::string detail =
            compareCheck(checks[static_cast<size_t>(b)], solo.check);
        if (!detail.empty())
            return out.str() + "indexed vs solo " + detail;
        energy_sum += solo.energy;
    }
    if (energy != energy_sum)
        return "indexed energy is not the window-order sum of solo energies";
    return std::string();
}

TEST(Differential, BatchMatchesSingleEvalBitExact)
{
    // The ANN conv read (evaluateIndexed) against the solo read of each
    // gathered window. Half the cases program the ABFT checksum column,
    // so the per-window verdicts the conv path bills are pinned too.
    // randomCase sweeps geometry, spare columns, fault maps, mitigations
    // and input sparsity; batches of 1 to 13 windows cover every
    // remainder of the kernel's 4-window register blocking.
    runCases(
        500, 7000,
        [](uint64_t seed) { return withAbft(randomCase(seed)); },
        [](const CaseConfig &config) {
            return compareIndexedToSolo(config, 1, 13);
        });
    // Force the reliability machinery on every case: stuck cells,
    // write-verify, an open column or two and spare-column remapping
    // must be invisible to the indexed kernel (it reads the same
    // remapped conductance view and zeroes the same open columns).
    runCases(
        150, 7600,
        [](uint64_t seed) {
            CaseConfig config = withAbft(randomCase(seed));
            config.withFaults = true;
            config.writeVerify = true;
            config.repair = true;
            config.openCols = Rng(seed ^ 0x0be2ull).uniformInt(1, 2);
            if (config.spareCols == 0)
                config.spareCols = 1;
            return config;
        },
        [](const CaseConfig &config) {
            return compareIndexedToSolo(config, 1, 11);
        });
    // Production shapes: LeNet-5 conv1 windows (1 or 2 channels of 5x5,
    // 16 per output row at 16 px) or 3x3 windows, on narrow column
    // groups (conv1 has 6 kernels), full four-window groups plus a
    // remainder through one call.
    runCases(
        240, 9000,
        [](uint64_t seed) {
            CaseConfig config = withAbft(randomCase(seed));
            Rng rng(seed ^ 0xc015ull);
            config.cols = rng.uniformInt(1, 7);
            config.rows = rng.uniformInt(1, 2) * (rng.bernoulli(0.5) ? 25 : 9);
            return config;
        },
        [](const CaseConfig &config) {
            return compareIndexedToSolo(config, 9, 32);
        });
}

TEST(Differential, ParasiticMatchesReferenceWithinTolerance)
{
    // Full nodal solves stay small so every case converges well inside
    // the iteration budget; the workspace-reusing production solver
    // must agree with the fresh-storage reference to solver precision.
    runCases(
        500, 5000,
        [](uint64_t seed) {
            CaseConfig config = randomCase(seed);
            Rng rng(seed ^ 0x9a4aull);
            config.rows = rng.uniformInt(1, 10);
            config.cols = rng.uniformInt(1, 8);
            config.spareCols = std::min(config.spareCols, 2);
            config.repair = config.repair && config.spareCols > 0;
            return config;
        },
        [](const CaseConfig &config) {
            BuiltCase built = buildCase(config);
            const CrossbarEval got =
                built.xbar->evaluateParasitic(built.inputs, kCycle);
            const CrossbarEval want = referenceParasitic(
                *built.xbar, built.inputs, kCycle);
            return compareEval(got, want, 1e-8);
        });
}

TEST(Differential, ParasiticWorkspaceReuseIsRepeatable)
{
    // Back-to-back solves share the cached workspace; any residue from
    // the first solve leaking into the second would show here.
    runCases(
        60, 6000,
        [](uint64_t seed) {
            CaseConfig config = randomCase(seed);
            Rng rng(seed ^ 0x9a4bull);
            config.rows = rng.uniformInt(1, 10);
            config.cols = rng.uniformInt(1, 8);
            return config;
        },
        [](const CaseConfig &config) {
            BuiltCase built = buildCase(config);
            const CrossbarEval first =
                built.xbar->evaluateParasitic(built.inputs, kCycle);
            const CrossbarEval second =
                built.xbar->evaluateParasitic(built.inputs, kCycle);
            return compareEval(second, first, 0.0);
        });
}

} // namespace
} // namespace testing
} // namespace nebula
