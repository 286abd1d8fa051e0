/**
 * @file
 * Differential tests pinning the crossbar fast evaluation paths (cached
 * ideal, sparse spike-driven, row-batched, parasitic-with-workspace) to the
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
 * Compare a row-batched evaluation against per-window solo
 * evaluateIdeal: currents and ABFT checks bit-exact per window, total
 * energy equal to the window-order sum of the solo energies.
 *
 * Without @p mixed_dark each window entry is dark (+0.0) with the
 * case's sparsity. With it each row is dark in every window, in none,
 * or in a random subset -- so a register-blocked window group sees rows
 * only some of its windows drive -- and a dark entry is +0.0 or -0.0.
 */
std::string
compareBatchToSolo(const CaseConfig &config, int min_batch, int max_batch,
                   bool mixed_dark = false)
{
    BuiltCase built = buildCase(config);
    Rng rng(config.seed ^ 0xb47c41ull);
    const int rows = built.xbar->rows();
    const int cols = built.xbar->cols();
    const int batch = rng.uniformInt(min_batch, max_batch);
    std::vector<double> windows(static_cast<size_t>(batch) * rows);
    if (!mixed_dark) {
        for (auto &v : windows)
            v = rng.bernoulli(config.sparsity) ? 0.0
                                               : rng.uniform(0.0, 1.0);
    } else {
        auto dark = [&] { return rng.bernoulli(0.5) ? 0.0 : -0.0; };
        for (int i = 0; i < rows; ++i) {
            const double all_dark = config.sparsity;
            const double pick = rng.uniform(0.0, 1.0);
            for (int b = 0; b < batch; ++b) {
                const bool is_dark = pick < all_dark ||
                                     (pick < (1.0 + all_dark) / 2.0 &&
                                      rng.bernoulli(0.5));
                windows[static_cast<size_t>(b) * rows + i] =
                    is_dark ? dark() : rng.uniform(0.0, 1.0);
            }
        }
    }

    const CrossbarBatchEval got =
        built.xbar->evaluateIdealBatch(windows, batch, kCycle);
    if (got.currents.size() != static_cast<size_t>(batch) * cols)
        return "batched currents size mismatch";
    if (got.checks.size() != (config.abft ? static_cast<size_t>(batch) : 0))
        return "per-window ABFT checks size mismatch";

    std::vector<double> window(static_cast<size_t>(rows));
    double energy_sum = 0.0;
    for (int b = 0; b < batch; ++b) {
        std::copy_n(windows.begin() + static_cast<size_t>(b) * rows, rows,
                    window.begin());
        const CrossbarEval solo = built.xbar->evaluateIdeal(window, kCycle);
        std::ostringstream out;
        out.precision(17);
        for (int c = 0; c < cols; ++c) {
            const double batched =
                got.currents[static_cast<size_t>(b) * cols + c];
            if (batched != solo.currents[static_cast<size_t>(c)]) {
                out << "window " << b << " col " << c << ": batched "
                    << batched << " != solo "
                    << solo.currents[static_cast<size_t>(c)];
                return out.str();
            }
        }
        if (config.abft) {
            const std::string detail =
                compareCheck(got.checks[static_cast<size_t>(b)], solo.check);
            if (!detail.empty())
                return "window " + std::to_string(b) + " batched vs solo " +
                       detail;
        }
        energy_sum += solo.energy;
    }
    if (got.energy != energy_sum)
        return "batch energy is not the window-order sum of solo energies";
    return std::string();
}

TEST(Differential, BatchMatchesSingleEvalBitExact)
{
    // Half the cases program the ABFT checksum column, so the per-window
    // verdicts the solo ANN conv path bills are pinned too.
    // randomCase sweeps geometry, spare columns, fault maps, mitigations
    // and input sparsity; batch-of-2 is the smallest batch and 8 crosses
    // the kernel's 4-window register-blocking boundary.
    runCases(
        500, 7000,
        [](uint64_t seed) { return withAbft(randomCase(seed)); },
        [](const CaseConfig &config) {
            return compareBatchToSolo(config, 2, 8);
        });
    // Force the reliability machinery on every case: stuck cells,
    // write-verify and spare-column remapping must be invisible to the
    // batched kernel (it reads the same remapped conductance view).
    runCases(
        150, 7600,
        [](uint64_t seed) {
            CaseConfig config = withAbft(randomCase(seed));
            config.withFaults = true;
            config.writeVerify = true;
            config.repair = true;
            if (config.spareCols == 0)
                config.spareCols = 1;
            return config;
        },
        [](const CaseConfig &config) {
            return compareBatchToSolo(config, 2, 6);
        });
    // Production batch sizes: a conv row passes one window per output
    // column (16 for conv1 at 16 px), so full four-window groups plus a
    // remainder go through one call, on narrow column groups (conv1 has
    // 6 kernels), with -0.0 drives and rows dark in only some windows.
    runCases(
        240, 9000,
        [](uint64_t seed) {
            CaseConfig config = withAbft(randomCase(seed));
            config.cols = Rng(seed ^ 0xc015ull).uniformInt(1, 7);
            return config;
        },
        [](const CaseConfig &config) {
            return compareBatchToSolo(config, 9, 32, true);
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
