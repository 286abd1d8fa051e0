/**
 * @file
 * Differential-testing harness for the crossbar fast evaluation paths.
 *
 * The production evaluators in src/circuit/crossbar.cpp are optimized
 * (cached remapped conductance views, sparse active-row walks, batched
 * windows, reused solver workspaces). This harness pins them to a
 * deliberately naive, obviously-correct reference:
 *
 *  - referenceIdeal: textbook column-by-column Kirchhoff summation read
 *    through the public logical-view accessors, no caching;
 *  - referenceParasitic: an independent re-derivation of the nodal
 *    Gauss-Seidel relaxation with fresh storage every call.
 *
 * Around the reference sit seeded case generators (random geometry,
 * spare columns, fault maps, mitigations, input sparsity) and a
 * shrinking loop that reduces a failing case to a minimal reproducer
 * before reporting, so a differential failure names the smallest
 * geometry and the exact seed that still breaks.
 */

#ifndef NEBULA_TESTING_REFERENCE_CROSSBAR_HPP
#define NEBULA_TESTING_REFERENCE_CROSSBAR_HPP

#include <functional>
#include <memory>
#include <string>

#include "circuit/crossbar.hpp"

namespace nebula {
namespace testing {

/**
 * Naive ideal evaluation: per logical column, sum v_i * G_ij over rows
 * through conductanceAt(), subtract the reference-column current, zero
 * open columns. Energy bills every cell of a driven row: data,
 * reference and, with abft, the checksum column. Accumulation runs in
 * ascending row order per column, so a correct fast path must match it
 * bit-for-bit. The ABFT verdict itself is not modelled (check stays
 * empty).
 */
CrossbarEval referenceIdeal(const CrossbarArray &xbar,
                            const std::vector<double> &inputs,
                            double duration);

/**
 * Naive parasitic evaluation: independent nodal Gauss-Seidel relaxation
 * over the full physical array (data + spares + reference), fresh
 * storage each call. Fast-path results must agree within the solver
 * tolerance.
 */
CrossbarEval referenceParasitic(const CrossbarArray &xbar,
                                const std::vector<double> &inputs,
                                double duration, int max_iters = 400,
                                double tolerance = 1e-9);

/** One randomized differential case, fully derived from `seed`. */
struct CaseConfig
{
    uint64_t seed = 0;
    int rows = 8;
    int cols = 8;
    int spareCols = 0;
    int levels = 16;
    bool snnMode = false;     //!< 0.25 V / binary drivers
    bool withFaults = false;  //!< sample a composite fault map
    bool writeVerify = false;
    bool repair = false;
    bool abft = false;        //!< program the ABFT checksum column
    double variationSigma = 0.0;
    double sparsity = 0.0;    //!< fraction of zero input rows

    std::string describe() const;
};

/** A generated case: programmed array + matching inputs. */
struct BuiltCase
{
    std::unique_ptr<CrossbarArray> xbar;
    std::vector<double> inputs; //!< one voltage factor per row
    SpikeVector active;         //!< ascending nonzero rows (snnMode)
    ProgramReport report;
};

/** Derive a full random case from one seed. */
CaseConfig randomCase(uint64_t seed);

/**
 * Materialize a case: build the array (optionally fault-injected),
 * program random weights with the configured mitigations, and draw the
 * input vector at the configured sparsity.
 */
BuiltCase buildCase(const CaseConfig &config);

/**
 * Compare two evaluations. @p tolerance 0 demands bit-exact equality;
 * otherwise |got - want| <= tolerance * max(1, |want|) per column and
 * for the energy. Returns an empty string on match, else a description
 * of the first mismatch.
 */
std::string compareEval(const CrossbarEval &got, const CrossbarEval &want,
                        double tolerance);

/**
 * Shrink a failing case: repeatedly simplify (drop faults/mitigations/
 * spares, halve geometry, raise sparsity) while @p still_fails keeps
 * returning a non-empty mismatch, then return the minimal failing
 * config and its mismatch text. Used by the differential tests to turn
 * a random failure into a one-line reproducer.
 */
using CasePredicate = std::function<std::string(const CaseConfig &)>;
CaseConfig shrinkCase(const CaseConfig &failing,
                      const CasePredicate &still_fails,
                      std::string *final_detail);

} // namespace testing
} // namespace nebula

#endif // NEBULA_TESTING_REFERENCE_CROSSBAR_HPP
