#include "testing/reference_crossbar.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace nebula {
namespace testing {

CrossbarEval
referenceIdeal(const CrossbarArray &xbar, const std::vector<double> &inputs,
               double duration)
{
    NEBULA_ASSERT(inputs.size() == static_cast<size_t>(xbar.rows()),
                  "reference input size mismatch");
    const int rows = xbar.rows();
    const int cols = xbar.cols();
    const double read_v = xbar.params().readVoltage;

    CrossbarEval eval;
    eval.currents.assign(cols, 0.0);

    // Column by column, ascending rows: I_j = sum_i v_i * G_ij.
    for (int j = 0; j < cols; ++j) {
        double current = 0.0;
        for (int i = 0; i < rows; ++i) {
            const double v = std::clamp(inputs[i], 0.0, 1.0) * read_v;
            current += v * xbar.conductanceAt(i, j);
        }
        eval.currents[static_cast<size_t>(j)] = current;
    }

    // Shared reference column subtracted from every column current.
    double ref_current = 0.0;
    for (int i = 0; i < rows; ++i) {
        const double v = std::clamp(inputs[i], 0.0, 1.0) * read_v;
        ref_current += v * xbar.conductanceAt(i, cols);
    }
    for (auto &current : eval.currents)
        current -= ref_current;

    // Energy: V^2 * G over every driven cell (data columns + reference,
    // and the ABFT checksum column, which is sensed on every read).
    const int chk_col = cols + xbar.params().spareCols + 1;
    double power = 0.0;
    for (int i = 0; i < rows; ++i) {
        const double v = std::clamp(inputs[i], 0.0, 1.0) * read_v;
        if (v == 0.0)
            continue;
        double row_g = 0.0;
        for (int j = 0; j < cols; ++j)
            row_g += xbar.conductanceAt(i, j);
        row_g += xbar.conductanceAt(i, cols);
        if (xbar.params().abft)
            row_g += xbar.physicalConductanceAt(i, chk_col);
        power += v * v * row_g;
    }
    eval.energy = power * duration;

    // An open source-line disconnects the neuron input entirely.
    if (!xbar.faults().empty()) {
        for (int j = 0; j < cols; ++j)
            if (xbar.faults().colOpen(xbar.physicalColumn(j)))
                eval.currents[static_cast<size_t>(j)] = 0.0;
    }
    return eval;
}

CrossbarEval
referenceParasitic(const CrossbarArray &xbar,
                   const std::vector<double> &inputs, double duration,
                   int max_iters, double tolerance)
{
    NEBULA_ASSERT(inputs.size() == static_cast<size_t>(xbar.rows()),
                  "reference input size mismatch");
    const int rows = xbar.rows();
    const int cols = xbar.cols();
    // Physical node columns: data + spares + the reference column.
    const int pcols = cols + xbar.params().spareCols + 1;
    const double read_v = xbar.params().readVoltage;
    const double gw = 1.0 / xbar.params().wireResistance;

    std::vector<double> source(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i)
        source[static_cast<size_t>(i)] =
            std::clamp(inputs[i], 0.0, 1.0) * read_v;

    std::vector<double> vr(static_cast<size_t>(rows) * pcols);
    std::vector<double> vc(static_cast<size_t>(rows) * pcols, 0.0);
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < pcols; ++j)
            vr[static_cast<size_t>(i) * pcols + j] =
                source[static_cast<size_t>(i)];

    auto g = [&](int i, int j) { return xbar.physicalConductanceAt(i, j); };
    auto at = [&](std::vector<double> &v, int i, int j) -> double & {
        return v[static_cast<size_t>(i) * pcols + j];
    };

    // Gauss-Seidel relaxation of the two node grids: a row node sees
    // the driver (through one wire segment at j == 0), its row-wire
    // neighbors and the cell; a column node sees its column-wire
    // neighbors, the cell, and ground below the last row.
    for (int iter = 0; iter < max_iters; ++iter) {
        double delta = 0.0;
        for (int i = 0; i < rows; ++i) {
            for (int j = 0; j < pcols; ++j) {
                double num = g(i, j) * at(vc, i, j);
                double den = g(i, j);
                num += gw * (j == 0 ? source[static_cast<size_t>(i)]
                                    : at(vr, i, j - 1));
                den += gw;
                if (j + 1 < pcols) {
                    num += gw * at(vr, i, j + 1);
                    den += gw;
                }
                const double nv = num / den;
                delta = std::max(delta, std::abs(nv - at(vr, i, j)));
                at(vr, i, j) = nv;

                double cnum = g(i, j) * at(vr, i, j);
                double cden = g(i, j);
                if (i > 0) {
                    cnum += gw * at(vc, i - 1, j);
                    cden += gw;
                }
                if (i + 1 < rows) {
                    cnum += gw * at(vc, i + 1, j);
                    cden += gw;
                } else {
                    cden += gw; // ground through one wire segment
                }
                const double ncv = cnum / cden;
                delta = std::max(delta, std::abs(ncv - at(vc, i, j)));
                at(vc, i, j) = ncv;
            }
        }
        if (delta < tolerance)
            break;
    }

    CrossbarEval eval;
    eval.currents.assign(cols, 0.0);
    const double ref = at(vc, rows - 1, pcols - 1) * gw;
    for (int j = 0; j < cols; ++j) {
        const int p = xbar.physicalColumn(j);
        if (!xbar.faults().empty() && xbar.faults().colOpen(p)) {
            eval.currents[static_cast<size_t>(j)] = 0.0;
            continue;
        }
        eval.currents[static_cast<size_t>(j)] =
            at(vc, rows - 1, p) * gw - ref;
    }

    double power = 0.0;
    for (int i = 0; i < rows; ++i)
        power += source[static_cast<size_t>(i)] *
                 (source[static_cast<size_t>(i)] - at(vr, i, 0)) * gw;
    eval.energy = power * duration;
    return eval;
}

std::string
CaseConfig::describe() const
{
    std::ostringstream oss;
    oss << "seed=" << seed << " rows=" << rows << " cols=" << cols
        << " spares=" << spareCols << " levels=" << levels
        << " mode=" << (snnMode ? "snn" : "ann")
        << " faults=" << (withFaults ? 1 : 0)
        << " wv=" << (writeVerify ? 1 : 0) << " repair=" << (repair ? 1 : 0)
        << " abft=" << (abft ? 1 : 0) << " open=" << openCols
        << " sigma=" << variationSigma << " sparsity=" << sparsity;
    return oss.str();
}

CaseConfig
randomCase(uint64_t seed)
{
    Rng rng(seed ^ 0xd1f7ca5eull);
    CaseConfig config;
    config.seed = seed;
    config.rows = rng.uniformInt(1, 48);
    config.cols = rng.uniformInt(1, 32);
    config.spareCols = rng.bernoulli(0.5) ? rng.uniformInt(1, 4) : 0;
    config.levels = 1 << rng.uniformInt(1, 4); // 2..16 levels
    config.snnMode = rng.bernoulli(0.5);
    config.withFaults = rng.bernoulli(0.6);
    config.writeVerify = rng.bernoulli(0.5);
    config.repair = config.spareCols > 0 && rng.bernoulli(0.6);
    config.variationSigma = rng.bernoulli(0.3) ? rng.uniform(0.01, 0.15)
                                               : 0.0;
    config.sparsity = rng.uniform(0.0, 0.95);
    return config;
}

BuiltCase
buildCase(const CaseConfig &config)
{
    CrossbarParams params;
    params.rows = config.rows;
    params.cols = config.cols;
    params.spareCols = config.spareCols;
    params.levels = config.levels;
    params.readVoltage = config.snnMode ? 0.25 : 0.75;
    params.variationSigma = config.variationSigma;
    params.variationSeed = config.seed ^ 0x5eedull;
    params.abft = config.abft;

    BuiltCase built;
    built.xbar = std::make_unique<CrossbarArray>(params);

    Rng rng(config.seed ^ 0xca5e0b1dull);
    if (config.withFaults) {
        CompositeFaultModel model;
        model.add(std::make_unique<StuckAtFaultModel>(
            rng.uniform(0.0, 0.08), rng.uniform(0.2, 0.8),
            rng.uniform(0.0, 1.0)));
        model.add(std::make_unique<PinningDriftFaultModel>(
            rng.uniform(0.0, 0.08), rng.uniformInt(1, 3)));
        model.add(std::make_unique<RetentionDecayFaultModel>(
            rng.uniform(0.0, 2.0), 1.0, 0.5));
        model.add(std::make_unique<LineOpenFaultModel>(
            rng.uniform(0.0, 0.04), rng.uniform(0.0, 0.04)));
        FaultMap map(config.rows, config.cols + config.spareCols);
        model.sampleInto(map, config.seed ^ 0xfa17ull);
        built.xbar->injectFaults(std::move(map));
    }
    if (config.openCols > 0) {
        // On top of any sampled faults, from a stream of its own so no
        // other draw of the case moves.
        FaultMap map = built.xbar->faults();
        if (map.empty())
            map = FaultMap(config.rows, config.cols + config.spareCols);
        Rng open_rng(config.seed ^ 0x09e7c01ull);
        for (int n = 0; n < config.openCols; ++n)
            map.setColOpen(open_rng.uniformInt(0, map.cols() - 1));
        built.xbar->injectFaults(std::move(map));
    }

    std::vector<float> weights(static_cast<size_t>(config.rows) *
                               config.cols);
    for (auto &w : weights)
        w = static_cast<float>(rng.uniform(-1.2, 1.2));

    ProgrammingConfig pc;
    pc.writeVerify.enabled = config.writeVerify;
    pc.repair.enabled = config.repair;
    built.report = built.xbar->program(weights, pc);

    built.inputs.assign(static_cast<size_t>(config.rows), 0.0);
    for (int i = 0; i < config.rows; ++i) {
        if (rng.bernoulli(config.sparsity))
            continue;
        built.inputs[static_cast<size_t>(i)] =
            config.snnMode ? 1.0 : rng.uniform(0.0, 1.0);
        if (config.snnMode)
            built.active.push_back(i);
    }
    return built;
}

std::string
compareEval(const CrossbarEval &got, const CrossbarEval &want,
            double tolerance)
{
    std::ostringstream oss;
    if (got.currents.size() != want.currents.size()) {
        oss << "column count " << got.currents.size() << " != "
            << want.currents.size();
        return oss.str();
    }
    auto close = [&](double a, double b) {
        if (tolerance <= 0.0)
            return a == b;
        return std::abs(a - b) <=
               tolerance * std::max(1.0, std::abs(b));
    };
    for (size_t j = 0; j < want.currents.size(); ++j) {
        if (!close(got.currents[j], want.currents[j])) {
            oss.precision(17);
            oss << "column " << j << ": got " << got.currents[j]
                << " want " << want.currents[j] << " (diff "
                << got.currents[j] - want.currents[j] << ")";
            return oss.str();
        }
    }
    if (!close(got.energy, want.energy)) {
        oss.precision(17);
        oss << "energy: got " << got.energy << " want " << want.energy;
        return oss.str();
    }
    return {};
}

CaseConfig
shrinkCase(const CaseConfig &failing, const CasePredicate &still_fails,
           std::string *final_detail)
{
    CaseConfig cur = failing;
    if (final_detail)
        *final_detail = still_fails(cur);

    // Candidate simplifications, cheapest explanation first. Each is
    // kept only when the shrunk case still fails.
    auto try_apply = [&](CaseConfig candidate) {
        const std::string detail = still_fails(candidate);
        if (detail.empty())
            return false;
        cur = candidate;
        if (final_detail)
            *final_detail = detail;
        return true;
    };

    bool changed = true;
    for (int round = 0; changed && round < 64; ++round) {
        changed = false;
        if (cur.withFaults) {
            CaseConfig c = cur;
            c.withFaults = false;
            changed |= try_apply(c);
        }
        if (cur.variationSigma > 0.0) {
            CaseConfig c = cur;
            c.variationSigma = 0.0;
            changed |= try_apply(c);
        }
        if (cur.writeVerify) {
            CaseConfig c = cur;
            c.writeVerify = false;
            changed |= try_apply(c);
        }
        if (cur.repair) {
            CaseConfig c = cur;
            c.repair = false;
            changed |= try_apply(c);
        }
        if (cur.abft) {
            CaseConfig c = cur;
            c.abft = false;
            changed |= try_apply(c);
        }
        if (cur.openCols > 0) {
            CaseConfig c = cur;
            c.openCols = 0;
            changed |= try_apply(c);
        }
        if (cur.spareCols > 0 && !cur.repair) {
            CaseConfig c = cur;
            c.spareCols = 0;
            changed |= try_apply(c);
        }
        if (cur.rows > 1) {
            CaseConfig c = cur;
            c.rows = cur.rows / 2;
            changed |= try_apply(c);
        }
        if (cur.cols > 1) {
            CaseConfig c = cur;
            c.cols = cur.cols / 2;
            changed |= try_apply(c);
        }
        if (cur.sparsity < 0.9) {
            CaseConfig c = cur;
            c.sparsity = 0.5 * (1.0 + cur.sparsity);
            changed |= try_apply(c);
        }
    }
    return cur;
}

} // namespace testing
} // namespace nebula
