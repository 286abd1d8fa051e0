/**
 * @file
 * Tests for the crossbar, drivers, ADC, neuron units and the Table III
 * component database.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "circuit/adc.hpp"
#include "circuit/component_db.hpp"
#include "circuit/crossbar.hpp"
#include "circuit/driver.hpp"
#include "circuit/neuron_unit.hpp"
#include "circuit/sense.hpp"
#include "common/rng.hpp"
#include "common/rounding.hpp"
#include "common/units.hpp"
#include "device/neuron_device.hpp"

namespace nebula {
namespace {

using namespace units;

/** Build a small crossbar with the given weights programmed. */
CrossbarArray
makeCrossbar(int rows, int cols, const std::vector<float> &weights,
             double variation = 0.0)
{
    CrossbarParams p;
    p.rows = rows;
    p.cols = cols;
    p.variationSigma = variation;
    CrossbarArray xbar(p);
    xbar.programWeights(weights);
    return xbar;
}

/** Reference signed dot product with the same quantization the array does. */
std::vector<double>
referenceDotProduct(int rows, int cols, const std::vector<float> &weights,
                    const std::vector<double> &inputs, int levels = 16)
{
    std::vector<double> out(cols, 0.0);
    for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < cols; ++j) {
            double w = std::clamp<double>(weights[i * cols + j], -1., 1.);
            const int level = static_cast<int>(
                std::lround((w + 1.0) / 2.0 * (levels - 1)));
            w = 2.0 * level / (levels - 1) - 1.0;
            out[j] += w * std::clamp(inputs[i], 0.0, 1.0);
        }
    }
    return out;
}

TEST(Crossbar, IdealMatchesReferenceDotProduct)
{
    const int rows = 16, cols = 8;
    std::vector<float> w(rows * cols);
    for (size_t k = 0; k < w.size(); ++k)
        w[k] = static_cast<float>(std::sin(0.7 * k));
    auto xbar = makeCrossbar(rows, cols, w);

    std::vector<double> x(rows);
    for (int i = 0; i < rows; ++i)
        x[i] = (i % 4) / 3.0;

    const auto eval = xbar.evaluateIdeal(x, 110 * ns);
    const auto ref = referenceDotProduct(rows, cols, w, x);
    const double kappa = xbar.currentScale();
    for (int j = 0; j < cols; ++j)
        EXPECT_NEAR(eval.currents[j] / kappa, ref[j], 1e-6) << "col " << j;
}

TEST(Crossbar, ZeroInputGivesZeroCurrentAndEnergy)
{
    auto xbar = makeCrossbar(8, 8, std::vector<float>(64, 0.5f));
    const auto eval = xbar.evaluateIdeal(std::vector<double>(8, 0.0),
                                         110 * ns);
    for (double i : eval.currents)
        EXPECT_DOUBLE_EQ(i, 0.0);
    EXPECT_DOUBLE_EQ(eval.energy, 0.0);
}

TEST(Crossbar, NegativeWeightsGiveNegativeCurrents)
{
    auto xbar = makeCrossbar(4, 2, std::vector<float>(8, -1.0f));
    const auto eval =
        xbar.evaluateIdeal(std::vector<double>(4, 1.0), 110 * ns);
    for (double i : eval.currents)
        EXPECT_LT(i, 0.0);
}

TEST(Crossbar, WeightRoundTrip)
{
    const int rows = 4, cols = 4;
    std::vector<float> w(rows * cols);
    for (int k = 0; k < rows * cols; ++k)
        w[k] = -1.0f + 2.0f * k / (rows * cols - 1);
    auto xbar = makeCrossbar(rows, cols, w);
    for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < cols; ++j) {
            // Max quantization error is half a level of the 16-level cell.
            EXPECT_NEAR(xbar.weightAt(i, j), w[i * cols + j], 1.0 / 15.0);
        }
    }
}

TEST(Crossbar, EnergyScalesWithVoltageSquared)
{
    CrossbarParams p;
    p.rows = p.cols = 8;
    std::vector<float> w(64, 0.3f);

    p.readVoltage = 0.25;
    CrossbarArray low(p);
    low.programWeights(w);
    p.readVoltage = 0.75;
    CrossbarArray high(p);
    high.programWeights(w);

    std::vector<double> x(8, 1.0);
    const double e_low = low.evaluateIdeal(x, 110 * ns).energy;
    const double e_high = high.evaluateIdeal(x, 110 * ns).energy;
    EXPECT_NEAR(e_high / e_low, 9.0, 1e-6);
}

TEST(Crossbar, SparseInputsUseLessEnergy)
{
    // The SNN mode's activity-proportional energy: fewer active rows,
    // less ohmic dissipation (paper Sec. V-C).
    auto xbar = makeCrossbar(16, 16, std::vector<float>(256, 0.5f));
    std::vector<double> dense(16, 1.0);
    std::vector<double> sparse(16, 0.0);
    sparse[3] = 1.0;
    const double e_dense = xbar.evaluateIdeal(dense, 110 * ns).energy;
    const double e_sparse = xbar.evaluateIdeal(sparse, 110 * ns).energy;
    EXPECT_NEAR(e_dense / e_sparse, 16.0, 1e-6);
}

TEST(Crossbar, ParasiticApproachesIdealForSmallWireResistance)
{
    CrossbarParams p;
    p.rows = p.cols = 8;
    p.wireResistance = 1e-4;
    std::vector<float> w(64);
    for (size_t k = 0; k < w.size(); ++k)
        w[k] = static_cast<float>(std::cos(0.3 * k));
    CrossbarArray xbar(p);
    xbar.programWeights(w);

    std::vector<double> x(8);
    for (int i = 0; i < 8; ++i)
        x[i] = (i + 1) / 8.0;

    const auto ideal = xbar.evaluateIdeal(x, 110 * ns);
    const auto para = xbar.evaluateParasitic(x, 110 * ns, 2000, 1e-12);
    for (int j = 0; j < 8; ++j) {
        EXPECT_NEAR(para.currents[j], ideal.currents[j],
                    2e-3 * std::abs(ideal.currents[j]) + 1e-9)
            << "col " << j;
    }
}

TEST(Crossbar, ParasiticDegradesWithWireResistance)
{
    // IR drop reduces the delivered dot-product current; larger wire
    // resistance -> more degradation (Sec. V-C design tradeoff).
    std::vector<float> w(32 * 32, 1.0f);
    std::vector<double> x(32, 1.0);

    CrossbarParams p;
    p.rows = p.cols = 32;

    p.wireResistance = 0.5;
    CrossbarArray mild(p);
    mild.programWeights(w);
    p.wireResistance = 8.0;
    CrossbarArray harsh(p);
    harsh.programWeights(w);

    const auto ideal = mild.evaluateIdeal(x, 110 * ns);
    const auto e_mild = mild.evaluateParasitic(x, 110 * ns);
    const auto e_harsh = harsh.evaluateParasitic(x, 110 * ns);

    // Compare the worst (far) column.
    const int j = 31;
    const double loss_mild = 1.0 - e_mild.currents[j] / ideal.currents[j];
    const double loss_harsh = 1.0 - e_harsh.currents[j] / ideal.currents[j];
    EXPECT_GT(loss_harsh, loss_mild);
    EXPECT_GT(loss_mild, 0.0);
}

TEST(Crossbar, VariationPerturbsButPreservesSign)
{
    std::vector<float> w(64, 0.8f);
    auto clean = makeCrossbar(8, 8, w);
    auto noisy = makeCrossbar(8, 8, w, 0.10);

    std::vector<double> x(8, 1.0);
    const auto a = clean.evaluateIdeal(x, 110 * ns);
    const auto b = noisy.evaluateIdeal(x, 110 * ns);
    double max_rel = 0.0;
    for (int j = 0; j < 8; ++j) {
        EXPECT_GT(b.currents[j], 0.0);
        max_rel = std::max(max_rel, std::abs(b.currents[j] - a.currents[j]) /
                                        std::abs(a.currents[j]));
    }
    EXPECT_GT(max_rel, 0.001);
    EXPECT_LT(max_rel, 0.6);
}

TEST(Crossbar, MaxColumnCurrentBoundsEvaluation)
{
    auto xbar = makeCrossbar(16, 4, std::vector<float>(64, 1.0f));
    const auto eval =
        xbar.evaluateIdeal(std::vector<double>(16, 1.0), 110 * ns);
    for (double i : eval.currents)
        EXPECT_LE(std::abs(i), xbar.maxColumnCurrent());
}

class DacBits : public ::testing::TestWithParam<int>
{
};

TEST_P(DacBits, QuantizeRoundTripWithinHalfStep)
{
    DacDriver dac(GetParam());
    const double step = 1.0 / (dac.levels() - 1);
    for (double v = 0.0; v <= 1.0; v += 0.01) {
        const double rec = dac.normalizedOutput(dac.quantize(v));
        EXPECT_NEAR(rec, v, step / 2 + 1e-12) << "v=" << v;
    }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, DacBits, ::testing::Values(1, 2, 4, 8));

TEST(Dac, ClipsOutOfRange)
{
    DacDriver dac(4);
    EXPECT_EQ(dac.quantize(-0.5), 0);
    EXPECT_EQ(dac.quantize(1.5), 15);
}

TEST(Rounding, InlineMatchesLibm)
{
    // DAC codes and the neuron readout index round through
    // roundNonNegative instead of libm: it must give lround's (DAC) and
    // round's (readout) half-away-from-zero result on every tie and
    // near-tie of the range, on both zeros and on random values.
    long long mismatches = 0;
    auto check = [&](double q) {
        const int got = roundNonNegative(q);
        if (got != std::lround(q) || got != static_cast<int>(std::round(q))) {
            ++mismatches;
            ADD_FAILURE() << std::hexfloat << "q=" << q << " gave " << got;
        }
    };
    for (int k = 0; k <= 64; ++k) {
        for (const double base : {k + 0.0, k + 0.5}) {
            double up = base, down = base;
            for (int ulp = 0; ulp <= 64; ++ulp) {
                check(up);
                check(down);
                up = std::nextafter(up, HUGE_VAL);
                down = std::nextafter(down, -HUGE_VAL);
            }
        }
    }
    check(0.0);
    check(-0.0);

    Rng rng(0x40d0);
    const DacDriver dac(4);
    const int top = dac.levels() - 1;
    for (int n = 0; n < 1000000 && mismatches == 0; ++n) {
        check(rng.uniform(0.0, 64.0));
        const double x = rng.uniform(-0.25, 1.25);
        const long long want = std::lround(std::clamp(x, 0.0, 1.0) * top);
        if (dac.quantize(x) != want) {
            ++mismatches;
            ADD_FAILURE() << std::hexfloat << "DAC x=" << x;
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Dac, DriveVectorized)
{
    DacDriver dac(4);
    const auto out = dac.drive({0.0, 0.5, 1.0});
    ASSERT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out[0], 0.0);
    EXPECT_NEAR(out[1], 0.5, 1.0 / 30);
    EXPECT_DOUBLE_EQ(out[2], 1.0);
}

TEST(SpikeDriver, BinaryOutput)
{
    SpikeDriver driver;
    const auto out = driver.drive({1, 0, 1, 1});
    ASSERT_EQ(out.size(), 4u);
    EXPECT_DOUBLE_EQ(out[0], 1.0);
    EXPECT_DOUBLE_EQ(out[1], 0.0);
    EXPECT_DOUBLE_EQ(out[2], 1.0);
}

TEST(AdcModel, SignedCodesAndReconstruction)
{
    Adc adc(4, 2.0);
    EXPECT_EQ(adc.convert(2.0), 7);
    EXPECT_EQ(adc.convert(-2.0), -7);
    EXPECT_EQ(adc.convert(0.0), 0);
    EXPECT_EQ(adc.conversions(), 3);
    EXPECT_NEAR(adc.reconstruct(7), 2.0, 1e-12);
}

TEST(AdcModel, ClampsOverRange)
{
    Adc adc(4, 1.0);
    EXPECT_EQ(adc.convert(10.0), 7);
    EXPECT_EQ(adc.convert(-10.0), -8);
}

TEST(AdcModel, QuantizationErrorBounded)
{
    Adc adc(4, 1.0);
    for (double v = -1.0; v <= 1.0; v += 0.05) {
        const double rec = adc.reconstruct(adc.convert(v));
        EXPECT_NEAR(rec, v, 1.0 / 7.0) << "v=" << v;
    }
}

TEST(AdcModel, ConvertAllCounts)
{
    Adc adc(4, 1.0);
    adc.convertAll(std::vector<double>(10, 0.5));
    EXPECT_EQ(adc.conversions(), 10);
}

/**
 * End-to-end circuit slice: crossbar + spiking NU implements an IF layer
 * whose spike counts match the algorithmic rate-coded expectation.
 */
TEST(NeuronUnitCircuit, SpikingMatchesAlgorithmicIf)
{
    const int rows = 16, cols = 4;
    std::vector<float> w(rows * cols);
    for (size_t k = 0; k < w.size(); ++k)
        w[k] = static_cast<float>(0.9 * std::sin(0.37 * k));
    auto xbar = makeCrossbar(rows, cols, w);

    std::vector<double> x(rows);
    for (int i = 0; i < rows; ++i)
        x[i] = (i % 3) / 2.0;

    NeuronUnitParams np;
    np.count = cols;
    SpikingNeuronUnit nu(np);
    const double vth = 2.0; // algorithmic threshold
    nu.calibrate(xbar.currentScale(), vth);

    // Algorithmic reference: u += dot; fire & subtract threshold...
    // (device resets to 0, i.e. reset-to-zero semantics).
    const auto ref_dot = referenceDotProduct(rows, cols, w, x);
    std::vector<double> u(cols, 0.0);
    std::vector<int> ref_spikes(cols, 0);
    std::vector<int> dev_spikes(cols, 0);

    const int T = 40;
    for (int t = 0; t < T; ++t) {
        const auto eval = xbar.evaluateIdeal(x, 110 * ns);
        const auto spikes = nu.step(eval.currents);
        for (int j = 0; j < cols; ++j) {
            dev_spikes[j] += spikes[j];
            u[j] += ref_dot[j];
            if (u[j] >= vth) {
                u[j] = 0.0;
                ++ref_spikes[j];
            }
        }
    }
    for (int j = 0; j < cols; ++j)
        EXPECT_NEAR(dev_spikes[j], ref_spikes[j], 1) << "col " << j;
}

TEST(NeuronUnitCircuit, ReluMatchesClippedScaledSum)
{
    const int rows = 8, cols = 4;
    std::vector<float> w(rows * cols, 0.5f);
    auto xbar = makeCrossbar(rows, cols, w);
    std::vector<double> x(rows, 1.0);

    NeuronUnitParams np;
    np.count = cols;
    ReluNeuronUnit nu(np);
    const double ceiling = 8.0; // sum == rows * 0.5 * 1.0 == 4 == half
    nu.calibrate(xbar.currentScale(), ceiling);

    const auto eval = xbar.evaluateIdeal(x, 110 * ns);
    const auto levels = nu.evaluate(eval.currents);
    for (int j = 0; j < cols; ++j)
        EXPECT_NEAR(levels[j], 8, 1) << "col " << j;
}

TEST(NeuronUnitCircuit, ReluSaturates)
{
    const int rows = 8, cols = 2;
    auto xbar = makeCrossbar(rows, cols, std::vector<float>(16, 1.0f));
    NeuronUnitParams np;
    np.count = cols;
    ReluNeuronUnit nu(np);
    nu.calibrate(xbar.currentScale(), 2.0); // ceiling far below the sum

    const auto eval =
        xbar.evaluateIdeal(std::vector<double>(rows, 1.0), 110 * ns);
    for (int level : nu.evaluate(eval.currents))
        EXPECT_EQ(level, 15);
}

TEST(NeuronUnitCircuit, ThresholdReadoutMatchesDeviceChain)
{
    // The unit's threshold count against the naive chain it replaces:
    // the periphery drive of the ReLU'd current, then one
    // ReluNeuronDevice evaluation. Swept over the chip's own current
    // scale (an ANN crossbar, 0.75 V read) and others, several
    // ceilings and output resolutions. The currents: +-0, negatives,
    // +-inf, the extreme finite
    // and subnormal values, every threshold with its nextafter
    // neighbours, a uniform sweep to past saturation and log-uniform
    // draws over twelve decades.
    CrossbarParams xp;
    xp.readVoltage = 0.75;
    const double chip_scale = CrossbarArray(xp).currentScale();
    const double inf = std::numeric_limits<double>::infinity();
    struct Calibration
    {
        double scale, ceiling;
        int levels;
    };
    const std::vector<Calibration> calibrations = {
        {chip_scale, 0.37, 16}, {chip_scale, 1.0, 16},
        {chip_scale, 2.5, 16},  {chip_scale, 8.0, 16},
        {chip_scale, 23.0, 16}, {0.25 / 0.75 * chip_scale, 3.0, 16},
        {1e-6, 1.0, 16},        {3e-4, 0.9, 4},
        {chip_scale, 4.0, 3},   {chip_scale, 4.0, 2}};
    Rng rng(0x7e5401dull);
    long long compared = 0;
    for (const Calibration &cal : calibrations) {
        NeuronUnitParams np;
        np.count = 1;
        np.levels = cal.levels;
        ReluNeuronUnit nu(np);
        nu.calibrate(cal.scale, cal.ceiling);
        ReluNeuronDevice device(np.device);
        const auto want = [&](double c) {
            return device.evaluate(
                detail::nuDeviceCurrent(std::max(c, 0.0), nu.gain(),
                                        nu.bias()),
                np.window, np.levels);
        };

        std::vector<double> currents = {
            0.0, -0.0, -1e-3, -inf, inf,
            std::numeric_limits<double>::denorm_min(),
            -std::numeric_limits<double>::denorm_min(),
            std::numeric_limits<double>::min(),
            std::numeric_limits<double>::max(),
            -std::numeric_limits<double>::max()};
        for (int k = 1; k < cal.levels; ++k) {
            const double t = nu.threshold(k);
            currents.push_back(t);
            currents.push_back(std::nextafter(t, -inf));
            currents.push_back(std::nextafter(t, inf));
        }
        const double full = cal.scale * cal.ceiling;
        for (int i = 0; i <= 20000; ++i)
            currents.push_back(1.2 * full * i / 20000);
        for (int i = 0; i < 20000; ++i)
            currents.push_back(full * std::pow(10.0, rng.uniform(-9, 3)));

        // Once in one call (eight-wide blocks and a tail) and once per
        // current (the tail alone).
        std::vector<int> got(currents.size());
        nu.evaluateInto(currents.data(), static_cast<int>(currents.size()),
                        got.data());
        bool saturated = false;
        for (size_t i = 0; i < currents.size(); ++i) {
            const int level = want(currents[i]);
            int alone = -1;
            nu.evaluateInto(&currents[i], 1, &alone);
            saturated |= level == cal.levels - 1;
            ASSERT_EQ(got[i], level)
                << "current " << currents[i] << " scale " << cal.scale
                << " ceiling " << cal.ceiling << " levels " << cal.levels;
            ASSERT_EQ(alone, level) << "current " << currents[i] << " alone";
        }
        EXPECT_TRUE(saturated) << "sweep never reached the top level";
        compared += static_cast<long long>(currents.size());
    }
    EXPECT_GT(compared, 400000);
}

TEST(NeuronUnitCircuit, EnergyGrowsWithActivity)
{
    NeuronUnitParams np;
    np.count = 8;
    SpikingNeuronUnit nu(np);
    nu.calibrate(1e-6, 1.0);
    std::vector<double> quiet(8, 0.0);
    std::vector<double> busy(8, 1e-6);
    nu.step(quiet);
    const double e_quiet = nu.energy();
    nu.step(busy);
    EXPECT_GT(nu.energy(), e_quiet);
}


TEST(Sense, DividerRisesWithWallArrival)
{
    SenseCircuit sense;
    double prev = -1.0;
    for (double f : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        const double v = sense.dividerVoltage(f);
        EXPECT_GT(v, prev) << "f=" << f;
        EXPECT_GT(v, 0.0);
        EXPECT_LT(v, sense.supply());
        prev = v;
    }
}

TEST(Sense, SpikeOnlyNearFullTraversal)
{
    SenseCircuit sense;
    EXPECT_FALSE(sense.spikeDetected(0.0));
    EXPECT_FALSE(sense.spikeDetected(0.3));
    EXPECT_TRUE(sense.spikeDetected(1.0));
    const double trip = sense.tripFraction();
    EXPECT_GT(trip, 0.3);
    EXPECT_LT(trip, 1.0);
    // Just below / above the trip point.
    EXPECT_FALSE(sense.spikeDetected(trip - 0.01));
    EXPECT_TRUE(sense.spikeDetected(trip + 0.01));
}

TEST(Sense, ReferenceSetsTheMargin)
{
    // A higher reference state (lower reference resistance) demands a
    // larger wall displacement before the inverter trips.
    SenseCircuit loose({}, 0.7);
    SenseCircuit tight({}, 0.3);
    EXPECT_GT(loose.tripFraction(), tight.tripFraction());
}

TEST(Sense, SaturatingOutputIsMonotoneAndClamped)
{
    SenseCircuit sense;
    EXPECT_DOUBLE_EQ(sense.saturatingOutput(0.0), 0.0);
    EXPECT_DOUBLE_EQ(sense.saturatingOutput(1.0), 1.0);
    double prev = -1.0;
    for (double f = 0.0; f <= 1.0; f += 0.1) {
        const double out = sense.saturatingOutput(f);
        EXPECT_GE(out, prev);
        prev = out;
    }
}

TEST(Sense, StaticPowerIsNanowattScale)
{
    // 0.25 V across ~tens of kOhm: the divider burns well under a
    // microwatt -- the ultra-low-power claim at the sensing interface.
    SenseCircuit sense;
    for (double f : {0.0, 0.5, 1.0}) {
        EXPECT_GT(sense.staticPower(f), 0.0);
        EXPECT_LT(sense.staticPower(f), 1e-5);
    }
}

TEST(ComponentDb, MatchesPaperTotals)
{
    const ComponentDb &db = componentDb();
    // Paper Table III: ANN core 113.8 mW, SNN core 19.66 mW.
    EXPECT_NEAR(toMw(db.corePower(Mode::ANN)), 113.8, 0.2);
    EXPECT_NEAR(toMw(db.corePower(Mode::SNN)), 19.66, 0.05);
    EXPECT_NEAR(db.chipPower(), 5.2, 1e-9);
    EXPECT_EQ(kAnnCores, 14);
    EXPECT_EQ(kSnnCores, 182);
}

TEST(ComponentDb, SnnSupertileFarCheaperThanAnn)
{
    const ComponentDb &db = componentDb();
    EXPECT_GT(db.superTilePower(Mode::ANN) / db.superTilePower(Mode::SNN),
              10.0);
    EXPECT_GT(db.annDacPower() / db.snnDriverPower(), 20.0);
}

TEST(ComponentDb, GeometryConstants)
{
    EXPECT_EQ(kAtomicSize, 128);
    EXPECT_EQ(kCrossbarsPerCore, 16);
    EXPECT_EQ(kMaxInCoreRf, 2048);
    EXPECT_EQ(kPrecisionBits, 4);
}

TEST(ComponentDb, TableHasAllRows)
{
    const ComponentDb &db = componentDb();
    // 17 paper rows + 3 computed totals.
    EXPECT_EQ(db.toTable().numRows(), db.rows().size() + 3);
}

} // namespace
} // namespace nebula
