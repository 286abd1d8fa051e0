/**
 * @file
 * Property-based tests for the quantizer and the Poisson rate encoder:
 * randomized inputs, invariants instead of fixed expectations. Every
 * case runs under a SCOPED_TRACE carrying its seed so a failing draw is
 * reproducible from the log line alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "nn/quantize.hpp"
#include "snn/encoder.hpp"

namespace nebula {
namespace {

constexpr uint64_t kSeedBase = 0x9e55ull;

Tensor
randomTensor(Rng &rng, int size, double scale)
{
    Tensor t({size});
    for (long long i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(rng.uniform(-scale, scale));
    return t;
}

TEST(QuantizerProperty, SymmetricQuantizeStaysOnGridWithinClip)
{
    for (int c = 0; c < 200; ++c) {
        const uint64_t seed = kSeedBase + static_cast<uint64_t>(c);
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        Rng rng(seed);
        const int size = rng.uniformInt(1, 300);
        const double scale = rng.uniform(0.01, 50.0);
        const float clip =
            static_cast<float>(rng.uniform(0.05, 1.5) * scale);
        const int levels = 1 << rng.uniformInt(1, 6); // 2..64 levels
        Tensor t = randomTensor(rng, size, scale);
        const Tensor original = t;

        quantizeTensorSymmetric(t, clip, levels);

        const float step = 2.0f * clip / (levels - 1);
        for (long long i = 0; i < t.size(); ++i) {
            // Bounded by the clip range.
            EXPECT_LE(std::abs(t[i]), clip * (1.0f + 1e-5f))
                << "element " << i << " escaped the clip range";
            // On the uniform level grid.
            const float q = (t[i] + clip) / step;
            EXPECT_NEAR(q, std::round(q), 1e-3)
                << "element " << i << " off the level grid";
            // Round-trip error bounded by half a step (clipped values
            // may move farther, but never beyond the clip point).
            const float clipped =
                std::clamp(original[i], -clip, clip);
            EXPECT_LE(std::abs(t[i] - clipped),
                      0.5f * step + 1e-4f * clip)
                << "element " << i << " quantized past half a step";
        }
    }
}

TEST(QuantizerProperty, QuantizationIsIdempotent)
{
    for (int c = 0; c < 100; ++c) {
        const uint64_t seed = kSeedBase + 1000 + static_cast<uint64_t>(c);
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        Rng rng(seed);
        Tensor t = randomTensor(rng, rng.uniformInt(1, 200), 2.0);
        const float clip = static_cast<float>(rng.uniform(0.1, 2.0));
        const int levels = 16;

        quantizeTensorSymmetric(t, clip, levels);
        Tensor again = t;
        quantizeTensorSymmetric(again, clip, levels);
        for (long long i = 0; i < t.size(); ++i)
            EXPECT_EQ(t[i], again[i]) << "requantization moved element "
                                      << i;
    }
}

TEST(QuantizerProperty, AbsPercentileBoundsAndMonotonicity)
{
    for (int c = 0; c < 100; ++c) {
        const uint64_t seed = kSeedBase + 2000 + static_cast<uint64_t>(c);
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        Rng rng(seed);
        Tensor t = randomTensor(rng, rng.uniformInt(1, 400),
                                rng.uniform(0.1, 10.0));
        float max_abs = 0.0f;
        for (long long i = 0; i < t.size(); ++i)
            max_abs = std::max(max_abs, std::abs(t[i]));

        // p = 1 is the max; the percentile is monotone in p and never
        // exceeds the max magnitude.
        EXPECT_FLOAT_EQ(absPercentile(t, 1.0), max_abs);
        float prev = 0.0f;
        for (double p : {0.1, 0.5, 0.9, 0.99, 1.0}) {
            const float v = absPercentile(t, p);
            EXPECT_GE(v, prev) << "percentile not monotone at p=" << p;
            EXPECT_LE(v, max_abs);
            prev = v;
        }
    }
}

TEST(EncoderProperty, SeedDeterminismAndStreamIndependence)
{
    for (int c = 0; c < 50; ++c) {
        const uint64_t seed = kSeedBase + 3000 + static_cast<uint64_t>(c);
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        Rng rng(seed);
        Tensor image({rng.uniformInt(1, 12), rng.uniformInt(1, 12)});
        for (long long i = 0; i < image.size(); ++i)
            image[i] = static_cast<float>(rng.uniform(0.0, 1.0));

        PoissonEncoder a(1.0, seed), b(1.0, seed);
        for (int t = 0; t < 4; ++t) {
            const Tensor sa = a.encode(image);
            const Tensor sb = b.encode(image);
            ASSERT_EQ(sa.size(), sb.size());
            for (long long i = 0; i < sa.size(); ++i) {
                EXPECT_EQ(sa[i], sb[i])
                    << "same-seed encoders diverged at step " << t;
                EXPECT_TRUE(sa[i] == 0.0f || sa[i] == 1.0f)
                    << "non-binary spike";
            }
        }

        // reset() restarts the train; a different seed changes it.
        a.reset();
        const Tensor replay = a.encode(image);
        PoissonEncoder fresh(1.0, seed);
        const Tensor first = fresh.encode(image);
        for (long long i = 0; i < replay.size(); ++i)
            EXPECT_EQ(replay[i], first[i]);
    }
}

TEST(EncoderProperty, SpikeRateTracksIntensity)
{
    // Over many timesteps the empirical rate of each pixel must track
    // intensity * rate_scale (law of large numbers; 6-sigma band keeps
    // the flake probability negligible while still pinning the slope).
    for (int c = 0; c < 10; ++c) {
        const uint64_t seed = kSeedBase + 4000 + static_cast<uint64_t>(c);
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        Rng rng(seed);
        const double rate_scale = rng.uniform(0.2, 1.0);
        const std::vector<float> intensities = {0.0f, 0.1f, 0.35f, 0.7f,
                                                1.0f};
        Tensor image({static_cast<int>(intensities.size())});
        for (size_t i = 0; i < intensities.size(); ++i)
            image[static_cast<long long>(i)] = intensities[i];

        PoissonEncoder encoder(rate_scale, seed);
        const int steps = 4000;
        std::vector<double> counts(intensities.size(), 0.0);
        for (int t = 0; t < steps; ++t) {
            const Tensor spikes = encoder.encode(image);
            for (size_t i = 0; i < intensities.size(); ++i)
                counts[i] += spikes[static_cast<long long>(i)];
        }
        for (size_t i = 0; i < intensities.size(); ++i) {
            const double p =
                std::clamp(rate_scale * intensities[i], 0.0, 1.0);
            const double sigma = std::sqrt(p * (1.0 - p) / steps);
            EXPECT_NEAR(counts[i] / steps, p, 6.0 * sigma + 1e-9)
                << "pixel " << i << " rate off its expectation";
        }
        // Monotone: brighter pixels never spike less (statistically).
        for (size_t i = 1; i < intensities.size(); ++i)
            EXPECT_GE(counts[i] + 3.0 * std::sqrt(steps * 0.25),
                      counts[i - 1]);
    }
}

TEST(EncoderProperty, AllEncodeFormsShareOneStream)
{
    // encode(), encodeInto() and the precomputed buildPlan() +
    // encodeActive(plan) form must produce the identical spike train
    // from the same seed: each consumes one uniform draw per pixel
    // with probability strictly inside (0, 1) and none for zero or
    // saturated pixels. The images deliberately mix exact zeros,
    // in-range, saturated (>= 1) and negative pixels so every
    // short-circuit is exercised.
    for (int c = 0; c < 100; ++c) {
        const uint64_t seed = kSeedBase + 5000 + static_cast<uint64_t>(c);
        SCOPED_TRACE(::testing::Message() << "seed=" << seed);
        Rng rng(seed);
        Tensor image({rng.uniformInt(1, 20), rng.uniformInt(1, 20)});
        for (long long i = 0; i < image.size(); ++i) {
            switch (rng.uniformInt(0, 3)) {
            case 0: image[i] = 0.0f; break;
            case 1: image[i] = static_cast<float>(rng.uniform(0.0, 1.0));
                    break;
            case 2: image[i] = static_cast<float>(rng.uniform(1.0, 2.0));
                    break;
            default: image[i] = static_cast<float>(rng.uniform(-1.0, 0.0));
                     break;
            }
        }
        const double rate_scale = rng.uniform(0.3, 1.0);

        PoissonEncoder dense(rate_scale, seed);
        PoissonEncoder into(rate_scale, seed);
        PoissonEncoder planned(rate_scale, seed);
        PoissonEncoder::EncodePlan plan;
        planned.buildPlan(image, plan);

        Tensor into_buf;
        std::vector<int> plan_active;
        for (int t = 0; t < 6; ++t) {
            const Tensor spikes = dense.encode(image);
            into.encodeInto(image, into_buf);
            planned.encodeActive(plan, plan_active);

            ASSERT_EQ(into_buf.size(), spikes.size());
            std::vector<int> dense_active;
            for (long long i = 0; i < spikes.size(); ++i) {
                EXPECT_EQ(into_buf[i], spikes[i])
                    << "encodeInto diverged at step " << t;
                if (spikes[i] != 0.0f)
                    dense_active.push_back(static_cast<int>(i));
            }
            EXPECT_EQ(plan_active, dense_active)
                << "encodeActive(plan) diverged at step " << t;
        }
    }
}

} // namespace
} // namespace nebula
