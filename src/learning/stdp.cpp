#include "learning/stdp.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliability/fault_model.hpp"

namespace nebula {

StdpClusterer::StdpClusterer(CrossbarArray &xbar, StdpConfig config)
    // The IF layer is a pure integrator here: the threshold sits far
    // above any reachable membrane, so step() only accumulates and the
    // WTA reads potentials directly.
    : xbar_(xbar), config_(config), integrator_(1e30f)
{
    NEBULA_ASSERT(config_.timesteps > 0, "need at least one timestep");
    NEBULA_ASSERT(config_.epochs > 0, "need at least one epoch");
    NEBULA_ASSERT(config_.potentiate >= 0 && config_.depress >= 0,
                  "negative learning step");
    wins_.assign(static_cast<size_t>(xbar_.cols()), 0);
}

const Tensor &
StdpClusterer::encodeInput(const Tensor &image)
{
    if (!config_.onOffChannels)
        return image;
    const long long n = image.size();
    if (augmented_.size() != 2 * n)
        augmented_ = Tensor({static_cast<int>(2 * n)});
    for (long long i = 0; i < n; ++i) {
        const float p = std::clamp(image[i], 0.0f, 1.0f);
        augmented_[i] = p;
        augmented_[n + i] = 1.0f - p;
    }
    return augmented_;
}

void
StdpClusterer::initPrototypes(const Dataset &data, int samples)
{
    const int rows = xbar_.rows();
    const int clusters = xbar_.cols();
    const int factor = config_.onOffChannels ? 2 : 1;
    samples = std::clamp(samples, clusters, data.size());
    NEBULA_ASSERT(data.image(0).size() * factor == rows,
                  "dataset image size ", data.image(0).size(),
                  " (x", factor, " channels) does not match crossbar rows ",
                  rows);

    // Evenly strided stream samples as initial prototypes: spread over
    // the stream, deterministic, and already shaped like the data.
    std::vector<float> weights(static_cast<size_t>(rows) * clusters, 0.0f);
    for (int j = 0; j < clusters; ++j) {
        const Tensor &image = encodeInput(
            data.image(static_cast<int>(static_cast<long long>(j) *
                                        samples / clusters)));
        for (int r = 0; r < rows; ++r)
            weights[static_cast<size_t>(r) * clusters + j] =
                2.0f * image[r] - 1.0f;
    }
    xbar_.program(weights, config_.write);

    wins_.assign(static_cast<size_t>(clusters), 0);
    totalWins_ = 0;
    presentCounter_ = 0;
    updates_ = UpdateReport();
    readEnergy_ = 0.0;
}

int
StdpClusterer::present(const Tensor &image, bool learn)
{
    obs::TraceSpan span("learning", "stdp.present", config_.trace);
    const int rows = xbar_.rows();
    const int clusters = xbar_.cols();
    const int factor = config_.onOffChannels ? 2 : 1;
    NEBULA_ASSERT(image.size() * factor == rows, "image size ",
                  image.size(), " (x", factor,
                  " channels) does not match crossbar rows ", rows);
    const Tensor &input = encodeInput(image);

    integrator_.resetState();
    integrator_.ensureState({1, clusters});
    rowSpikes_.assign(static_cast<size_t>(rows), 0);
    stepIn_.resize(static_cast<size_t>(clusters));
    stepOut_.resize(static_cast<size_t>(clusters));

    // Per-presentation spike train: counter-based seeding keeps the
    // whole fit a pure function of (config seed, presentation order).
    PoissonEncoder encoder(
        config_.rateScale,
        deriveFaultSeed(config_.seed,
                        static_cast<uint64_t>(presentCounter_)));
    ++presentCounter_;
    encoder.buildPlan(input, plan_);

    const double kappa = xbar_.currentScale();
    for (int t = 0; t < config_.timesteps; ++t) {
        encoder.encodeActive(plan_, active_);
        for (int i : active_)
            ++rowSpikes_[static_cast<size_t>(i)];
        CrossbarEval &eval = readWs_;
        xbar_.evaluateSparseInto(active_, config_.readDuration, eval);
        readEnergy_ += eval.energy;
        for (int j = 0; j < clusters; ++j)
            stepIn_[static_cast<size_t>(j)] = static_cast<float>(
                eval.currents[static_cast<size_t>(j)] / kappa);
        integrator_.step(stepIn_.data(), stepOut_.data(), clusters);
    }

    // Lateral inhibition: the highest membrane wins. During learning a
    // conscience bias (DeSieno) handicaps over-winning columns by their
    // excess win share, scaled by the membrane spread so the penalty
    // tracks the problem's units.
    const float *mem = integrator_.membraneData();
    int winner = integrator_.winnerIndex();
    if (learn && config_.conscience > 0.0 && totalWins_ > 0) {
        double lo = mem[0], hi = mem[0];
        for (int j = 1; j < clusters; ++j) {
            lo = std::min<double>(lo, mem[j]);
            hi = std::max<double>(hi, mem[j]);
        }
        const double spread = hi > lo ? hi - lo : 1.0;
        double best = 0.0;
        winner = 0;
        for (int j = 0; j < clusters; ++j) {
            const double share =
                static_cast<double>(wins_[static_cast<size_t>(j)]) /
                static_cast<double>(totalWins_);
            const double score =
                mem[j] -
                config_.conscience * spread * (share * clusters - 1.0);
            if (j == 0 || score > best) {
                best = score;
                winner = j;
            }
        }
    }
    if (winner < 0)
        return winner;
    span.arg("winner", static_cast<double>(winner));

    if (learn) {
        ++wins_[static_cast<size_t>(winner)];
        ++totalWins_;
        // Potentiate the winner's rows that spiked, depress the quiet
        // ones: the prototype column drifts toward the presented sample
        // one quantized level at a time.
        const double active_floor =
            config_.activeFraction * config_.timesteps;
        std::vector<CellUpdate> ups;
        ups.reserve(static_cast<size_t>(rows));
        for (int r = 0; r < rows; ++r) {
            const int delta = rowSpikes_[static_cast<size_t>(r)] >=
                                      active_floor
                                  ? config_.potentiate
                                  : -config_.depress;
            if (delta != 0)
                ups.push_back(CellUpdate{r, winner, delta});
        }
        updates_.merge(xbar_.updateCells(ups, config_.write));
    }
    return winner;
}

ClusteringResult
StdpClusterer::fit(const Dataset &data, int samples)
{
    obs::TraceSpan span("learning", "stdp.fit", config_.trace);
    const int clusters = xbar_.cols();
    samples = std::clamp(samples, clusters, data.size());
    initPrototypes(data, samples);

    ClusteringResult result;
    result.samples = samples;
    for (int epoch = 0; epoch < config_.epochs; ++epoch) {
        for (int s = 0; s < samples; ++s) {
            present(data.image(s), true);
            ++result.presentations;
        }
    }

    // Frozen assignment pass, scored against the stream's labels.
    result.assignment.resize(static_cast<size_t>(samples));
    result.clusterCounts.assign(static_cast<size_t>(clusters), 0);
    std::vector<int> labels(static_cast<size_t>(samples));
    for (int s = 0; s < samples; ++s) {
        const int c = present(data.image(s), false);
        result.assignment[static_cast<size_t>(s)] = c;
        labels[static_cast<size_t>(s)] = data.label(s);
        if (c >= 0)
            ++result.clusterCounts[static_cast<size_t>(c)];
    }
    result.purity = clusterPurity(result.assignment, labels, clusters);
    result.updates = updates_;
    result.readEnergy = readEnergy_;

    auto &registry = obs::MetricsRegistry::global();
    registry.gauge("learning.stdp.purity").set(result.purity);
    registry.counter("learning.stdp.presentations")
        .inc(static_cast<double>(result.presentations));
    span.arg("purity", result.purity);
    return result;
}

double
clusterPurity(const std::vector<int> &assignment,
              const std::vector<int> &labels, int clusters)
{
    NEBULA_ASSERT(assignment.size() == labels.size(),
                  "assignment/label size mismatch");
    if (assignment.empty() || clusters <= 0)
        return 0.0;
    int num_labels = 0;
    for (int l : labels)
        num_labels = std::max(num_labels, l + 1);
    std::vector<int> counts(static_cast<size_t>(clusters) * num_labels, 0);
    for (size_t s = 0; s < assignment.size(); ++s) {
        const int c = assignment[s];
        if (c < 0 || c >= clusters)
            continue;
        ++counts[static_cast<size_t>(c) * num_labels + labels[s]];
    }
    long long majority = 0;
    for (int c = 0; c < clusters; ++c) {
        int best = 0;
        for (int l = 0; l < num_labels; ++l)
            best = std::max(best,
                            counts[static_cast<size_t>(c) * num_labels + l]);
        majority += best;
    }
    return static_cast<double>(majority) /
           static_cast<double>(assignment.size());
}

} // namespace nebula
