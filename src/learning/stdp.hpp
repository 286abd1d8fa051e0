/**
 * @file
 * STDP-style competitive clustering on the crossbar model (Velasquez et
 * al.'s unsupervised hardware learning rule for spintronic clustering,
 * see PAPERS.md). Crossbar columns are cluster prototypes; a sample is
 * rate-encoded into spike trains, column currents integrate on IF
 * membranes, and a lateral-inhibition winner-take-all picks the column
 * whose prototype matched best. The winner column is then potentiated
 * on rows that spiked and depressed on rows that stayed quiet -- every
 * level step an accounted programming pulse through
 * CrossbarArray::updateCells, so faults, remap and the pulse/energy
 * bill all apply to learning exactly as they do to programming.
 *
 * Sensing reuses the existing read path (evaluateSparseInto at the SNN
 * read voltage), which the device model treats as read-disturb-free:
 * reads never move the wall, so presenting a sample costs only ohmic read
 * energy. Deterministic under (config seed, presentation order).
 */

#ifndef NEBULA_LEARNING_STDP_HPP
#define NEBULA_LEARNING_STDP_HPP

#include <cstdint>
#include <vector>

#include "circuit/crossbar.hpp"
#include "common/chip_params.hpp"
#include "nn/datasets.hpp"
#include "snn/encoder.hpp"
#include "snn/if_layer.hpp"

namespace nebula {

/** Hyperparameters of the competitive clustering rule. */
struct StdpConfig
{
    /** Presentations of the whole sample stream. */
    int epochs = 2;

    /** Timesteps each sample is rate-encoded for. */
    int timesteps = 16;

    /** Root seed of the per-presentation spike trains. */
    uint64_t seed = 21;

    /** Firing probability per step at intensity 1.0. */
    double rateScale = 1.0;

    /** Level steps up for winner-column rows that spiked. */
    int potentiate = 1;

    /** Level steps down for winner-column rows that stayed quiet. */
    int depress = 1;

    /**
     * A row counts as active when it spiked in at least this fraction
     * of the presentation's timesteps.
     */
    double activeFraction = 0.25;

    /**
     * DeSieno-style conscience: a column's WTA score is penalized in
     * proportion to how far its win share exceeds 1/clusters, scaled by
     * the membrane spread so the bias is unit-free. Keeps dead columns
     * recruiting without a separate threshold homeostasis loop. 0
     * disables.
     */
    double conscience = 0.3;

    /**
     * Encode each pixel as an ON/OFF channel pair (rows 2i: intensity
     * p, rows N+i: 1-p), retina style. Spikes on active rows alone
     * cannot penalize prototype ink the sample lacks -- the column
     * current only sees rows that fired -- so large-ink prototypes
     * capture everything. With the complement channel present the
     * integrated current is the full bipolar correlation between the
     * prototype and the sample, i.e. proper nearest-prototype matching.
     * Requires a crossbar with 2x the pixel count in rows.
     */
    bool onOffChannels = true;

    /** Programming flow used for the update pulses. */
    ProgrammingConfig write;

    /** Integration window per read (s); scales read energy only. */
    double readDuration = kCycleTime;

    /** Emit learning.* trace spans. */
    bool trace = false;
};

/** What one clustering fit measured. */
struct ClusteringResult
{
    int samples = 0;             //!< distinct samples in the stream
    long long presentations = 0; //!< sample presentations (epochs x N)
    double purity = 0.0;         //!< majority-label purity in [0, 1]
    std::vector<int> assignment;   //!< final cluster per sample
    std::vector<int> clusterCounts; //!< samples assigned per cluster
    UpdateReport updates;        //!< learning pulse/energy bill
    double readEnergy = 0.0;     //!< J spent sensing (reads)
};

/**
 * Competitive clustering of an image stream onto one crossbar array.
 * The array must have one row per input pixel (two with the default
 * ON/OFF channel encoding) and one column per cluster; the clusterer
 * owns no device state beyond win statistics, so the learned
 * prototypes ARE the array's conductances.
 */
class StdpClusterer
{
  public:
    StdpClusterer(CrossbarArray &xbar, StdpConfig config = {});

    /**
     * Seed the prototype columns from evenly strided samples of the
     * stream (deterministic), programmed through the configured flow.
     * Resets win statistics and the accumulated bills.
     */
    void initPrototypes(const Dataset &data, int samples);

    /**
     * Present one sample for config.timesteps steps and return the
     * winning column. With @p learn the winner is chosen under the
     * conscience bias, win statistics update, and the winner column's
     * conductances step (potentiate active rows / depress quiet rows)
     * through the incremental update API.
     */
    int present(const Tensor &image, bool learn);

    /** present() without learning or conscience: pure assignment. */
    int assign(const Tensor &image) { return present(image, false); }

    /**
     * Full fit: initPrototypes, config.epochs passes over the first
     * @p samples images, then a frozen assignment pass scored against
     * the dataset labels.
     */
    ClusteringResult fit(const Dataset &data, int samples);

    /** Accumulated update bill since initPrototypes. */
    const UpdateReport &updates() const { return updates_; }

    /** Accumulated sensing energy since initPrototypes (J). */
    double readEnergy() const { return readEnergy_; }

  private:
    /** The crossbar input row vector for @p image (ON/OFF stacking). */
    const Tensor &encodeInput(const Tensor &image);

    CrossbarArray &xbar_;
    StdpConfig config_;
    IfLayer integrator_;
    std::vector<long long> wins_;
    long long totalWins_ = 0;
    long long presentCounter_ = 0;
    UpdateReport updates_;
    double readEnergy_ = 0.0;
    std::vector<int> rowSpikes_;
    std::vector<float> stepIn_, stepOut_;
    PoissonEncoder::EncodePlan plan_; //!< encode plan of one presentation
    SpikeVector active_;
    CrossbarEval readWs_; //!< crossbar read result, reused every step
    Tensor augmented_; //!< scratch ON/OFF-stacked input
};

/**
 * Majority-label purity of a clustering: each cluster votes its most
 * common label and purity is the fraction of samples matching their
 * cluster's vote. 1.0 = every cluster is label-pure.
 */
double clusterPurity(const std::vector<int> &assignment,
                     const std::vector<int> &labels, int clusters);

} // namespace nebula

#endif // NEBULA_LEARNING_STDP_HPP
