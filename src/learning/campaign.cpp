#include "learning/campaign.hpp"

#include <cstdio>

#include "common/logging.hpp"

namespace nebula {

double
LearningCampaignResult::meanPurity(double rate) const
{
    double sum = 0.0;
    int count = 0;
    for (const LearningCampaignRow &row : rows) {
        if (row.rate == rate) {
            sum += row.purity;
            ++count;
        }
    }
    return count ? sum / count : -1.0;
}

std::string
LearningCampaignResult::csv() const
{
    std::string out =
        "# units: update_energy_j and read_energy_j in joules (J); "
        "purity is a dimensionless fraction in [0, 1]\n"
        "rate,seed,samples,purity,update_pulses,level_steps,"
        "blocked_cells,update_energy_j,read_energy_j\n";
    char line[256];
    for (const LearningCampaignRow &row : rows) {
        std::snprintf(line, sizeof line,
                      "%.6f,%llu,%d,%.6f,%lld,%lld,%lld,%.6e,%.6e\n",
                      row.rate, static_cast<unsigned long long>(row.seed),
                      row.samples, row.purity, row.updates.pulses,
                      row.updates.levelSteps, row.updates.blockedCells,
                      row.updates.updateEnergy, row.readEnergy);
        out += line;
    }
    return out;
}

LearningCampaignResult
runLearningCampaign(const Dataset &data,
                    const LearningCampaignConfig &config)
{
    NEBULA_ASSERT(data.size() > 0, "empty dataset");
    FaultModelFactory factory = config.modelFactory;
    if (!factory) {
        factory = [](double rate) -> std::shared_ptr<const FaultModel> {
            return std::make_shared<PinningDriftFaultModel>(rate);
        };
    }

    const int rows = data.channels() * data.imageSize() * data.imageSize() *
                     (config.stdp.onOffChannels ? 2 : 1);
    const int clusters = config.clusters > 0 ? config.clusters
                                             : data.numClasses();

    LearningCampaignResult result;
    for (double rate : config.rates) {
        for (uint64_t seed : config.seeds) {
            CrossbarParams xp;
            xp.rows = rows;
            xp.cols = clusters;
            xp.spareCols = config.spareCols;
            xp.readVoltage = kSnnDriverVoltage; // SNN-mode sensing
            CrossbarArray xbar(xp);

            if (rate > 0.0) {
                FaultMap map(rows, clusters + config.spareCols);
                factory(rate)->sampleInto(
                    map, deriveFaultSeed(config.faultSeed, seed));
                xbar.injectFaults(std::move(map));
            }

            StdpClusterer clusterer(xbar, config.stdp);
            const ClusteringResult fit =
                clusterer.fit(data, config.samples);

            LearningCampaignRow row;
            row.rate = rate;
            row.seed = seed;
            row.samples = fit.samples;
            row.purity = fit.purity;
            row.updates = fit.updates;
            row.readEnergy = fit.readEnergy;
            result.rows.push_back(row);
        }
    }
    return result;
}

} // namespace nebula
