#include "arch/placement.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.hpp"

namespace nebula {

int
ChipPlacer::coreBudget(Mode mode) const
{
    return mode == Mode::ANN ? kAnnCores : kSnnCores;
}

NodeId
ChipPlacer::coreLocation(int index, Mode mode) const
{
    NEBULA_ASSERT(index >= 0, "negative core index");
    if (mode == Mode::ANN) {
        // The ANN cores occupy the first column (paper Fig. 6b shows
        // the A-cores along one edge of the mesh).
        return {0, index % kMeshHeight};
    }
    // SNN cores fill the remaining columns row-major.
    const int snn_columns = kMeshWidth - 1;
    const int wrapped = index % (snn_columns * kMeshHeight);
    return {1 + wrapped % snn_columns, wrapped / snn_columns};
}

PlacementResult
ChipPlacer::place(const NetworkMapping &mapping, Mode mode) const
{
    PlacementResult result;
    result.mode = mode;

    const int budget = coreBudget(mode);
    int next_core = 0;
    std::set<std::pair<int, int>> used;

    for (const auto &layer : mapping.layers) {
        LayerPlacement placement;
        placement.layerIndex = layer.layerIndex;
        for (long long c = 0; c < layer.coresNeeded; ++c) {
            const NodeId node = coreLocation(next_core % budget, mode);
            placement.cores.push_back(node);
            used.insert({node.x, node.y});
            ++next_core;
        }
        result.layers.push_back(std::move(placement));
    }
    result.coresUsed = static_cast<long long>(used.size());
    result.fits = next_core <= budget;
    return result;
}

TrafficStats
simulateInferenceTraffic(const NetworkMapping &mapping,
                         const PlacementResult &placement, MeshNoc &noc,
                         Mode mode, const ActivityProfile &activity,
                         int timesteps)
{
    NEBULA_ASSERT(mapping.layers.size() == placement.layers.size(),
                  "placement does not match mapping");
    NEBULA_ASSERT(activity.inputActivity.size() == mapping.layers.size(),
                  "activity profile does not match mapping");
    NEBULA_ASSERT(timesteps >= 1, "bad timestep count");

    noc.reset();
    long long packet_id = 0;

    const int rounds = mode == Mode::SNN ? timesteps : 1;
    for (int round = 0; round < rounds; ++round) {
        // Stagger rounds so they do not all collide at cycle zero; a
        // round corresponds to one algorithmic timestep.
        const long long base_cycle = static_cast<long long>(round) * 64;

        for (size_t l = 0; l + 1 < mapping.layers.size(); ++l) {
            const auto &src_layer = mapping.layers[l];
            const auto &producers = placement.layers[l].cores;
            const auto &consumers = placement.layers[l + 1].cores;
            NEBULA_ASSERT(!producers.empty() && !consumers.empty(),
                          "layer with no cores");

            // Payload of this layer boundary for one round.
            double bits;
            if (mode == Mode::SNN) {
                // Spike events: 1 bit per active output neuron.
                bits = static_cast<double>(src_layer.outputElements) *
                       std::clamp(activity.inputActivity[l + 1], 0.0, 1.0);
            } else {
                bits = static_cast<double>(src_layer.outputElements) *
                       kPrecisionBits;
            }
            // Stripe outputs over producers; every consumer needs the
            // full map (windows overlap), so each producer multicasts
            // its stripe to all consumers.
            const double bits_per_pair =
                bits / static_cast<double>(producers.size());
            for (size_t p = 0; p < producers.size(); ++p) {
                for (size_t c = 0; c < consumers.size(); ++c) {
                    Packet packet;
                    packet.id = packet_id++;
                    packet.src = producers[p];
                    packet.dst = consumers[c];
                    packet.sizeBits = std::max(
                        1, static_cast<int>(std::lround(bits_per_pair)));
                    packet.injectCycle =
                        base_cycle + static_cast<long long>(p);
                    noc.inject(packet);
                }
            }

            // Spilled kernels: digitized partial sums converge on the
            // layer's first core, which hosts the reduction RU.
            if (src_layer.needsAdc && producers.size() > 1) {
                const double partial_bits =
                    static_cast<double>(src_layer.kernels) * kPrecisionBits;
                for (size_t p = 1; p < producers.size(); ++p) {
                    Packet packet;
                    packet.id = packet_id++;
                    packet.src = producers[p];
                    packet.dst = producers[0];
                    packet.sizeBits = std::max(
                        1, static_cast<int>(std::lround(partial_bits)));
                    packet.injectCycle =
                        base_cycle + static_cast<long long>(p);
                    noc.inject(packet);
                }
            }
        }
    }

    const auto traces = noc.drain();
    TrafficStats stats;
    stats.packets = static_cast<long long>(traces.size());
    stats.energy = noc.dynamicEnergy();
    double hops = 0.0, latency = 0.0;
    for (const auto &trace : traces) {
        hops += trace.hops;
        latency += static_cast<double>(trace.latency);
        stats.worstLatency = std::max(stats.worstLatency, trace.latency);
    }
    if (!traces.empty()) {
        stats.avgHops = hops / traces.size();
        stats.avgLatency = latency / traces.size();
    }
    stats.flits =
        static_cast<long long>(noc.stats().scalarAt("noc.flits").sum());
    return stats;
}

} // namespace nebula
