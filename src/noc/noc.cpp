#include "noc/noc.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace nebula {

namespace {
// Directions: 0 = +x (east), 1 = -x (west), 2 = +y (north), 3 = -y (south).
constexpr int kDirections = 4;
constexpr char kDirectionNames[kDirections] = {'e', 'w', 'n', 's'};
} // namespace

MeshNoc::MeshNoc(const NocConfig &config) : config_(config), stats_("noc")
{
    NEBULA_ASSERT(config_.width > 0 && config_.height > 0,
                  "bad mesh dimensions");
    NEBULA_ASSERT(config_.flitBits > 0, "bad flit width");
    linkFree_.assign(
        static_cast<size_t>(config_.width) * config_.height * kDirections,
        0);
}

int
MeshNoc::linkIndex(int x, int y, int direction) const
{
    return (y * config_.width + x) * kDirections + direction;
}

int
MeshNoc::manhattan(const NodeId &a, const NodeId &b)
{
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

void
MeshNoc::inject(const Packet &packet)
{
    NEBULA_ASSERT(packet.src.x >= 0 && packet.src.x < config_.width &&
                      packet.src.y >= 0 && packet.src.y < config_.height,
                  "packet source off-mesh");
    NEBULA_ASSERT(packet.dst.x >= 0 && packet.dst.x < config_.width &&
                      packet.dst.y >= 0 && packet.dst.y < config_.height,
                  "packet destination off-mesh");
    pending_.push_back(packet);
}

std::vector<PacketTrace>
MeshNoc::drain()
{
    // Process in injection-time order (stable for equal times).
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Packet &a, const Packet &b) {
                         return a.injectCycle < b.injectCycle;
                     });

    std::vector<PacketTrace> traces;
    traces.reserve(pending_.size());

    obs::TraceSpan span("noc", "drain");
    span.arg("packets", static_cast<double>(pending_.size()));

    // Flits per directed link this drain; flushed into named scalars
    // afterwards so the hot loop touches no string keys.
    std::map<int, long long> link_flits;

    for (const Packet &packet : pending_) {
        const int flits = std::max(
            1, (packet.sizeBits + config_.flitBits - 1) / config_.flitBits);

        long long cycle = packet.injectCycle;
        int hops = 0;
        int x = packet.src.x, y = packet.src.y;

        // X first, then Y (deterministic, deadlock-free on a mesh).
        while (x != packet.dst.x || y != packet.dst.y) {
            int direction;
            int nx = x, ny = y;
            if (x != packet.dst.x) {
                direction = packet.dst.x > x ? 0 : 1;
                nx += packet.dst.x > x ? 1 : -1;
            } else {
                direction = packet.dst.y > y ? 2 : 3;
                ny += packet.dst.y > y ? 1 : -1;
            }
            const int link = linkIndex(x, y, direction);
            const long long start =
                std::max(cycle, linkFree_[static_cast<size_t>(link)]);
            // The link is busy while all flits serialize through it.
            linkFree_[static_cast<size_t>(link)] = start + flits;
            link_flits[link] += flits;
            cycle = start + flits + config_.hopLatency;
            ++hops;
            x = nx;
            y = ny;
        }

        PacketTrace trace;
        trace.id = packet.id;
        trace.arriveCycle = cycle;
        trace.hops = hops;
        trace.latency = cycle - packet.injectCycle;
        traces.push_back(trace);

        dynamicEnergy_ += static_cast<double>(hops) * flits * kFlitHopEnergy;
        ++delivered_;
        stats_.scalar("noc.latency").sample(static_cast<double>(trace.latency));
        stats_.scalar("noc.hops").sample(hops);
        stats_.scalar("noc.flits").add(flits);
        stats_.histogram("noc.latency.hist", 0.0, 256.0, 64)
            .sample(static_cast<double>(trace.latency));
    }

    // Per-link flit counters for the links this drain actually used:
    // noc.link.<x>_<y>.<direction>.flits (direction e/w/n/s).
    for (const auto &[link, flits] : link_flits) {
        const int node = link / kDirections;
        const int direction = link % kDirections;
        const int x = node % config_.width;
        const int y = node / config_.width;
        stats_
            .scalar("noc.link." + std::to_string(x) + "_" +
                    std::to_string(y) + "." +
                    kDirectionNames[direction] + ".flits")
            .add(static_cast<double>(flits));
    }
    pending_.clear();
    return traces;
}

double
MeshNoc::transferEnergy(const NodeId &src, const NodeId &dst,
                        long long bits) const
{
    const long long flits =
        std::max<long long>(1, (bits + config_.flitBits - 1) /
                                   config_.flitBits);
    return static_cast<double>(manhattan(src, dst)) * flits * kFlitHopEnergy;
}

void
MeshNoc::reset()
{
    std::fill(linkFree_.begin(), linkFree_.end(), 0);
    pending_.clear();
    dynamicEnergy_ = 0.0;
    delivered_ = 0;
    stats_.reset();
}

} // namespace nebula
