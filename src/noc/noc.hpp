/**
 * @file
 * Mesh network-on-chip model. NEBULA tiles its neural cores on a 2-D
 * mesh (paper Fig. 6b); inter-core traffic is activations, partial sums
 * (when a kernel spills across NCs) and hybrid-mode accumulator values.
 *
 * The model is event-driven at link granularity: packets are serialized
 * into flits, routed X-then-Y, and each directed link tracks when it is
 * next free, so serialized contention and queueing delay are captured
 * without simulating router microarchitecture.
 */

#ifndef NEBULA_NOC_NOC_HPP
#define NEBULA_NOC_NOC_HPP

#include <cstdint>
#include <vector>

#include "common/chip_params.hpp"
#include "common/stats.hpp"

namespace nebula {

/** Mesh coordinates. */
struct NodeId
{
    int x = 0;
    int y = 0;

    bool operator==(const NodeId &other) const
    {
        return x == other.x && y == other.y;
    }
};

/** One message between cores. */
struct Packet
{
    long long id = 0;
    NodeId src;
    NodeId dst;
    int sizeBits = 32;
    long long injectCycle = 0;
};

/** Delivery record produced by the simulation. */
struct PacketTrace
{
    long long id = 0;
    long long arriveCycle = 0;
    int hops = 0;
    long long latency = 0; //!< arrive - inject
};

/** Mesh configuration (defaults: the NEBULA chip's mesh). */
struct NocConfig
{
    int width = kMeshWidth;
    int height = kMeshHeight;
    int flitBits = kFlitBits;   //!< flit payload width
    int hopLatency = 1;         //!< router+link traversal (cycles/hop)
};

/** XY-routed mesh with per-link serialization. */
class MeshNoc
{
  public:
    explicit MeshNoc(const NocConfig &config = {});

    /** Queue a packet for delivery. */
    void inject(const Packet &packet);

    /**
     * Simulate until all queued packets are delivered.
     * @return per-packet traces in injection order.
     */
    std::vector<PacketTrace> drain();

    /** XY route: list of (node, direction) hops from src to dst. */
    static int manhattan(const NodeId &a, const NodeId &b);

    /** Dynamic energy of everything drained so far (J, kFlitHopEnergy
     *  per flit per hop). */
    double dynamicEnergy() const { return dynamicEnergy_; }

    /** Total delivered packets. */
    long long delivered() const { return delivered_; }

    /** Aggregate latency / hop statistics. */
    const StatGroup &stats() const { return stats_; }

    /** Reset link state and statistics. */
    void reset();

    /**
     * Analytic energy of moving @p bits from @p src to @p dst once,
     * without simulating (used by the chip-level energy model for bulk
     * traffic accounting).
     */
    double transferEnergy(const NodeId &src, const NodeId &dst,
                          long long bits) const;

  private:
    /** Directed link index for a hop from (x, y) toward a direction. */
    int linkIndex(int x, int y, int direction) const;

    NocConfig config_;
    std::vector<Packet> pending_;
    std::vector<long long> linkFree_; //!< next free cycle per link
    double dynamicEnergy_ = 0.0;
    long long delivered_ = 0;
    StatGroup stats_;
};

} // namespace nebula

#endif // NEBULA_NOC_NOC_HPP
