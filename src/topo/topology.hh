/**
 * @file
 * NUMA topology: the arrangement of cores into sockets and the hop
 * distance between cores, which drives IPI-delivery and cache-line
 * transfer latencies. Sockets are connected in a hypercube-like
 * point-to-point fabric (QPI), so inter-socket distance is the
 * Hamming distance between socket ids, capped at two hops — matching
 * the paper's observation that beyond three sockets an IPI "needs two
 * hops to reach the destination CPU".
 */

#ifndef LATR_TOPO_TOPOLOGY_HH_
#define LATR_TOPO_TOPOLOGY_HH_

#include <vector>

#include "sim/types.hh"

namespace latr
{

/** Socket/core layout of a simulated machine. */
class NumaTopology
{
  public:
    /**
     * @param sockets number of sockets (NUMA nodes), at least 1.
     * @param cores_per_socket cores on each socket, at least 1.
     */
    NumaTopology(unsigned sockets, unsigned cores_per_socket);

    unsigned sockets() const { return sockets_; }
    unsigned coresPerSocket() const { return coresPerSocket_; }
    unsigned totalCores() const { return sockets_ * coresPerSocket_; }

    /** NUMA node a core belongs to. */
    NodeId nodeOf(CoreId core) const;

    /** All cores on @p node, lowest id first. */
    std::vector<CoreId> coresOnNode(NodeId node) const;

    /**
     * Interconnect hops between two sockets: 0 within a socket, else
     * the Hamming distance between socket ids capped at 2.
     */
    unsigned socketHops(NodeId a, NodeId b) const;

    /** Interconnect hops between the sockets of two cores. */
    unsigned hops(CoreId a, CoreId b) const;

    /** Largest hop count between any two cores. */
    unsigned maxHops() const { return maxHops_; }

  private:
    unsigned sockets_;
    unsigned coresPerSocket_;
    unsigned maxHops_ = 0;
};

} // namespace latr

#endif // LATR_TOPO_TOPOLOGY_HH_
