#include "topo/topology.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace latr
{

NumaTopology::NumaTopology(unsigned sockets, unsigned cores_per_socket)
    : sockets_(sockets), coresPerSocket_(cores_per_socket)
{
    if (sockets == 0 || cores_per_socket == 0)
        fatal("topology needs at least one socket and one core");
    if (totalCores() > CpuMask::kMaxCores)
        fatal("topology with %u cores exceeds the %u-core CpuMask limit",
              totalCores(), CpuMask::kMaxCores);
    // Computed once: PredictivePolicy's staleness contract reads it
    // on every lazy operation the kernel reports to the checker.
    for (NodeId a = 0; a < sockets_; ++a)
        for (NodeId b = 0; b < sockets_; ++b)
            maxHops_ = std::max(maxHops_, socketHops(a, b));
}

NodeId
NumaTopology::nodeOf(CoreId core) const
{
    if (core >= totalCores())
        panic("nodeOf: core %u out of range", core);
    return core / coresPerSocket_;
}

std::vector<CoreId>
NumaTopology::coresOnNode(NodeId node) const
{
    if (node >= sockets_)
        panic("coresOnNode: node %u out of range", node);
    std::vector<CoreId> cores;
    cores.reserve(coresPerSocket_);
    for (unsigned i = 0; i < coresPerSocket_; ++i)
        cores.push_back(node * coresPerSocket_ + i);
    return cores;
}

unsigned
NumaTopology::socketHops(NodeId a, NodeId b) const
{
    if (a == b)
        return 0;
    unsigned hamming = __builtin_popcount(a ^ b);
    return hamming > 2 ? 2 : hamming;
}

unsigned
NumaTopology::hops(CoreId a, CoreId b) const
{
    return socketHops(nodeOf(a), nodeOf(b));
}

} // namespace latr
