// Unit tests for the IPI fabric.

#include <gtest/gtest.h>

#include <map>

#include "hw/ipi.hh"

namespace latr
{
namespace
{

struct IpiFixture : public ::testing::Test
{
    IpiFixture()
        : topo(2, 4), cost(commodityCostModel()),
          fabric(queue, topo, cost)
    {}

    EventQueue queue;
    NumaTopology topo;
    CostModel cost;
    IpiFabric fabric;
};

TEST_F(IpiFixture, EmptyTargetsCompletesImmediately)
{
    IpiBroadcastResult r = fabric.broadcast(0, CpuMask(), 0, 0, nullptr);
    EXPECT_EQ(r.ipis, 0u);
    EXPECT_EQ(r.allAcked, 0u);
    EXPECT_EQ(fabric.broadcasts(), 0u);
}

TEST_F(IpiFixture, InitiatorIsSkipped)
{
    CpuMask m = CpuMask::single(0);
    IpiBroadcastResult r = fabric.broadcast(0, m, 0, 0, nullptr);
    EXPECT_EQ(r.ipis, 0u);
}

TEST_F(IpiFixture, SingleSameSocketTargetLatencyMath)
{
    CpuMask m = CpuMask::single(1); // same socket as core 0
    const Duration handler_body = 120;
    IpiBroadcastResult r =
        fabric.broadcast(0, m, 0, handler_body, nullptr);
    const Duration expected = cost.ipiSendCost(0) +
                              cost.ipiDeliveryCost(0) +
                              cost.ipiHandlerFixed + handler_body +
                              cost.cachelineCost(0);
    EXPECT_EQ(r.allAcked, expected);
    EXPECT_EQ(r.ipis, 1u);
}

TEST_F(IpiFixture, CrossSocketTargetIsSlower)
{
    IpiBroadcastResult near =
        fabric.broadcast(0, CpuMask::single(1), 0, 0, nullptr);
    IpiBroadcastResult far = fabric.broadcast(
        0, CpuMask::single(4), queue.now(), 0, nullptr);
    EXPECT_GT(far.allAcked - queue.now(), near.allAcked);
}

TEST_F(IpiFixture, SendsSerializeAcrossTargets)
{
    // With n targets the ICR-write serialization alone grows
    // linearly; completion must exceed n * sendCost.
    CpuMask m;
    for (CoreId c = 1; c < 8; ++c)
        m.set(c);
    IpiBroadcastResult r = fabric.broadcast(0, m, 0, 0, nullptr);
    EXPECT_EQ(r.ipis, 7u);
    Duration min_sends = 0;
    m.forEach([&](CoreId c) {
        min_sends += cost.ipiSendCost(topo.hops(0, c));
    });
    EXPECT_EQ(r.sendsDone, min_sends);
    EXPECT_GT(r.allAcked, min_sends);
}

TEST_F(IpiFixture, MoreTargetsNeverCompleteSooner)
{
    CpuMask small = CpuMask::single(1);
    CpuMask big;
    for (CoreId c = 1; c < 8; ++c)
        big.set(c);
    Duration d_small =
        fabric.broadcast(0, small, 0, 0, nullptr).allAcked;
    Duration d_big = fabric.broadcast(0, big, 0, 0, nullptr).allAcked;
    EXPECT_GE(d_big, d_small);
}

TEST_F(IpiFixture, DeliveryCallbackFiresAtDeliveryTickPerTarget)
{
    CpuMask m;
    m.set(1);
    m.set(5);
    std::map<CoreId, Tick> delivered;
    IpiBroadcastResult r = fabric.broadcast(
        0, m, 0, 0,
        [&](CoreId c, Tick at) { delivered[c] = at; });
    EXPECT_TRUE(delivered.empty()); // nothing until events run
    queue.run();
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_LT(delivered[1], r.allAcked);
    EXPECT_LT(delivered[5], r.allAcked);
    // The same-socket core hears about it before the remote one
    // (it was also sent first).
    EXPECT_LT(delivered[1], delivered[5]);
}

TEST_F(IpiFixture, ExplicitStartShiftsEverything)
{
    CpuMask m = CpuMask::single(1);
    IpiBroadcastResult at0 = fabric.broadcast(0, m, 0, 0, nullptr);
    IpiBroadcastResult at1000 = fabric.broadcast(0, m, 1000, 0, nullptr);
    EXPECT_EQ(at1000.allAcked, at0.allAcked + 1000);
}

TEST_F(IpiFixture, StatsAccumulate)
{
    CpuMask m;
    m.set(1);
    m.set(2);
    fabric.broadcast(0, m, 0, 0, nullptr);
    fabric.broadcast(0, m, 0, 0, nullptr);
    EXPECT_EQ(fabric.ipisSent(), 4u);
    EXPECT_EQ(fabric.broadcasts(), 2u);
    fabric.resetStats();
    EXPECT_EQ(fabric.ipisSent(), 0u);
}

TEST(IpiCalibration, FullShootdown16CoresNearPaperCost)
{
    // Paper section 1: a 16-core shootdown costs ~6 us on the
    // 2-socket machine. 15 targets, handler invalidates one page.
    EventQueue queue;
    NumaTopology topo(2, 8);
    CostModel cost = commodityCostModel();
    IpiFabric fabric(queue, topo, cost);
    CpuMask m = CpuMask::firstN(16);
    m.clear(0);
    IpiBroadcastResult r =
        fabric.broadcast(0, m, 0, cost.invlpg, nullptr);
    EXPECT_GT(r.allAcked, 4 * kUsec);
    EXPECT_LT(r.allAcked, 9 * kUsec);
}

} // namespace
} // namespace latr
