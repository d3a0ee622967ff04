// Tests for the swap daemon (the lazy page-out path of table 1).

#include <gtest/gtest.h>

#include "numa/swap.hh"
#include "test_helpers.hh"

namespace latr
{
namespace
{

class SwapPolicies : public ::testing::TestWithParam<PolicyKind>
{
  protected:
    SwapPolicies()
        : machine(test::tinyConfig(), GetParam()),
          kernel(machine.kernel())
    {
        process = kernel.createProcess("app");
        t0 = kernel.spawnTask(process, 0);
        machine.run(kUsec);
    }

    Machine machine;
    Kernel &kernel;
    Process *process = nullptr;
    Task *t0 = nullptr;
};

TEST_P(SwapPolicies, ColdPagesAreEvictedAfterTwoScans)
{
    SwapDaemon swap(kernel, 3 * kMsec, 64);
    swap.track(process);
    SyscallResult m = kernel.mmap(t0, 8 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m.addr, 8 * kPageSize);
    swap.start();
    // Scan 1 clears accessed bits; scan 2 evicts the cold pages.
    machine.run(7 * kMsec);
    EXPECT_GT(swap.evictions(), 0u);
    // The evicted page is no longer mapped.
    EXPECT_EQ(process->mm().pageTable().find(pageOf(m.addr)), nullptr);
    machine.run(6 * kMsec); // lazy reclamation under LATR
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
    swap.stop();
}

TEST_P(SwapPolicies, HotPagesGetASecondChance)
{
    SwapDaemon swap(kernel, 3 * kMsec, 64);
    swap.track(process);
    SyscallResult m = kernel.mmap(t0, 4 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m.addr, 4 * kPageSize);
    swap.start();
    // Keep touching between scans: accessed bits stay set. The TLB
    // must be scrubbed so touches re-walk and set the A bit.
    for (int i = 0; i < 4; ++i) {
        machine.run(3 * kMsec);
        machine.scheduler().tlbOf(0).flushAll();
        test::touchRange(kernel, t0, m.addr, 4 * kPageSize, false);
    }
    EXPECT_EQ(swap.evictions(), 0u);
    swap.stop();
}

TEST_P(SwapPolicies, SwappedPageRefaultsAsFreshPage)
{
    SwapDaemon swap(kernel, 3 * kMsec, 64);
    swap.track(process);
    SyscallResult m = kernel.mmap(t0, 2 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m.addr, 2 * kPageSize);
    swap.start();
    machine.run(7 * kMsec);
    ASSERT_GT(swap.evictions(), 0u);
    swap.stop();
    machine.run(6 * kMsec);
    // Swap-in: the VMA survived, so the touch demand-faults.
    TouchResult t = kernel.touch(t0, m.addr, true);
    EXPECT_EQ(t.kind, TouchKind::MinorFault);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(SwapPolicies, EvictionBatchIsBounded)
{
    SwapDaemon swap(kernel, 3 * kMsec, 4);
    swap.track(process);
    SyscallResult m = kernel.mmap(t0, 16 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m.addr, 16 * kPageSize);
    swap.start();
    machine.run(7 * kMsec);
    EXPECT_LE(swap.evictions(), 8u); // at most 4 per eligible scan
    swap.stop();
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SwapPolicies,
    ::testing::Values(PolicyKind::LinuxSync, PolicyKind::Latr),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        return policyKindName(info.param);
    });

} // namespace
} // namespace latr
