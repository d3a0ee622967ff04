// Tests for the compaction daemon (the kcompactd analogue).

#include <gtest/gtest.h>

#include "numa/compaction.hh"
#include "test_helpers.hh"

namespace latr
{
namespace
{

class CompactionPolicies : public ::testing::TestWithParam<PolicyKind>
{
  protected:
    CompactionPolicies()
        : machine(makeConfig(), GetParam()), kernel(machine.kernel())
    {
        process = kernel.createProcess("app");
        t0 = kernel.spawnTask(process, 0);
        machine.run(kUsec);
    }

    static MachineConfig
    makeConfig()
    {
        MachineConfig cfg = test::tinyConfig();
        cfg.framesPerNode = 512; // small node: fragmentation visible
        return cfg;
    }

    /**
     * Fragment node 0: allocate pages until frames from the upper
     * half are in use, then free the low ones so low frames are
     * available again.
     */
    Addr
    fragment(std::uint64_t keep_pages)
    {
        // Burn through the low half with a throwaway mapping.
        SyscallResult burn =
            kernel.mmap(t0, 300 * kPageSize, kProtRead | kProtWrite);
        test::touchRange(kernel, t0, burn.addr, 300 * kPageSize);
        // These land in high frames.
        SyscallResult keep = kernel.mmap(
            t0, keep_pages * kPageSize, kProtRead | kProtWrite);
        test::touchRange(kernel, t0, keep.addr,
                         keep_pages * kPageSize);
        // Free the low half; the survivors stay high.
        kernel.munmap(t0, burn.addr, 300 * kPageSize);
        machine.run(8 * kMsec); // let lazy reclamation finish
        return keep.addr;
    }

    /** Both checkers clean under every policy. */
    void TearDown() override { test::expectNoViolations(machine); }

    Machine machine;
    Kernel &kernel;
    Process *process = nullptr;
    Task *t0 = nullptr;
};

TEST_P(CompactionPolicies, MovesHighPagesIntoLowFrames)
{
    fragment(32);
    CompactionDaemon compactor(kernel, 0, 3 * kMsec, 16);
    compactor.track(process);
    const double before = compactor.highFrameFraction();
    ASSERT_GT(before, 0.9); // everything sits high after fragment()

    compactor.start();
    machine.run(40 * kMsec);
    compactor.stop();
    machine.run(8 * kMsec);

    EXPECT_GT(compactor.stats().pagesMoved, 0u);
    EXPECT_LT(compactor.highFrameFraction(), 0.2);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(CompactionPolicies, DataRemainsMappedAfterCompaction)
{
    Addr keep = fragment(16);
    CompactionDaemon compactor(kernel, 0, 3 * kMsec, 16);
    compactor.track(process);
    compactor.start();
    machine.run(30 * kMsec);
    compactor.stop();
    machine.run(8 * kMsec);

    // Every page still resolves (through new frames).
    for (unsigned p = 0; p < 16; ++p) {
        TouchResult r =
            kernel.touch(t0, keep + p * kPageSize, false);
        EXPECT_NE(r.kind, TouchKind::SegFault) << p;
    }
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(CompactionPolicies, HotPagesAreSkipped)
{
    Addr keep = fragment(8);
    CompactionDaemon compactor(kernel, 0, 3 * kMsec, 16);
    compactor.track(process);
    compactor.start();
    // Touch the pages continuously: every sample gets resolved by
    // the access before the completion pass, so moves abort.
    for (int round = 0; round < 10; ++round) {
        machine.run(2 * kMsec);
        test::touchRange(kernel, t0, keep, 8 * kPageSize, false);
    }
    compactor.stop();
    EXPECT_GT(compactor.stats().aborts, 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(CompactionPolicies, FrameBalanceIsPreserved)
{
    fragment(24);
    const std::uint64_t allocated = machine.frames().allocatedFrames();
    CompactionDaemon compactor(kernel, 0, 3 * kMsec, 16);
    compactor.track(process);
    compactor.start();
    machine.run(40 * kMsec);
    compactor.stop();
    machine.run(8 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), allocated);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CompactionPolicies,
    ::testing::ValuesIn(test::allPolicies()),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        return policyKindName(info.param);
    });

TEST(CompactionLatr, SamplingIsLazyUnderLatr)
{
    // The compaction daemon's sampling goes through the same policy
    // hook as AutoNUMA: no IPIs under LATR.
    MachineConfig cfg = test::tinyConfig();
    cfg.framesPerNode = 512;
    Machine machine(cfg, PolicyKind::Latr);
    Kernel &kernel = machine.kernel();
    Process *p = kernel.createProcess("app");
    Task *t0 = kernel.spawnTask(p, 0);
    machine.run(kUsec);

    SyscallResult burn =
        kernel.mmap(t0, 300 * kPageSize, kProtRead | kProtWrite);
    test::touchRange(kernel, t0, burn.addr, 300 * kPageSize);
    SyscallResult keep =
        kernel.mmap(t0, 16 * kPageSize, kProtRead | kProtWrite);
    test::touchRange(kernel, t0, keep.addr, 16 * kPageSize);
    kernel.munmap(t0, burn.addr, 300 * kPageSize);
    machine.run(8 * kMsec);

    machine.ipi().resetStats();
    CompactionDaemon compactor(kernel, 0, 3 * kMsec, 8);
    compactor.track(p);
    compactor.start();
    machine.run(4 * kMsec); // one sampling round, before completion
    // Samples were taken without any IPI (the moves themselves use
    // the synchronous migration unmap later).
    EXPECT_GT(compactor.stats().samples, 0u);
    EXPECT_EQ(machine.ipi().ipisSent(), 0u);
    compactor.stop();
}

} // namespace
} // namespace latr
