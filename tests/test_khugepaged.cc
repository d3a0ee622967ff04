// Tests for transparent huge-page promotion (khugepaged).

#include <gtest/gtest.h>

#include "numa/khugepaged.hh"
#include "test_helpers.hh"

namespace latr
{
namespace
{

class ThpPolicies : public ::testing::TestWithParam<PolicyKind>
{
  protected:
    ThpPolicies()
        : machine(makeConfig(), GetParam()), kernel(machine.kernel())
    {
        process = kernel.createProcess("thp");
        t0 = kernel.spawnTask(process, 0);
        t1 = kernel.spawnTask(process, 1);
        machine.run(kUsec);
    }

    static MachineConfig
    makeConfig()
    {
        MachineConfig cfg = test::tinyConfig();
        cfg.framesPerNode = 8192;
        return cfg;
    }

    /** An aligned, fully faulted 2 MiB region in a normal VMA. */
    Addr
    candidateRegion()
    {
        // Over-allocate so an aligned span fits.
        SyscallResult m =
            kernel.mmap(t0, 3 * kHugePageSize, kProtRead | kProtWrite);
        Addr aligned =
            (m.addr + kHugePageSize - 1) & ~(kHugePageSize - 1);
        for (std::uint64_t p = 0; p < kHugePageSpan; ++p)
            kernel.touch(t0, aligned + p * kPageSize, true);
        return aligned;
    }

    /** Both checkers clean under every policy. */
    void TearDown() override { test::expectNoViolations(machine); }

    Machine machine;
    Kernel &kernel;
    Process *process = nullptr;
    Task *t0 = nullptr;
    Task *t1 = nullptr;
};

TEST_P(ThpPolicies, FullyPopulatedRegionPromotes)
{
    Addr region = candidateRegion();
    const std::uint64_t before = machine.frames().allocatedFrames();
    ASSERT_GE(before, kHugePageSpan);

    Khugepaged thp(kernel, 3 * kMsec, 4);
    thp.track(process);
    thp.start();
    machine.run(10 * kMsec);
    thp.stop();
    machine.run(2 * kMsec);

    EXPECT_GE(thp.stats().promotions, 1u);
    ASSERT_NE(process->mm().pageTable().findHuge(pageOf(region)),
              nullptr);
    // 512 base PTEs replaced by one PMD entry; frame count balanced
    // (old 512 freed, new contiguous 512 allocated).
    EXPECT_EQ(process->mm().pageTable().presentPages(),
              before - kHugePageSpan);
    EXPECT_EQ(machine.frames().allocatedFrames(), before);
    EXPECT_EQ(machine.checker()->violations(), 0u)
        << machine.checker()->firstViolation();
}

TEST_P(ThpPolicies, PromotedRegionStillReadsAndWrites)
{
    Addr region = candidateRegion();
    Khugepaged thp(kernel, 3 * kMsec, 4);
    thp.track(process);
    thp.start();
    machine.run(10 * kMsec);
    thp.stop();
    ASSERT_GE(thp.stats().promotions, 1u);

    for (std::uint64_t p = 0; p < kHugePageSpan; p += 37) {
        TouchResult r = kernel.touch(t1, region + p * kPageSize, true);
        EXPECT_NE(r.kind, TouchKind::SegFault) << p;
    }
    // And the touches resolve through the huge entry.
    EXPECT_TRUE(machine.scheduler().tlbOf(1).probeHuge(
        pageOf(region), process->mm().pcid()));
}

TEST_P(ThpPolicies, RemoteStaleEntriesDieBeforeOldFramesFree)
{
    Addr region = candidateRegion();
    // t1 caches a bunch of base translations of the region.
    for (std::uint64_t p = 0; p < 32; ++p)
        kernel.touch(t1, region + p * kPageSize, false);

    Khugepaged thp(kernel, 3 * kMsec, 4);
    thp.track(process);
    thp.start();
    machine.run(10 * kMsec);
    thp.stop();
    machine.run(2 * kMsec);
    ASSERT_GE(thp.stats().promotions, 1u);
    // The collapse's synchronous shootdown killed them before the
    // old frames were reused — checker-verified.
    EXPECT_EQ(machine.checker()->violations(), 0u)
        << machine.checker()->firstViolation();
}

TEST_P(ThpPolicies, RegionsWithHolesAreSkipped)
{
    Addr region = candidateRegion();
    // Punch a hole.
    kernel.madvise(t0, region + 17 * kPageSize, kPageSize);
    machine.run(8 * kMsec);

    Khugepaged thp(kernel, 3 * kMsec, 4);
    thp.track(process);
    thp.start();
    machine.run(10 * kMsec);
    thp.stop();
    EXPECT_EQ(process->mm().pageTable().findHuge(pageOf(region)),
              nullptr);
}

TEST_P(ThpPolicies, CowRegionsAreSkipped)
{
    Addr region = candidateRegion();
    kernel.markCow(t0, region + 5 * kPageSize, kPageSize);
    Khugepaged thp(kernel, 3 * kMsec, 4);
    thp.track(process);
    thp.start();
    machine.run(10 * kMsec);
    thp.stop();
    EXPECT_EQ(process->mm().pageTable().findHuge(pageOf(region)),
              nullptr);
    EXPECT_GT(thp.stats().aborts, 0u);
}

TEST_P(ThpPolicies, PromotedRegionFreesLikeAHugePage)
{
    Addr region = candidateRegion();
    Khugepaged thp(kernel, 3 * kMsec, 4);
    thp.track(process);
    thp.start();
    machine.run(10 * kMsec);
    thp.stop();
    ASSERT_GE(thp.stats().promotions, 1u);
    machine.run(2 * kMsec);

    // munmap of a promoted region travels the huge-page free path
    // (one PMD clear, lazy under LATR) even though the VMA is not
    // a huge VMA.
    SyscallResult u = kernel.munmap(t0, region, kHugePageSize);
    ASSERT_TRUE(u.ok);
    machine.run(8 * kMsec);
    EXPECT_EQ(process->mm().pageTable().findHuge(pageOf(region)),
              nullptr);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ThpPolicies,
    ::testing::ValuesIn(test::allPolicies()),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        return policyKindName(info.param);
    });

} // namespace
} // namespace latr
