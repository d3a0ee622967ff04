// Tests for the same-page-merging (KSM) daemon.

#include <gtest/gtest.h>

#include "numa/ksm.hh"
#include "test_helpers.hh"

namespace latr
{
namespace
{

class KsmPolicies : public ::testing::TestWithParam<PolicyKind>
{
  protected:
    KsmPolicies()
        : machine(test::tinyConfig(), GetParam()),
          kernel(machine.kernel())
    {
        process = kernel.createProcess("app");
        t0 = kernel.spawnTask(process, 0);
        t1 = kernel.spawnTask(process, 1);
        machine.run(kUsec);
    }

    /** Map and fault @p pages pages, tagging them all @p tag. */
    Addr
    taggedRegion(std::uint64_t pages, std::uint64_t tag)
    {
        SyscallResult m = kernel.mmap(t0, pages * kPageSize,
                                      kProtRead | kProtWrite);
        test::touchRange(kernel, t0, m.addr, pages * kPageSize);
        for (std::uint64_t p = 0; p < pages; ++p)
            process->mm().setContentTag(pageOf(m.addr) + p, tag);
        return m.addr;
    }

    /** Both checkers clean under every policy. */
    void TearDown() override { test::expectNoViolations(machine); }

    Machine machine;
    Kernel &kernel;
    Process *process = nullptr;
    Task *t0 = nullptr;
    Task *t1 = nullptr;
};

TEST_P(KsmPolicies, IdenticalPagesMergeOntoOneFrame)
{
    Addr region = taggedRegion(8, 0xC0FFEE);
    ASSERT_EQ(machine.frames().allocatedFrames(), 8u);

    KsmDaemon ksm(kernel, 3 * kMsec, 16);
    ksm.track(process);
    ksm.start();
    machine.run(10 * kMsec);
    ksm.stop();
    machine.run(8 * kMsec); // lazy frame release under LATR

    EXPECT_EQ(ksm.stats().merges, 7u);
    EXPECT_EQ(machine.frames().allocatedFrames(), 1u);
    // All eight pages resolve to the same frame.
    const Pfn shared =
        process->mm().pageTable().find(pageOf(region))->pfn;
    for (unsigned p = 1; p < 8; ++p)
        EXPECT_EQ(process->mm()
                      .pageTable()
                      .find(pageOf(region) + p)
                      ->pfn,
                  shared);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(KsmPolicies, DistinctTagsAreNotMerged)
{
    taggedRegion(4, 0xA);
    taggedRegion(4, 0xB);
    KsmDaemon ksm(kernel, 3 * kMsec, 16);
    ksm.track(process);
    ksm.start();
    machine.run(10 * kMsec);
    ksm.stop();
    machine.run(8 * kMsec);
    // One survivor per tag: 3 + 3 = 6 merges, 2 frames left.
    EXPECT_EQ(ksm.stats().merges, 6u);
    EXPECT_EQ(machine.frames().allocatedFrames(), 2u);
}

TEST_P(KsmPolicies, UntaggedPagesAreLeftAlone)
{
    SyscallResult m = kernel.mmap(t0, 4 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m.addr, 4 * kPageSize);
    KsmDaemon ksm(kernel, 3 * kMsec, 16);
    ksm.track(process);
    ksm.start();
    machine.run(10 * kMsec);
    ksm.stop();
    EXPECT_EQ(ksm.stats().merges, 0u);
    EXPECT_EQ(machine.frames().allocatedFrames(), 4u);
}

TEST_P(KsmPolicies, WriteAfterMergeBreaksCow)
{
    Addr region = taggedRegion(2, 0xDD);
    KsmDaemon ksm(kernel, 3 * kMsec, 16);
    ksm.track(process);
    ksm.start();
    machine.run(10 * kMsec);
    ksm.stop();
    machine.run(8 * kMsec);
    ASSERT_EQ(machine.frames().allocatedFrames(), 1u);

    // A write to one copy must un-share it.
    TouchResult w = kernel.touch(t0, region + kPageSize, true);
    EXPECT_EQ(w.kind, TouchKind::CowBreak);
    machine.run(kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 2u);
    // The two pages now map different frames again.
    EXPECT_NE(process->mm().pageTable().find(pageOf(region))->pfn,
              process->mm()
                  .pageTable()
                  .find(pageOf(region) + 1)
                  ->pfn);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(KsmPolicies, StaleReadersOfTheDuplicateAreSafe)
{
    // A second core caches the duplicate's translation; the merge
    // frees the duplicate frame lazily (under LATR) — safe because
    // the content is identical and writes were revoked first.
    Addr region = taggedRegion(2, 0xEE);
    test::touchRange(kernel, t1, region, 2 * kPageSize, false);
    KsmDaemon ksm(kernel, 3 * kMsec, 16);
    ksm.track(process);
    ksm.start();
    machine.run(10 * kMsec);
    ksm.stop();
    machine.run(8 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 1u);
    EXPECT_EQ(machine.checker()->violations(), 0u)
        << machine.checker()->firstViolation();
    // Both cores still read both pages fine.
    EXPECT_NE(kernel.touch(t1, region + kPageSize, false).kind,
              TouchKind::SegFault);
}

TEST_P(KsmPolicies, MergeBatchIsBounded)
{
    taggedRegion(16, 0xBB);
    KsmDaemon ksm(kernel, 3 * kMsec, 4);
    ksm.track(process);
    ksm.start();
    machine.run(4 * kMsec); // exactly one scan round
    EXPECT_LE(ksm.stats().merges, 4u);
    ksm.stop();
}

INSTANTIATE_TEST_SUITE_P(
    Policies, KsmPolicies,
    ::testing::ValuesIn(test::allPolicies()),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        return policyKindName(info.param);
    });

TEST(KsmLatr, DuplicateFrameFreeIsLazyUnderLatr)
{
    Machine machine(test::tinyConfig(), PolicyKind::Latr);
    Kernel &kernel = machine.kernel();
    Process *p = kernel.createProcess("app");
    Task *t0 = kernel.spawnTask(p, 0);
    machine.run(kUsec);

    SyscallResult m = kernel.mmap(t0, 2 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m.addr, 2 * kPageSize);
    p->mm().setContentTag(pageOf(m.addr), 0x11);
    p->mm().setContentTag(pageOf(m.addr) + 1, 0x11);

    KsmDaemon ksm(kernel, 2 * kMsec, 4);
    ksm.track(p);
    ksm.start();
    machine.run(2 * kMsec + 100 * kUsec); // one scan: merge happened
    ksm.stop();
    ASSERT_EQ(ksm.stats().merges, 1u);
    // The duplicate frame is parked on the lazy list, not yet freed.
    EXPECT_EQ(machine.frames().allocatedFrames(), 2u);
    machine.run(6 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 1u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

} // namespace
} // namespace latr
