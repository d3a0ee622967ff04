// Kernel syscall-layer tests, run against every policy where the
// semantics must be identical.

#include <gtest/gtest.h>

#include "test_helpers.hh"

namespace latr
{
namespace
{

class KernelAllPolicies : public ::testing::TestWithParam<PolicyKind>
{
  protected:
    KernelAllPolicies()
        : machine(test::tinyConfig(), GetParam()),
          kernel(machine.kernel())
    {
        process = kernel.createProcess("app");
        task = kernel.spawnTask(process, 0);
        peer = kernel.spawnTask(process, 1);
    }

    /** Settle asynchronous work (ticks, reclamation, IPIs). */
    void
    settle(Duration d = 8 * kMsec)
    {
        machine.run(d);
    }

    Machine machine;
    Kernel &kernel;
    Process *process = nullptr;
    Task *task = nullptr;
    Task *peer = nullptr;
};

TEST_P(KernelAllPolicies, MmapTouchMunmapLifecycle)
{
    SyscallResult m = kernel.mmap(task, 4 * kPageSize,
                                  kProtRead | kProtWrite);
    ASSERT_TRUE(m.ok);
    EXPECT_GT(m.latency, 0u);
    test::touchRange(kernel, task, m.addr, 4 * kPageSize);
    EXPECT_EQ(machine.frames().allocatedFrames(), 4u);

    SyscallResult u = kernel.munmap(task, m.addr, 4 * kPageSize);
    ASSERT_TRUE(u.ok);
    settle();
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(KernelAllPolicies, MunmapOfUnmappedRangeSucceedsCheaply)
{
    // Valid but unmapped range: succeeds with nothing to do (as in
    // Linux). LATR still writes a state (it must conservatively park
    // the virtual range), so allow up to one state save.
    SyscallResult u = kernel.munmap(task, 0x7000'0000ULL, kPageSize);
    EXPECT_TRUE(u.ok);
    EXPECT_LE(u.shootdown, 200u);
    SyscallResult m = kernel.mmap(task, kPageSize, kProtRead);
    SyscallResult u2 = kernel.munmap(task, m.addr, kPageSize);
    EXPECT_TRUE(u2.ok);
}

TEST_P(KernelAllPolicies, MadviseDropsPagesKeepsVma)
{
    SyscallResult m = kernel.mmap(task, 4 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, 4 * kPageSize);
    SyscallResult a = kernel.madvise(task, m.addr, 2 * kPageSize);
    ASSERT_TRUE(a.ok);
    settle();
    EXPECT_EQ(machine.frames().allocatedFrames(), 2u);
    // Refault works (VMA kept).
    TouchResult t = kernel.touch(task, m.addr, true);
    EXPECT_EQ(t.kind, TouchKind::MinorFault);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(KernelAllPolicies, MprotectRemovesWritePermissionEverywhere)
{
    SyscallResult m = kernel.mmap(task, 2 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, 2 * kPageSize);
    test::touchRange(kernel, peer, m.addr, 2 * kPageSize);
    SyscallResult pr =
        kernel.mprotect(task, m.addr, 2 * kPageSize, kProtRead);
    ASSERT_TRUE(pr.ok);
    settle();
    // Writes now fault on both cores (no stale writable entries).
    EXPECT_EQ(kernel.touch(task, m.addr, true).kind,
              TouchKind::SegFault);
    EXPECT_EQ(kernel.touch(peer, m.addr, true).kind,
              TouchKind::SegFault);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(KernelAllPolicies, MremapMovesMappingPreservingFrames)
{
    SyscallResult m = kernel.mmap(task, 2 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, 2 * kPageSize);
    const Pfn f0 =
        process->mm().pageTable().find(pageOf(m.addr))->pfn;
    SyscallResult r =
        kernel.mremap(task, m.addr, 2 * kPageSize, 2 * kPageSize);
    ASSERT_TRUE(r.ok);
    EXPECT_NE(r.addr, m.addr);
    settle();
    // Old range gone, new range maps the same frame.
    EXPECT_EQ(kernel.touch(task, m.addr, false).kind,
              TouchKind::SegFault);
    TouchResult t = kernel.touch(task, r.addr, false);
    EXPECT_EQ(t.pfn, f0);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(KernelAllPolicies, CowMarkAndBreak)
{
    SyscallResult m = kernel.mmap(task, kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, kPageSize);
    const Pfn orig =
        process->mm().pageTable().find(pageOf(m.addr))->pfn;
    // Simulate a second owner of the frame (as fork would create).
    machine.frames().get(orig);
    SyscallResult c = kernel.markCow(task, m.addr, kPageSize);
    ASSERT_TRUE(c.ok);
    settle();

    TouchResult w = kernel.touch(task, m.addr, true);
    EXPECT_EQ(w.kind, TouchKind::CowBreak);
    EXPECT_NE(w.pfn, orig);
    // Our reference outlives every stale translation to the frame:
    // it drops when the break's shootdown is acknowledged.
    EXPECT_EQ(machine.frames().refcount(orig), 2u);
    settle();
    EXPECT_EQ(machine.frames().refcount(orig), 1u); // our ref dropped
    EXPECT_EQ(machine.checker()->violations(), 0u);
    machine.frames().put(orig); // release the fake second owner
}

TEST_P(KernelAllPolicies, CowBreakSoleOwnerUpgradesInPlace)
{
    SyscallResult m = kernel.mmap(task, kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, kPageSize);
    const Pfn orig =
        process->mm().pageTable().find(pageOf(m.addr))->pfn;
    kernel.markCow(task, m.addr, kPageSize);
    settle();
    TouchResult w = kernel.touch(task, m.addr, true);
    EXPECT_EQ(w.kind, TouchKind::CowBreak);
    EXPECT_EQ(w.pfn, orig); // no copy needed
}

TEST_P(KernelAllPolicies, ExitProcessReleasesEverything)
{
    SyscallResult m = kernel.mmap(task, 8 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, 8 * kPageSize);
    test::touchRange(kernel, peer, m.addr, 8 * kPageSize);
    settle();
    kernel.exitProcess(process);
    settle();
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(KernelAllPolicies, TouchStatsAreCounted)
{
    SyscallResult m = kernel.mmap(task, kPageSize,
                                  kProtRead | kProtWrite);
    kernel.touch(task, m.addr, true);
    kernel.touch(task, 0x10, false); // unmapped low address
    EXPECT_EQ(machine.stats().counterValue("vm.minor_faults"), 1u);
    EXPECT_EQ(machine.stats().counterValue("vm.segfaults"), 1u);
}

TEST_P(KernelAllPolicies, MunmapLatencyRecorded)
{
    SyscallResult m = kernel.mmap(task, kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, task, m.addr, kPageSize);
    kernel.munmap(task, m.addr, kPageSize);
    EXPECT_EQ(
        machine.stats().distribution("munmap.latency_ns").count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, KernelAllPolicies,
    ::testing::Values(PolicyKind::LinuxSync, PolicyKind::Latr,
                      PolicyKind::Abis, PolicyKind::Barrelfish),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        return policyKindName(info.param);
    });

} // namespace
} // namespace latr
