// Tests for 2 MiB huge-page support — the section 7 extension: huge
// frames, PMD mappings, the separate huge-TLB array, demand faults
// that populate 2 MiB at a time, and lazy frees whose LATR state
// covers the whole region.

#include <gtest/gtest.h>

#include "test_helpers.hh"

namespace latr
{
namespace
{

TEST(HugeFrames, AllocHugeIsAlignedAndContiguous)
{
    FrameAllocator fa(2, 4096);
    Pfn base = fa.allocHuge(0);
    ASSERT_NE(base, kPfnInvalid);
    EXPECT_EQ(base % kHugePageSpan, 0u);
    for (Pfn f = base; f < base + kHugePageSpan; ++f)
        EXPECT_EQ(fa.refcount(f), 1u);
    EXPECT_EQ(fa.allocatedFrames(), kHugePageSpan);
    fa.putHuge(base);
    EXPECT_EQ(fa.allocatedFrames(), 0u);
    EXPECT_EQ(fa.freeFrames(0), 4096u);
}

TEST(HugeFrames, AllocHugeIsGloballyAlignedOnUnalignedNodes)
{
    // Node 1 owns [1000, 2000): its only whole aligned run is
    // [1024, 1536), the one putHuge() accepts.
    FrameAllocator fa(2, 1000);
    const Pfn base = fa.allocHuge(1);
    EXPECT_EQ(base, 1024u);
    EXPECT_EQ(fa.allocHuge(1), kPfnInvalid);
    fa.putHuge(base);
    EXPECT_EQ(fa.freeFrames(1), 1000u);
    EXPECT_EQ(fa.allocHuge(1), 1024u);
}

TEST(HugeFrames, FragmentationDefeatsHugeAllocation)
{
    FrameAllocator fa(1, 1024);
    // Pin one frame in every aligned run.
    std::vector<Pfn> pins;
    for (int i = 0; i < 2; ++i) {
        Pfn p = fa.allocHuge(0);
        ASSERT_NE(p, kPfnInvalid);
        // Keep the middle frame, free the rest one by one.
        for (Pfn f = p; f < p + kHugePageSpan; ++f)
            if (f != p + 100)
                fa.put(f);
        pins.push_back(p + 100);
    }
    EXPECT_EQ(fa.allocHuge(0), kPfnInvalid);
    for (Pfn p : pins)
        fa.put(p);
    EXPECT_NE(fa.allocHuge(0), kPfnInvalid);
}

TEST(HugeFrames, BaseAllocationSkipsNothing)
{
    FrameAllocator fa(1, 1024);
    Pfn huge = fa.allocHuge(0);
    ASSERT_NE(huge, kPfnInvalid);
    // Base allocation still works around the huge run.
    Pfn base = fa.alloc(0);
    EXPECT_NE(base, kPfnInvalid);
    EXPECT_TRUE(base < huge || base >= huge + kHugePageSpan);
    fa.put(base);
    fa.putHuge(huge);
}

TEST(HugePageTable, MapFindUnmap)
{
    PageTable pt;
    pt.mapHuge(0, 512, kPteWrite);
    ASSERT_NE(pt.findHuge(0), nullptr);
    ASSERT_NE(pt.findHuge(300), nullptr); // any page in the region
    EXPECT_EQ(pt.findHuge(300)->pfn, 512u);
    EXPECT_TRUE(pt.findHuge(0)->huge());
    EXPECT_EQ(pt.presentHugePages(), 1u);
    EXPECT_EQ(pt.findHuge(512), nullptr); // next region

    Pte old = pt.unmapHuge(100); // any covered vpn works
    EXPECT_TRUE(old.present());
    EXPECT_EQ(pt.findHuge(0), nullptr);
}

TEST(HugePageTableDeath, UnalignedOrOverlappingMapsPanic)
{
    PageTable pt;
    EXPECT_DEATH(pt.mapHuge(5, 512, 0), "unaligned");
    pt.map(10, 1, 0); // base mapping inside region 0
    EXPECT_DEATH(pt.mapHuge(0, 512, 0), "existing base");
}

TEST(HugeTlb, HugeEntryCoversWholeRegion)
{
    Tlb tlb(0, 4, 8, 4);
    tlb.insertHuge(0, 1024, 0);
    Pfn pfn = 0;
    bool huge = false;
    EXPECT_EQ(tlb.lookup(0, 0, &pfn, nullptr, &huge),
              TlbResult::HitL1);
    EXPECT_TRUE(huge);
    EXPECT_EQ(pfn, 1024u);
    // Offset within the region resolves with the offset applied.
    EXPECT_EQ(tlb.lookup(300, 0, &pfn, nullptr, &huge),
              TlbResult::HitL1);
    EXPECT_EQ(pfn, 1324u);
    EXPECT_TRUE(tlb.probeHuge(511, 0));
    EXPECT_FALSE(tlb.probeHuge(512, 0));
    EXPECT_EQ(tlb.hugeSize(), 1u);
}

TEST(HugeTlb, InvlpgOfAnyCoveredPageDropsTheHugeEntry)
{
    Tlb tlb(0, 4, 8, 4);
    tlb.insertHuge(0, 1024, 0);
    tlb.invalidatePage(77, 0);
    EXPECT_FALSE(tlb.probeHuge(0, 0));
}

TEST(HugeTlb, RangeInvalidationDropsOverlappingHugeEntries)
{
    Tlb tlb(0, 4, 8, 4);
    tlb.insertHuge(0, 1024, 0);
    tlb.insertHuge(512, 2048, 0);
    tlb.invalidateRange(500, 600, 0); // overlaps both regions
    EXPECT_FALSE(tlb.probeHuge(0, 0));
    EXPECT_FALSE(tlb.probeHuge(512, 0));
}

TEST(HugeTlb, FlushAndPcidCoverHugeEntries)
{
    Tlb tlb(0, 4, 8, 4);
    tlb.insertHuge(0, 1024, 1);
    tlb.insertHuge(512, 2048, 2);
    tlb.invalidatePcid(1);
    EXPECT_FALSE(tlb.probeHuge(0, 1));
    EXPECT_TRUE(tlb.probeHuge(512, 2));
    tlb.flushAll();
    EXPECT_EQ(tlb.hugeSize(), 0u);
}

class HugeKernel : public ::testing::TestWithParam<PolicyKind>
{
  protected:
    HugeKernel()
        : machine(makeConfig(), GetParam()), kernel(machine.kernel())
    {
        process = kernel.createProcess("huge");
        t0 = kernel.spawnTask(process, 0);
        t1 = kernel.spawnTask(process, 1);
        machine.run(kUsec);
    }

    static MachineConfig
    makeConfig()
    {
        MachineConfig cfg = test::tinyConfig();
        cfg.framesPerNode = 8192; // room for several 512-frame runs
        return cfg;
    }

    Machine machine;
    Kernel &kernel;
    Process *process = nullptr;
    Task *t0 = nullptr;
    Task *t1 = nullptr;
};

TEST_P(HugeKernel, FirstTouchPopulatesWholeRegion)
{
    SyscallResult m = kernel.mmapHuge(t0, kHugePageSize,
                                      kProtRead | kProtWrite);
    ASSERT_TRUE(m.ok);
    EXPECT_EQ(m.addr % kHugePageSize, 0u);

    TouchResult first = kernel.touch(t0, m.addr + 5 * kPageSize, true);
    EXPECT_EQ(first.kind, TouchKind::MinorFault);
    EXPECT_EQ(machine.frames().allocatedFrames(), kHugePageSpan);
    // Every other page in the region now hits the huge TLB entry.
    TouchResult hit = kernel.touch(t0, m.addr + 400 * kPageSize, true);
    EXPECT_EQ(hit.kind, TouchKind::TlbHit);
    EXPECT_EQ(process->mm().pageTable().presentHugePages(), 1u);
    EXPECT_EQ(process->mm().pageTable().presentPages(), 0u);
}

TEST_P(HugeKernel, MunmapFreesTheRegionCoherently)
{
    SyscallResult m = kernel.mmapHuge(t0, kHugePageSize,
                                      kProtRead | kProtWrite);
    kernel.touch(t0, m.addr, true);
    kernel.touch(t1, m.addr + 7 * kPageSize, false); // t1 caches it
    ASSERT_TRUE(
        machine.scheduler().tlbOf(1).probeHuge(pageOf(m.addr), 0));

    SyscallResult u = kernel.munmap(t0, m.addr, kHugePageSize);
    ASSERT_TRUE(u.ok);
    machine.run(8 * kMsec);
    EXPECT_FALSE(
        machine.scheduler().tlbOf(1).probeHuge(pageOf(m.addr), 0));
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u)
        << machine.checker()->firstViolation();
}

TEST_P(HugeKernel, MadviseDropsRegionAndRefaults)
{
    SyscallResult m = kernel.mmapHuge(t0, kHugePageSize,
                                      kProtRead | kProtWrite);
    kernel.touch(t0, m.addr, true);
    SyscallResult a = kernel.madvise(t0, m.addr, kHugePageSize);
    ASSERT_TRUE(a.ok);
    machine.run(8 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    // VMA survives: the next touch populates a fresh region.
    TouchResult t = kernel.touch(t0, m.addr, true);
    EXPECT_EQ(t.kind, TouchKind::MinorFault);
    EXPECT_EQ(machine.frames().allocatedFrames(), kHugePageSpan);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(HugeKernel, FallsBackToBasePagesUnderFragmentation)
{
    MachineConfig cfg = makeConfig();
    cfg.framesPerNode = 1024;
    Machine small(cfg, GetParam());
    Kernel &k = small.kernel();
    Process *p = k.createProcess("frag");
    Task *t = k.spawnTask(p, 0);
    small.run(kUsec);

    // Fragment: pin single frames across both aligned runs.
    SyscallResult pin1 = k.mmap(t, kPageSize, kProtRead | kProtWrite);
    k.touch(t, pin1.addr, true); // frame in run 0
    SyscallResult burn =
        k.mmap(t, 600 * kPageSize, kProtRead | kProtWrite);
    for (int i = 0; i < 600; ++i)
        k.touch(t, burn.addr + i * kPageSize, true);
    // Now no full aligned run is free.
    ASSERT_EQ(small.frames().allocHuge(0), kPfnInvalid);

    SyscallResult m = k.mmapHuge(t, kHugePageSize,
                                 kProtRead | kProtWrite);
    ASSERT_TRUE(m.ok);
    TouchResult r = k.touch(t, m.addr, true);
    EXPECT_EQ(r.kind, TouchKind::MinorFault);
    // Fell back to one base page, not a 512-frame region.
    EXPECT_EQ(p->mm().pageTable().presentHugePages(), 0u);
    EXPECT_GE(p->mm().pageTable().presentPages(), 1u);
}

TEST_P(HugeKernel, WriteThroughReadOnlyHugeEntrySegfaults)
{
    SyscallResult m = kernel.mmapHuge(t0, kHugePageSize, kProtRead);
    TouchResult r = kernel.touch(t0, m.addr, false);
    EXPECT_EQ(r.kind, TouchKind::MinorFault);
    EXPECT_EQ(kernel.touch(t0, m.addr, true).kind,
              TouchKind::SegFault);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, HugeKernel,
    ::testing::Values(PolicyKind::LinuxSync, PolicyKind::Latr,
                      PolicyKind::Abis, PolicyKind::Barrelfish),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        return policyKindName(info.param);
    });

TEST(HugeLatr, LazyFreeOfHugeRegionUsesOneState)
{
    MachineConfig cfg = test::tinyConfig();
    cfg.framesPerNode = 8192;
    Machine machine(cfg, PolicyKind::Latr);
    Kernel &kernel = machine.kernel();
    Process *p = kernel.createProcess("huge");
    Task *t0 = kernel.spawnTask(p, 0);
    Task *t1 = kernel.spawnTask(p, 1);
    machine.run(kUsec);

    SyscallResult m = kernel.mmapHuge(t0, kHugePageSize,
                                      kProtRead | kProtWrite);
    kernel.touch(t0, m.addr, true);
    kernel.touch(t1, m.addr, false);

    const std::uint64_t ipis = machine.ipi().ipisSent();
    SyscallResult u = kernel.munmap(t0, m.addr, kHugePageSize);
    ASSERT_TRUE(u.ok);
    EXPECT_EQ(machine.ipi().ipisSent(), ipis); // lazy, no IPI
    EXPECT_EQ(machine.stats().counterValue("latr.states_saved"), 1u);
    // 2 MiB parked on the lazy list until reclamation.
    machine.run(kMsec / 2);
    EXPECT_EQ(machine.frames().allocatedFrames(), kHugePageSpan);
    machine.run(6 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.stats().counterValue("latr.reclaimed_pages"),
              kHugePageSpan);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

} // namespace
} // namespace latr
