// Tests for the bounded-staleness oracle itself: white-box unit
// tests driving the listener interface with a manual clock, plus the
// machine-level wiring.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "check/staleness.hh"
#include "test_helpers.hh"

namespace latr
{
namespace
{

TEST(Staleness, OnTimeRemovalIsClean)
{
    StalenessOracle o;
    o.setNow(0);
    o.onTlbInsert(0, 100, 7, 0);
    EXPECT_EQ(o.mirroredEntries(), 1u);

    o.notePageTableInvalidation(0, 1, {{100, 7}}, CpuMask::single(0),
                                /*deadline=*/500, "munmap");
    EXPECT_EQ(o.pendingMarks(), 1u);

    o.setNow(500); // exactly at the deadline still counts
    o.onTlbRemove(0, 100, 7, 0);
    EXPECT_EQ(o.violations(), 0u);
    EXPECT_EQ(o.pendingMarks(), 0u);
    EXPECT_EQ(o.mirroredEntries(), 0u);
}

TEST(Staleness, LateRemovalIsAViolation)
{
    StalenessOracle o;
    o.setNow(0);
    o.onTlbInsert(3, 100, 7, 0);
    o.notePageTableInvalidation(0, 2, {{100, 7}}, CpuMask::single(3),
                                /*deadline=*/500, "madvise");
    o.setNow(501);
    o.onTlbRemove(3, 100, 7, 0);
    EXPECT_EQ(o.violations(), 1u);
    const std::string &first = o.firstViolation();
    EXPECT_NE(first.find("outlived"), std::string::npos);
    EXPECT_NE(first.find("core 3"), std::string::npos);
    EXPECT_NE(first.find("vpn 100"), std::string::npos);
    EXPECT_NE(first.find("pfn 7"), std::string::npos);
    EXPECT_NE(first.find("madvise"), std::string::npos);
    EXPECT_NE(first.find("deadline 500"), std::string::npos);
}

TEST(Staleness, NeverRemovedIsCaughtByAudit)
{
    StalenessOracle o;
    o.setNow(0);
    o.onTlbInsert(1, 200, 9, 4);
    o.notePageTableInvalidation(4, 1, {{200, 9}}, CpuMask::single(1),
                                /*deadline=*/1000, "munmap");
    o.auditAt(1000); // not yet due
    EXPECT_EQ(o.violations(), 0u);
    o.auditAt(1001);
    EXPECT_EQ(o.violations(), 1u);
    EXPECT_NE(o.firstViolation().find("never invalidated"),
              std::string::npos);
    EXPECT_NE(o.firstViolation().find("pcid 4"), std::string::npos);
}

TEST(Staleness, FrameReallocWhileMarkedIsAViolation)
{
    StalenessOracle o;
    o.setNow(0);
    o.onTlbInsert(0, 100, 7, 0);
    o.notePageTableInvalidation(0, 1, {{100, 7}}, CpuMask::single(0),
                                /*deadline=*/500, "munmap");
    o.onFrameAlloc(7);
    EXPECT_EQ(o.violations(), 1u);
    EXPECT_NE(o.firstViolation().find("reallocated"),
              std::string::npos);
    // An unmarked frame's realloc is InvariantChecker's business.
    o.onFrameAlloc(8);
    EXPECT_EQ(o.violations(), 1u);
}

TEST(Staleness, ReMarkKeepsTheEarliestDeadline)
{
    StalenessOracle o;
    o.setNow(0);
    o.onTlbInsert(0, 100, 7, 0);
    o.notePageTableInvalidation(0, 1, {{100, 7}}, CpuMask::single(0),
                                /*deadline=*/300, "madvise");
    // A later, laxer promise must not stretch the earlier one.
    o.notePageTableInvalidation(0, 1, {{100, 7}}, CpuMask::single(0),
                                /*deadline=*/900, "munmap");
    EXPECT_EQ(o.pendingMarks(), 1u);
    o.setNow(600);
    o.onTlbRemove(0, 100, 7, 0);
    EXPECT_EQ(o.violations(), 1u);
    EXPECT_NE(o.firstViolation().find("madvise"), std::string::npos);
}

TEST(Staleness, OnlyMirroredTranslationsGetMarked)
{
    StalenessOracle o;
    o.setNow(0);
    // Nothing cached anywhere: no promise is owed.
    o.notePageTableInvalidation(0, 1, {{100, 7}, {150, 7}, {200, 7}},
                                CpuMask::firstN(4), /*deadline=*/500,
                                "munmap");
    EXPECT_EQ(o.pendingMarks(), 0u);
    o.auditAt(10000);
    EXPECT_EQ(o.violations(), 0u);

    // Wrong pcid: the cached translation belongs to another context.
    o.onTlbInsert(0, 100, 7, /*pcid=*/3);
    o.notePageTableInvalidation(/*pcid=*/5, 1, {{100, 7}},
                                CpuMask::single(0), 500, "munmap");
    EXPECT_EQ(o.pendingMarks(), 0u);
}

TEST(Staleness, OnlyTheChangedTranslationsGetMarked)
{
    // Four pages cached; the operation changed two of them, and a
    // third whose cached entry maps an older frame (another
    // operation's promise). The oracle probes the changed pages when
    // they are fewer than the cached entries and scans the cache
    // otherwise; either way it marks exactly the two, in the changed
    // pcid only.
    using Changed = std::vector<std::pair<Vpn, Pfn>>;
    const Changed few = {{100, 7}, {102, 9}, {103, 99}};
    Changed many = {{103, 99}, {102, 9}, {100, 7}};
    for (Vpn vpn = 200; vpn < 264; ++vpn)
        many.emplace_back(vpn, 7);
    for (const Changed &changed : {few, many}) {
        StalenessOracle o;
        o.setNow(0);
        for (Vpn vpn : {100, 101, 102, 103})
            o.onTlbInsert(0, vpn, vpn - 93, 0);
        o.onTlbInsert(0, 100, 7, /*pcid=*/2);
        o.notePageTableInvalidation(0, 1, changed, CpuMask::single(0),
                                    /*deadline=*/500, "madvise");
        EXPECT_EQ(o.pendingMarks(), 2u);
        o.setNow(600);
        o.onTlbRemove(0, 101, 8, 0);
        o.onTlbRemove(0, 103, 10, 0);
        o.onTlbRemove(0, 100, 7, 2);
        EXPECT_EQ(o.violations(), 0u);
        o.onTlbRemove(0, 100, 7, 0);
        o.onTlbRemove(0, 102, 9, 0);
        EXPECT_EQ(o.violations(), 2u);
    }
}

TEST(Staleness, ReinsertSupersedesPendingMark)
{
    StalenessOracle o;
    o.setNow(0);
    o.onTlbInsert(0, 100, 7, 0);
    o.notePageTableInvalidation(0, 1, {{100, 7}}, CpuMask::single(0),
                                /*deadline=*/500, "munmap");
    // The TLB refilled the slot with a fresh translation (new pfn):
    // the old promise is moot.
    o.onTlbInsert(0, 100, 8, 0);
    EXPECT_EQ(o.pendingMarks(), 0u);
    o.setNow(9999);
    o.onTlbRemove(0, 100, 8, 0);
    EXPECT_EQ(o.violations(), 0u);
}

TEST(Staleness, ResetClearsEverything)
{
    StalenessOracle o;
    o.setNow(0);
    o.onTlbInsert(0, 100, 7, 0);
    o.notePageTableInvalidation(0, 1, {{100, 7}}, CpuMask::single(0),
                                100, "munmap");
    o.setNow(200);
    o.onTlbRemove(0, 100, 7, 0);
    ASSERT_EQ(o.violations(), 1u);
    o.reset();
    EXPECT_EQ(o.violations(), 0u);
    EXPECT_EQ(o.pendingMarks(), 0u);
    EXPECT_EQ(o.mirroredEntries(), 0u);
    EXPECT_TRUE(o.firstViolation().empty());
}

TEST(StalenessDeath, StrictModePanicsImmediately)
{
    StalenessOracle o(/*strict=*/true);
    o.setNow(0);
    o.onTlbInsert(0, 100, 7, 0);
    o.notePageTableInvalidation(0, 1, {{100, 7}}, CpuMask::single(0),
                                100, "munmap");
    o.setNow(200);
    EXPECT_DEATH(o.onTlbRemove(0, 100, 7, 0), "staleness contract");
}

TEST(Staleness, MachineInstallIsIdempotent)
{
    Machine machine(test::tinyConfig(), PolicyKind::Latr);
    EXPECT_EQ(machine.staleness(), nullptr);
    machine.installStalenessOracle();
    StalenessOracle *first = machine.staleness();
    ASSERT_NE(first, nullptr);
    machine.installStalenessOracle();
    EXPECT_EQ(machine.staleness(), first);

    // A short workload drives the wiring end to end.
    Kernel &kernel = machine.kernel();
    Process *p = kernel.createProcess("a");
    Task *t = kernel.spawnTask(p, 0);
    machine.run(kUsec);
    SyscallResult m =
        kernel.mmap(t, 4 * kPageSize, kProtRead | kProtWrite);
    ASSERT_TRUE(m.ok);
    kernel.touch(t, m.addr, true);
    kernel.munmap(t, m.addr, 4 * kPageSize);
    machine.run(10 * kMsec);
    machine.staleness()->auditAt(machine.now());
    EXPECT_EQ(machine.staleness()->violations(), 0u)
        << machine.staleness()->firstViolation();
}

} // namespace
} // namespace latr
