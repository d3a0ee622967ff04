// Tests for the coherence checker itself: white-box unit tests that
// drive real TLBs and the frame-listener interface on a clock the
// test advances, plus the machine-level wiring. The Invariant suite
// covers the reuse half, the Staleness suite the contract half.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "check/checker.hh"
#include "test_helpers.hh"

namespace latr
{
namespace
{

using Pages = std::vector<std::pair<Vpn, Pfn>>;

/** A checker attached to four cores' TLBs and an idle event queue. */
struct Rig
{
    EventQueue clock;
    CoherenceChecker c{clock};
    std::vector<std::unique_ptr<Tlb>> tlbs;

    Rig()
    {
        for (CoreId core = 0; core < 4; ++core) {
            tlbs.push_back(std::make_unique<Tlb>(core, 64, 512));
            c.attach(core, *tlbs.back());
        }
    }

    Tlb &tlb(CoreId core) { return *tlbs.at(core); }

    /** Advance the clock to @p t. */
    void at(Tick t) { clock.run(t); }
};

TEST(Invariant, CleanSequencesReportNothing)
{
    Rig r;
    r.c.onFrameAlloc(7);
    r.tlb(0).insert(100, 7, 0);
    r.tlb(0).invalidatePage(100, 0);
    r.c.onFrameFree(7);
    r.c.onFrameAlloc(7);
    EXPECT_EQ(r.c.violations(), 0u);
    EXPECT_TRUE(r.c.firstViolation().empty());
}

TEST(Invariant, FreeWhileMappedIsFlagged)
{
    Rig r;
    r.c.onFrameAlloc(7);
    r.tlb(0).insert(100, 7, 0);
    r.c.onFrameFree(7);
    EXPECT_EQ(r.c.violations(), 1u);
    EXPECT_EQ(r.c.reuseViolations(), 1u);
    EXPECT_NE(r.c.firstViolation().find("freed"), std::string::npos);
}

TEST(Invariant, ReallocWhileMappedIsFlagged)
{
    Rig r;
    r.tlb(0).insert(100, 7, 0);
    r.c.onFrameAlloc(7);
    EXPECT_EQ(r.c.violations(), 1u);
    EXPECT_NE(r.c.firstViolation().find("allocated"),
              std::string::npos);
}

TEST(Invariant, RefsCountAcrossCores)
{
    Rig r;
    r.tlb(0).insert(100, 7, 0);
    r.tlb(1).insert(100, 7, 0);
    r.tlb(2).insert(200, 7, 0); // another vpn, same frame
    EXPECT_EQ(r.c.tlbRefs(7), 3u);
    r.tlb(1).invalidatePage(100, 0);
    EXPECT_EQ(r.c.tlbRefs(7), 2u);
    r.tlb(0).flushAll();
    r.tlb(2).flushAll();
    EXPECT_EQ(r.c.tlbRefs(7), 0u);
}

TEST(Invariant, FirstViolationIsKept)
{
    Rig r;
    r.tlb(0).insert(100, 7, 0);
    r.c.onFrameFree(7);
    std::string first = r.c.firstViolation();
    r.c.onFrameFree(7);
    EXPECT_EQ(r.c.violations(), 2u);
    EXPECT_EQ(r.c.firstViolation(), first);
}

TEST(Invariant, FirstViolationNamesFrameAndLiveRefs)
{
    Rig r;
    r.tlb(0).insert(100, 41, 0);
    r.tlb(1).insert(100, 41, 0);
    r.tlb(2).insert(300, 41, 2);
    r.c.onFrameFree(41);
    const std::string &first = r.c.firstViolation();
    // The report must identify the frame and how many TLB entries
    // still translated it — that is what makes it actionable.
    EXPECT_NE(first.find("pfn 41"), std::string::npos) << first;
    EXPECT_NE(first.find("3 live TLB refs"), std::string::npos)
        << first;
    EXPECT_NE(first.find("freed while still mapped"),
              std::string::npos)
        << first;
}

TEST(Invariant, AllocViolationMessageIsDistinctFromFree)
{
    Rig r;
    r.tlb(0).insert(100, 9, 0);
    r.c.onFrameAlloc(9);
    EXPECT_NE(r.c.firstViolation().find("allocated while still mapped"),
              std::string::npos)
        << r.c.firstViolation();
    EXPECT_NE(r.c.firstViolation().find("1 live TLB refs"),
              std::string::npos)
        << r.c.firstViolation();
}

TEST(Invariant, ResetClearsState)
{
    Rig r;
    r.tlb(0).insert(100, 7, 0);
    r.c.onFrameFree(7);
    r.c.reset();
    EXPECT_EQ(r.c.violations(), 0u);
    EXPECT_EQ(r.c.tlbRefs(7), 0u);
}

TEST(InvariantDeath, UntrackedRemoveIsASimulatorBug)
{
    Rig r;
    EXPECT_DEATH(r.c.onTlbRemove(0, 100, 7, 0), "untracked");
}

TEST(Staleness, OnTimeRemovalIsClean)
{
    Rig r;
    r.tlb(0).insert(100, 7, 0);
    EXPECT_EQ(r.c.tlbRefs(7), 1u);

    r.c.noteInvalidation(0, 1, Pages{{100, 7}}, CpuMask::single(0),
                         /*deadline=*/500, "munmap");
    EXPECT_EQ(r.c.pendingMarks(), 1u);

    r.at(500); // exactly at the deadline still counts
    r.tlb(0).invalidatePage(100, 0);
    EXPECT_EQ(r.c.violations(), 0u);
    EXPECT_EQ(r.c.pendingMarks(), 0u);
    EXPECT_EQ(r.c.tlbRefs(7), 0u);
}

TEST(Staleness, LateRemovalIsAViolation)
{
    Rig r;
    r.tlb(3).insert(100, 7, 0);
    r.c.noteInvalidation(0, 2, Pages{{100, 7}}, CpuMask::single(3),
                         /*deadline=*/500, "madvise");
    r.at(501);
    r.tlb(3).invalidatePage(100, 0);
    EXPECT_EQ(r.c.violations(), 1u);
    EXPECT_EQ(r.c.stalenessViolations(), 1u);
    const std::string &first = r.c.firstStalenessViolation();
    EXPECT_NE(first.find("outlived"), std::string::npos);
    EXPECT_NE(first.find("core 3"), std::string::npos);
    EXPECT_NE(first.find("vpn 100"), std::string::npos);
    EXPECT_NE(first.find("pfn 7"), std::string::npos);
    EXPECT_NE(first.find("madvise"), std::string::npos);
    EXPECT_NE(first.find("deadline 500"), std::string::npos);
}

TEST(Staleness, NeverRemovedIsCaughtByAudit)
{
    Rig r;
    r.tlb(1).insert(200, 9, 4);
    r.c.noteInvalidation(4, 1, Pages{{200, 9}}, CpuMask::single(1),
                         /*deadline=*/1000, "munmap");
    r.c.auditAt(1000); // not yet due
    EXPECT_EQ(r.c.violations(), 0u);
    r.c.auditAt(1001);
    EXPECT_EQ(r.c.violations(), 1u);
    EXPECT_NE(r.c.firstViolation().find("never invalidated"),
              std::string::npos);
    EXPECT_NE(r.c.firstViolation().find("pcid 4"), std::string::npos);
}

TEST(Staleness, FrameReallocWhileMarkedIsAViolation)
{
    Rig r;
    r.tlb(0).insert(100, 7, 0);
    r.c.noteInvalidation(0, 1, Pages{{100, 7}}, CpuMask::single(0),
                         /*deadline=*/500, "munmap");
    r.c.onFrameAlloc(7);
    // Both halves: the frame is still mapped, and the mapping is a
    // stale one a policy promised to kill.
    EXPECT_EQ(r.c.reuseViolations(), 1u);
    EXPECT_EQ(r.c.stalenessViolations(), 1u);
    EXPECT_NE(r.c.firstStalenessViolation().find("reallocated"),
              std::string::npos);
    // An unmarked frame's realloc is the reuse half's business.
    r.tlb(1).insert(300, 8, 0);
    r.c.onFrameAlloc(8);
    EXPECT_EQ(r.c.stalenessViolations(), 1u);
    EXPECT_EQ(r.c.reuseViolations(), 2u);
}

TEST(Staleness, ReMarkKeepsTheEarliestDeadline)
{
    Rig r;
    r.tlb(0).insert(100, 7, 0);
    r.c.noteInvalidation(0, 1, Pages{{100, 7}}, CpuMask::single(0),
                         /*deadline=*/300, "madvise");
    // A later, laxer promise must not stretch the earlier one.
    r.c.noteInvalidation(0, 1, Pages{{100, 7}}, CpuMask::single(0),
                         /*deadline=*/900, "munmap");
    EXPECT_EQ(r.c.pendingMarks(), 1u);
    r.at(600);
    r.tlb(0).invalidatePage(100, 0);
    EXPECT_EQ(r.c.violations(), 1u);
    EXPECT_NE(r.c.firstViolation().find("madvise"), std::string::npos);
}

TEST(Staleness, OnlyMirroredTranslationsGetMarked)
{
    Rig r;
    // Nothing cached anywhere: no promise is owed.
    r.c.noteInvalidation(0, 1, Pages{{100, 7}, {150, 7}, {200, 7}},
                         CpuMask::firstN(4), /*deadline=*/500, "munmap");
    EXPECT_EQ(r.c.pendingMarks(), 0u);
    r.c.auditAt(10000);
    EXPECT_EQ(r.c.violations(), 0u);

    // Wrong pcid: the cached translation belongs to another context.
    r.tlb(0).insert(100, 7, /*pcid=*/3);
    r.c.noteInvalidation(/*pcid=*/5, 1, Pages{{100, 7}},
                         CpuMask::single(0), 500, "munmap");
    EXPECT_EQ(r.c.pendingMarks(), 0u);

    // A core outside the mask is not probed.
    r.c.noteInvalidation(3, 1, Pages{{100, 7}}, CpuMask::single(1), 500,
                         "munmap");
    EXPECT_EQ(r.c.pendingMarks(), 0u);
}

TEST(Staleness, OnlyTheChangedTranslationsGetMarked)
{
    // Four pages cached; the operation changed two of them, and a
    // third whose cached entry maps an older frame (another
    // operation's promise). However many uncached pages the list
    // adds, the checker marks exactly the two, in the changed pcid
    // only.
    const Pages few = {{100, 7}, {102, 9}, {103, 99}};
    Pages many = {{103, 99}, {102, 9}, {100, 7}};
    for (Vpn vpn = 200; vpn < 264; ++vpn)
        many.emplace_back(vpn, 7);
    for (const Pages &changed : {few, many}) {
        Rig r;
        Tlb &tlb = r.tlb(0);
        for (Vpn vpn : {100, 101, 102, 103})
            tlb.insert(vpn, vpn - 93, 0);
        tlb.insert(100, 7, /*pcid=*/2);
        r.c.noteInvalidation(0, 1, changed, CpuMask::single(0),
                             /*deadline=*/500, "madvise");
        EXPECT_EQ(r.c.pendingMarks(), 2u);
        r.at(600);
        tlb.invalidatePage(101, 0);
        tlb.invalidatePage(103, 0);
        tlb.invalidatePage(100, 2);
        EXPECT_EQ(r.c.violations(), 0u);
        tlb.invalidatePage(100, 0);
        tlb.invalidatePage(102, 0);
        EXPECT_EQ(r.c.violations(), 2u);
    }
}

TEST(Staleness, HugeEntryIsMarkedByItsBase)
{
    // A 2 MiB entry is marked by its base vpn and base pfn, as the
    // kernel reports a huge mapping; a 4 KiB page inside the region
    // is not that entry.
    Rig r;
    r.tlb(0).insertHuge(1024, 4096, 0);
    r.c.noteInvalidation(0, 1, Pages{{1025, 4097}}, CpuMask::single(0),
                         /*deadline=*/500, "munmap");
    EXPECT_EQ(r.c.pendingMarks(), 0u);
    r.c.noteInvalidation(0, 1, Pages{{1024, 4096}}, CpuMask::single(0),
                         /*deadline=*/500, "munmap");
    EXPECT_EQ(r.c.pendingMarks(), 1u);
    r.at(501);
    r.tlb(0).invalidatePage(1030, 0); // INVLPG anywhere in the region
    EXPECT_EQ(r.c.pendingMarks(), 0u);
    EXPECT_EQ(r.c.stalenessViolations(), 1u);
    EXPECT_NE(r.c.firstViolation().find("vpn 1024"), std::string::npos)
        << r.c.firstViolation();
}

TEST(Staleness, ReinsertSupersedesPendingMark)
{
    Rig r;
    r.tlb(0).insert(100, 7, 0);
    r.c.noteInvalidation(0, 1, Pages{{100, 7}}, CpuMask::single(0),
                         /*deadline=*/500, "munmap");
    // The TLB refilled the slot with a fresh translation (new pfn):
    // it reports the old entry's removal, in time, so the old
    // promise is kept.
    r.tlb(0).insert(100, 8, 0);
    EXPECT_EQ(r.c.pendingMarks(), 0u);
    r.at(9999);
    r.tlb(0).invalidatePage(100, 0);
    EXPECT_EQ(r.c.violations(), 0u);
}

TEST(Staleness, ResetClearsEverything)
{
    Rig r;
    r.tlb(0).insert(100, 7, 0);
    r.tlb(0).insert(101, 8, 0);
    r.c.noteInvalidation(0, 1, Pages{{100, 7}, {101, 8}},
                         CpuMask::single(0), 100, "munmap");
    r.at(200);
    r.tlb(0).invalidatePage(100, 0);
    ASSERT_EQ(r.c.violations(), 1u);
    r.c.reset();
    EXPECT_EQ(r.c.violations(), 0u);
    EXPECT_EQ(r.c.stalenessViolations(), 0u);
    EXPECT_EQ(r.c.pendingMarks(), 0u);
    EXPECT_TRUE(r.c.firstViolation().empty());
    EXPECT_TRUE(r.c.firstStalenessViolation().empty());
}

TEST(Staleness, EveryMachineChecksTheContract)
{
    // A Machine built with default arguments carries the checker:
    // with LATR's sweeps broken, core 1 keeps its translation of the
    // unmapped page past the epoch, which the staleness half reports.
    // The frame stays allocated (the reclaim waits for core 1), so
    // the reuse half stays clean.
    MachineConfig cfg = test::tinyConfig();
    cfg.injectSkipLatrSweep = true;
    Machine machine(cfg, PolicyKind::Latr);
    Kernel &kernel = machine.kernel();
    Process *p = kernel.createProcess("a");
    Task *t0 = kernel.spawnTask(p, 0);
    Task *t1 = kernel.spawnTask(p, 1);
    machine.run(kUsec);
    SyscallResult m = kernel.mmap(t0, kPageSize, kProtRead | kProtWrite);
    ASSERT_TRUE(m.ok);
    kernel.touch(t0, m.addr, true);
    kernel.touch(t1, m.addr, false);
    kernel.munmap(t0, m.addr, kPageSize);
    machine.run(10 * kMsec);

    CoherenceChecker *checker = machine.checker();
    ASSERT_NE(checker, nullptr);
    EXPECT_EQ(machine.staleness(), nullptr);
    checker->auditAt(machine.now());
    EXPECT_GT(checker->stalenessViolations(), 0u);
    EXPECT_NE(checker->firstStalenessViolation().find("munmap"),
              std::string::npos)
        << checker->firstStalenessViolation();
    EXPECT_EQ(checker->reuseViolations(), 0u)
        << checker->firstReuseViolation();
}

} // namespace
} // namespace latr
