// Tests for the LATR policy — the paper's mechanism (sections 3-4):
// lazy shootdown via per-core states, sweeps at ticks/switches, lazy
// reclamation, fallback IPIs, lazy migration unmap, and the race
// semantics of section 4.4.

#include <gtest/gtest.h>

#include <cstring>

#include "test_helpers.hh"
#include "tlbcoh/latr_policy.hh"
#include "trace/trace.hh"

namespace latr
{
namespace
{

struct LatrFixture : public ::testing::Test
{
    LatrFixture()
        : machine(test::tinyConfig(), PolicyKind::Latr),
          kernel(machine.kernel()),
          policy(static_cast<LatrPolicy *>(&machine.policy()))
    {
        process = kernel.createProcess("app");
        t0 = kernel.spawnTask(process, 0);
        t1 = kernel.spawnTask(process, 1);
        t4 = kernel.spawnTask(process, 4); // other socket
        // Start ticks.
        machine.run(kUsec);
    }

    /** mmap + touch on a set of tasks. */
    Addr
    sharedPage(std::initializer_list<Task *> tasks)
    {
        SyscallResult m = kernel.mmap(t0, kPageSize,
                                      kProtRead | kProtWrite);
        for (Task *t : tasks)
            test::touchRange(kernel, t, m.addr, kPageSize);
        return m.addr;
    }

    Machine machine;
    Kernel &kernel;
    LatrPolicy *policy;
    Process *process = nullptr;
    Task *t0 = nullptr;
    Task *t1 = nullptr;
    Task *t4 = nullptr;
};

TEST_F(LatrFixture, MunmapSendsNoIpisAndReturnsFast)
{
    Addr addr = sharedPage({t0, t1, t4});
    const std::uint64_t ipis = machine.ipi().ipisSent();
    SyscallResult u = kernel.munmap(t0, addr, kPageSize);
    ASSERT_TRUE(u.ok);
    EXPECT_EQ(machine.ipi().ipisSent(), ipis); // zero IPIs
    // Shootdown contribution is just the state save (~132 ns).
    EXPECT_LE(u.shootdown, 200u);
    EXPECT_EQ(policy->activeStates(), 1u);
    EXPECT_EQ(machine.stats().counterValue("latr.states_saved"), 1u);
}

TEST_F(LatrFixture, RemoteEntriesDieAtNextTick)
{
    Addr addr = sharedPage({t0, t1, t4});
    kernel.munmap(t0, addr, kPageSize);
    EXPECT_TRUE(machine.scheduler().tlbOf(1).probe(pageOf(addr), 0));
    EXPECT_TRUE(machine.scheduler().tlbOf(4).probe(pageOf(addr), 0));
    // One full tick interval later, every core has swept.
    machine.run(machine.config().cost.tickInterval + 10 * kUsec);
    EXPECT_FALSE(machine.scheduler().tlbOf(1).probe(pageOf(addr), 0));
    EXPECT_FALSE(machine.scheduler().tlbOf(4).probe(pageOf(addr), 0));
    EXPECT_EQ(policy->activeStates(), 0u); // all bits cleared
    EXPECT_EQ(policy->pendingReclaim(), 1u);
}

TEST_F(LatrFixture, ReclamationWaitsTwoTickPeriods)
{
    Addr addr = sharedPage({t0, t1});
    kernel.munmap(t0, addr, kPageSize);
    EXPECT_EQ(machine.frames().allocatedFrames(), 1u);
    machine.run(1 * kMsec); // one period: not yet
    EXPECT_EQ(machine.frames().allocatedFrames(), 1u);
    machine.run(2 * kMsec); // past 2 ms since save
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(policy->pendingReclaim(), 0u);
    EXPECT_GT(machine.stats().counterValue("latr.reclaimed_pages"), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, VirtualRangeHeldBackUntilReclaim)
{
    Addr addr = sharedPage({t0, t1});
    kernel.munmap(t0, addr, kPageSize);
    EXPECT_TRUE(process->mm().rangeHeldBack(addr, addr + kPageSize));
    // An immediate mmap must not reuse the held-back range.
    SyscallResult m2 = kernel.mmap(t0, kPageSize,
                                   kProtRead | kProtWrite);
    EXPECT_NE(m2.addr, addr);
    machine.run(4 * kMsec);
    EXPECT_FALSE(process->mm().rangeHeldBack(addr, addr + kPageSize));
    // Now the first-fit allocator may hand it out again.
    SyscallResult m3 = kernel.mmap(t0, kPageSize,
                                   kProtRead | kProtWrite);
    EXPECT_EQ(m3.addr, addr);
}

TEST_F(LatrFixture, StaleReadsServeOldPageThenFault)
{
    // Section 4.4: an application bug touching freed memory reads
    // the old page until the sweep, then segfaults.
    Addr addr = sharedPage({t0, t1});
    const Pfn old_pfn = kernel.touch(t1, addr, false).pfn;
    kernel.munmap(t0, addr, kPageSize);
    TouchResult before = kernel.touch(t1, addr, false);
    EXPECT_EQ(before.kind, TouchKind::TlbHit);
    EXPECT_EQ(before.pfn, old_pfn); // still the old frame
    machine.run(machine.config().cost.tickInterval + 10 * kUsec);
    TouchResult after = kernel.touch(t1, addr, false);
    EXPECT_EQ(after.kind, TouchKind::SegFault);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, StaleWritesNeverReachReusedFrames)
{
    // The invariant in action: the stale-writable window never
    // overlaps the frame's next life.
    Addr addr = sharedPage({t0, t1});
    kernel.munmap(t0, addr, kPageSize);
    kernel.touch(t1, addr, true); // stale write, old frame, allowed
    machine.run(6 * kMsec);       // reclaim
    // New allocation reuses the frame; checker saw no overlap.
    SyscallResult m2 = kernel.mmap(t0, kPageSize,
                                   kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m2.addr, kPageSize);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, ContextSwitchAlsoSweeps)
{
    Addr addr = sharedPage({t0, t1});
    kernel.munmap(t0, addr, kPageSize);
    ASSERT_EQ(policy->activeStates(), 1u);
    // A context switch on core 1 sweeps without waiting for a tick.
    machine.scheduler().contextSwitch(1);
    EXPECT_FALSE(machine.scheduler().tlbOf(1).probe(pageOf(addr), 0));
    const std::uint64_t sweeps =
        machine.stats().counterValue("latr.sweeps");
    EXPECT_GT(sweeps, 0u);
}

TEST_F(LatrFixture, RingOverflowFallsBackToIpis)
{
    // Saturate core 0's ring within one reclamation window.
    const unsigned ring = machine.config().latrStatesPerCore;
    std::vector<Addr> addrs;
    for (unsigned i = 0; i < ring + 8; ++i) {
        Addr a = sharedPage({t0, t1});
        addrs.push_back(a);
        kernel.munmap(t0, a, kPageSize);
    }
    EXPECT_GT(machine.stats().counterValue("latr.fallback_ipis"), 0u);
    EXPECT_GT(machine.ipi().ipisSent(), 0u);
    machine.run(8 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, ExactRingBoundaryFallsBackOnNextFree)
{
    // Fill exactly latrStatesPerCore entries without letting any
    // time pass (no sweep, no reclaim): every save must land in a
    // slot, and only the ring+1'th free crosses into the fallback
    // path — one counter bump, IPIs on the wire, and the
    // latr.ring_full_fallback trace instant.
    machine.trace().setEnabled(true);
    const unsigned ring = machine.config().latrStatesPerCore;
    for (unsigned i = 0; i < ring; ++i) {
        Addr a = sharedPage({t0, t1});
        kernel.munmap(t0, a, kPageSize);
    }
    EXPECT_EQ(machine.stats().counterValue("latr.states_saved"),
              ring);
    EXPECT_EQ(machine.stats().counterValue("latr.fallback_ipis"), 0u);
    for (const TraceRecord &rec : machine.trace().snapshot())
        EXPECT_STRNE(rec.name, "latr.ring_full_fallback");

    const std::uint64_t ipis = machine.ipi().ipisSent();
    Addr a = sharedPage({t0, t1});
    kernel.munmap(t0, a, kPageSize);
    EXPECT_EQ(machine.stats().counterValue("latr.states_saved"),
              ring);
    EXPECT_EQ(machine.stats().counterValue("latr.fallback_ipis"), 1u);
    EXPECT_GT(machine.ipi().ipisSent(), ipis);
    bool saw = false;
    for (const TraceRecord &rec : machine.trace().snapshot())
        if (rec.kind == TraceKind::Instant &&
            std::strcmp(rec.name, "latr.ring_full_fallback") == 0)
            saw = true;
    EXPECT_TRUE(saw);

    machine.run(8 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, AllocCursorWrapsIntoReclaimedMidRingSlots)
{
    // Pin the slot-reuse order: after the cursor has traversed the
    // whole ring and a reclaim pass has retired the first wave
    // mid-ring, the next saves wrap around and fill slots 0, 1, 2
    // in cursor order — not the still-pending upper half.
    const unsigned ring = machine.config().latrStatesPerCore;
    ASSERT_EQ(ring % 2, 0u);
    for (unsigned i = 0; i < ring / 2; ++i) {
        Addr a = sharedPage({t0, t1}); // wave A: slots 0..ring/2-1
        kernel.munmap(t0, a, kPageSize);
    }
    machine.run(1 * kMsec);
    for (unsigned i = 0; i < ring / 2; ++i) {
        Addr a = sharedPage({t0, t1}); // wave B: the upper half,
        kernel.munmap(t0, a, kPageSize); // cursor wraps to 0
    }
    // Past wave A's reclaim deadline (save + 2 ms), short of wave
    // B's: the lower half is Empty again, the upper half is not.
    machine.run(1400 * kUsec);
    const auto &r0 = policy->ringOf(0);
    for (unsigned i = 0; i < ring / 2; ++i)
        EXPECT_EQ(r0[i].phase, LatrStatePhase::Empty) << "slot " << i;
    unsigned upperLive = 0;
    for (unsigned i = ring / 2; i < ring; ++i)
        if (r0[i].phase != LatrStatePhase::Empty)
            ++upperLive;
    EXPECT_GT(upperLive, 0u);

    Addr fresh[3];
    for (int i = 0; i < 3; ++i) {
        fresh[i] = sharedPage({t0, t1});
        kernel.munmap(t0, fresh[i], kPageSize);
    }
    for (int i = 0; i < 3; ++i) {
        EXPECT_NE(r0[i].phase, LatrStatePhase::Empty) << "slot " << i;
        EXPECT_EQ(r0[i].startVpn, pageOf(fresh[i])) << "slot " << i;
        EXPECT_EQ(r0[i].kind, LatrStateKind::Free);
    }
    EXPECT_EQ(machine.stats().counterValue("latr.fallback_ipis"), 0u);
    machine.run(8 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, MadviseFreeIsLazyAndRefaultsZeroFilled)
{
    // The lazycache discard path: MADV_FREE defers like munmap but
    // keeps the VMA, so a later touch is a fresh minor fault — the
    // free-then-reuse cycle in one page.
    Addr addr = sharedPage({t0, t1});
    SyscallResult a = kernel.madviseFree(t0, addr, kPageSize);
    ASSERT_TRUE(a.ok);
    EXPECT_LE(a.shootdown, 200u);
    EXPECT_EQ(policy->activeStates(), 1u);
    EXPECT_EQ(machine.stats().counterValue("sys.madvise_free"), 1u);
    EXPECT_FALSE(process->mm().rangeHeldBack(addr, addr + kPageSize));
    machine.run(6 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(kernel.touch(t0, addr, true).kind,
              TouchKind::MinorFault);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_F(LatrFixture, SlotsRecycleAfterReclaim)
{
    const unsigned ring = machine.config().latrStatesPerCore;
    // Fill half the ring, reclaim, fill again: no fallback ever.
    for (int round = 0; round < 4; ++round) {
        for (unsigned i = 0; i < ring / 2; ++i) {
            Addr a = sharedPage({t0, t1});
            kernel.munmap(t0, a, kPageSize);
        }
        machine.run(6 * kMsec);
    }
    EXPECT_EQ(machine.stats().counterValue("latr.fallback_ipis"), 0u);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
}

TEST_F(LatrFixture, SyncRequestedOverrideUsesIpis)
{
    // Paper section 7: a per-call opt-out for use-after-free
    // detectors and friends.
    Addr addr = sharedPage({t0, t1});
    const std::uint64_t ipis = machine.ipi().ipisSent();
    SyscallResult u = kernel.munmap(t0, addr, kPageSize, true);
    ASSERT_TRUE(u.ok);
    EXPECT_GT(machine.ipi().ipisSent(), ipis);
    machine.run(100 * kUsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
}

TEST_F(LatrFixture, MadviseIsLazyWithoutVaHoldback)
{
    Addr addr = sharedPage({t0, t1});
    SyscallResult a = kernel.madvise(t0, addr, kPageSize);
    ASSERT_TRUE(a.ok);
    EXPECT_LE(a.shootdown, 200u);
    EXPECT_FALSE(process->mm().rangeHeldBack(addr, addr + kPageSize));
    machine.run(6 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    // VMA survived: refault allowed.
    EXPECT_EQ(kernel.touch(t0, addr, true).kind,
              TouchKind::MinorFault);
}

TEST_F(LatrFixture, MprotectStaysSynchronous)
{
    // Table 1: permission changes cannot be lazy, even under LATR.
    Addr addr = sharedPage({t0, t1, t4});
    const std::uint64_t ipis = machine.ipi().ipisSent();
    SyscallResult pr = kernel.mprotect(t0, addr, kPageSize, kProtRead);
    ASSERT_TRUE(pr.ok);
    EXPECT_GT(machine.ipi().ipisSent(), ipis);
    EXPECT_GT(pr.shootdown, kUsec);
}

TEST_F(LatrFixture, NumaSampleDefersPteChange)
{
    Addr addr = sharedPage({t0, t1, t4});
    Duration d = kernel.numaSample(t0, pageOf(addr));
    EXPECT_LE(d, 200u); // just the state save
    // PTE untouched until the first sweep.
    EXPECT_FALSE(
        process->mm().pageTable().find(pageOf(addr))->protNone());
    // Accesses before the sweep proceed uninterrupted.
    EXPECT_EQ(kernel.touch(t1, addr, false).kind, TouchKind::TlbHit);
    machine.run(machine.config().cost.tickInterval + 10 * kUsec);
    // First sweeping core cleared the PTE; all TLB entries are gone.
    EXPECT_TRUE(
        process->mm().pageTable().find(pageOf(addr))->protNone());
    EXPECT_FALSE(machine.scheduler().tlbOf(0).probe(pageOf(addr), 0));
    EXPECT_FALSE(machine.scheduler().tlbOf(1).probe(pageOf(addr), 0));
    EXPECT_FALSE(machine.scheduler().tlbOf(4).probe(pageOf(addr), 0));
}

TEST_F(LatrFixture, NumaSampleGatesTheSampledPageFault)
{
    Addr addr = sharedPage({t0, t1, t4});
    Addr other = sharedPage({t0, t1});
    kernel.numaSample(t0, pageOf(addr));
    // The sampled page's fault is gated until every core has swept
    // (at most one tick interval + slack)...
    const Tick ready =
        machine.policy().numaSampleReadyAt(&process->mm(),
                                           pageOf(addr));
    EXPECT_GE(ready,
              machine.now() + machine.config().cost.tickInterval);
    // ...but unrelated pages are not gated at all.
    EXPECT_EQ(machine.policy().numaSampleReadyAt(&process->mm(),
                                                 pageOf(other)),
              0u);
    // Once all cores swept, the gate drops.
    machine.run(machine.config().cost.tickInterval + 10 * kUsec);
    EXPECT_EQ(machine.policy().numaSampleReadyAt(&process->mm(),
                                                 pageOf(addr)),
              0u);
}

TEST_F(LatrFixture, LazyBytesAccounting)
{
    EXPECT_EQ(policy->lazyBytes(), 0u);
    Addr a = sharedPage({t0, t1});
    Addr b = sharedPage({t0, t1});
    kernel.munmap(t0, a, kPageSize);
    kernel.munmap(t0, b, kPageSize);
    EXPECT_EQ(policy->lazyBytes(), 2 * kPageSize);
    machine.run(6 * kMsec);
    EXPECT_EQ(policy->lazyBytes(), 0u);
}

TEST_F(LatrFixture, RingIntrospection)
{
    Addr a = sharedPage({t0, t1});
    kernel.munmap(t0, a, kPageSize);
    const auto &ring = policy->ringOf(0);
    EXPECT_EQ(ring.size(), machine.config().latrStatesPerCore);
    int active = 0;
    for (const LatrState &s : ring)
        if (s.phase == LatrStatePhase::Active) {
            ++active;
            EXPECT_EQ(s.kind, LatrStateKind::Free);
            EXPECT_EQ(s.startVpn, pageOf(a));
            EXPECT_EQ(s.owner, 0u);
            EXPECT_TRUE(s.cpuMask.test(1));
            EXPECT_FALSE(s.cpuMask.test(0)); // initiator excluded
        }
    EXPECT_EQ(active, 1);
}

TEST_F(LatrFixture, NoRemoteResidencySkipsStraightToReclaim)
{
    // Only core 0 ever touched the page: the state deactivates at
    // save time (empty CPU mask) and just ages.
    Addr addr = sharedPage({t0});
    // Scrub residency of the other cores for this mm by idling them.
    kernel.exitTask(t1);
    kernel.exitTask(t4);
    kernel.munmap(t0, addr, kPageSize);
    EXPECT_EQ(policy->activeStates(), 0u);
    EXPECT_EQ(policy->pendingReclaim(), 1u);
    machine.run(6 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
}

TEST_F(LatrFixture, CapabilitiesMatchTable2)
{
    PolicyCapabilities caps = machine.policy().capabilities();
    EXPECT_TRUE(caps.asynchronous);
    EXPECT_TRUE(caps.nonIpiBased);
    EXPECT_TRUE(caps.noRemoteCoreInvolvement);
    EXPECT_TRUE(caps.noHardwareChanges);
    EXPECT_TRUE(caps.lazyFreeCapable);
    EXPECT_TRUE(caps.lazyMigrationCapable);
}

TEST_F(LatrFixture, LargeLazyUnmapFullFlushesAtSweep)
{
    const std::uint64_t pages = 64; // above threshold
    SyscallResult m = kernel.mmap(t0, pages * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m.addr, pages * kPageSize);
    test::touchRange(kernel, t1, m.addr, pages * kPageSize);
    const std::uint64_t flushes =
        machine.scheduler().tlbOf(1).flushes();
    kernel.munmap(t0, m.addr, pages * kPageSize);
    machine.run(machine.config().cost.tickInterval + 10 * kUsec);
    EXPECT_GT(machine.scheduler().tlbOf(1).flushes(), flushes);
    machine.run(6 * kMsec);
    EXPECT_EQ(machine.frames().allocatedFrames(), 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST(LatrPcid, SweepInvalidatesByPcidAcrossProcesses)
{
    MachineConfig cfg = test::tinyConfig();
    cfg.pcidEnabled = true;
    Machine machine(cfg, PolicyKind::Latr);
    Kernel &kernel = machine.kernel();
    Process *a = kernel.createProcess("a");
    Process *b = kernel.createProcess("b");
    Task *ta = kernel.spawnTask(a, 0);
    Task *ta1 = kernel.spawnTask(a, 1);
    Task *tb1 = kernel.spawnTask(b, 1);
    machine.run(kUsec);

    // Both processes cache translations on core 1.
    SyscallResult ma = kernel.mmap(ta, kPageSize,
                                   kProtRead | kProtWrite);
    test::touchRange(kernel, ta1, ma.addr, kPageSize);
    SyscallResult mb = kernel.mmap(tb1, kPageSize,
                                   kProtRead | kProtWrite);
    test::touchRange(kernel, tb1, mb.addr, kPageSize);

    kernel.munmap(ta, ma.addr, kPageSize);
    machine.run(cfg.cost.tickInterval + 10 * kUsec);
    // a's entry swept by PCID; b's entry (same VPN range possible)
    // survives.
    EXPECT_FALSE(
        machine.scheduler().tlbOf(1).probe(pageOf(ma.addr),
                                           a->mm().pcid()));
    EXPECT_TRUE(
        machine.scheduler().tlbOf(1).probe(pageOf(mb.addr),
                                           b->mm().pcid()));
    machine.run(6 * kMsec);
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

/**
 * The sweep-elision mask is a sound over-approximation: a fresh
 * publication sets the bits of the cores it addresses, and a core's
 * bit clears once its sweep has visited every active state.
 * RandomOpSoup checks the covering invariant after every op.
 */
TEST(LatrSweepElision, PendingSweepersCoversActiveMasks)
{
    MachineConfig config = MachineConfig::commodity2S16C();
    Machine machine(config, PolicyKind::Latr);
    Kernel &kernel = machine.kernel();
    auto *latr = dynamic_cast<LatrPolicy *>(&machine.policy());
    ASSERT_NE(latr, nullptr);

    Process *proc = kernel.createProcess("p");
    Task *a = kernel.spawnTask(proc, 0);
    Task *b = kernel.spawnTask(proc, 5);
    SyscallResult m =
        kernel.mmap(a, 4 * kPageSize, kProtRead | kProtWrite);
    ASSERT_TRUE(m.ok);
    kernel.touch(a, m.addr, true);
    kernel.touch(b, m.addr, true);
    kernel.munmap(a, m.addr, 4 * kPageSize);
    // The publication addressed core 5 (resident remote): its bit
    // must be pending until core 5 sweeps.
    EXPECT_TRUE(latr->pendingSweepers().test(5));
    machine.run(5 * kMsec);
    // After every core swept and the state deactivated, nothing is
    // pending for core 5 anymore and the invariant holds vacuously.
    EXPECT_FALSE(latr->pendingSweepers().test(5));
}

/**
 * An elided sweep must charge and model exactly what a matchless
 * scan does. On the 120-core machine with one task per core, no
 * timeslice rotation and no state ever saved, every sweep after the
 * spawns is an elided tick sweep: one per processed tick, each
 * stealing schedTickFixed + latrSweepFixed and reading one LLC line.
 */
TEST(LatrSweepElision, ElidedSweepsChargeLikeMatchlessScans)
{
    Machine machine(MachineConfig::largeNuma8S120C(), PolicyKind::Latr);
    Kernel &kernel = machine.kernel();
    Scheduler &sched = machine.scheduler();
    const unsigned cores = machine.topo().totalCores();
    Process *proc = kernel.createProcess("one-per-core");
    for (CoreId c = 0; c < cores; ++c)
        kernel.spawnTask(proc, c);
    machine.run(kUsec);

    auto sweepLines = [&machine] {
        std::uint64_t lines = 0;
        for (NodeId n = 0; n < machine.topo().sockets(); ++n)
            lines += machine.llcOf(n).hits(CacheAccessOrigin::LatrSweep) +
                     machine.llcOf(n).misses(CacheAccessOrigin::LatrSweep);
        return lines;
    };
    for (CoreId c = 0; c < cores; ++c)
        sched.takeStolen(c);
    const std::uint64_t sweeps0 =
        machine.stats().counterValue("latr.sweeps");
    const std::uint64_t ticks0 = sched.ticksProcessed();
    const std::uint64_t lines0 = sweepLines();

    machine.run(10 * machine.config().cost.tickInterval);

    const std::uint64_t sweeps =
        machine.stats().counterValue("latr.sweeps") - sweeps0;
    const std::uint64_t ticks = sched.ticksProcessed() - ticks0;
    Duration stolen = 0;
    for (CoreId c = 0; c < cores; ++c)
        stolen += sched.takeStolen(c);
    const CostModel &cost = machine.config().cost;
    EXPECT_EQ(machine.stats().counterValue("latr.states_saved"), 0u);
    EXPECT_GT(ticks, 9u * cores);
    EXPECT_EQ(sweeps, ticks);
    EXPECT_EQ(stolen,
              ticks * (cost.schedTickFixed + cost.latrSweepFixed));
    EXPECT_EQ(sweepLines() - lines0, sweeps);
}

} // namespace
} // namespace latr
