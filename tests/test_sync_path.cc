// Tests pinning the synchronous path the policies share: LATR's
// fallbacks and Predictive's NUMA sample must behave exactly like the
// Linux baseline they reuse, and every policy's mprotect must report
// its synchronous shootdown the same way.

#include <gtest/gtest.h>

#include <cstring>

#include "test_helpers.hh"
#include "trace/trace.hh"

namespace latr
{
namespace
{

/** A commodity machine with one app on cores 0, 1 and 4. */
struct Rig
{
    explicit Rig(PolicyKind kind)
        : machine(MachineConfig::commodity2S16C(), kind),
          kernel(machine.kernel())
    {
        app = kernel.createProcess("app");
        t0 = kernel.spawnTask(app, 0);
        t1 = kernel.spawnTask(app, 1);
        t4 = kernel.spawnTask(app, 4); // other socket
        // A second process on core 0: its frees can fill core 0's
        // LATR ring without touching the app's TLBs or mmap_sem.
        filler = kernel.spawnTask(kernel.createProcess("filler"), 0);
        machine.run(kUsec); // start ticks
    }

    /** One page mapped by t0 and touched by every app task. */
    Addr
    sharedPage()
    {
        SyscallResult m = kernel.mmap(t0, kPageSize,
                                      kProtRead | kProtWrite);
        for (Task *t : {t0, t1, t4})
            test::touchRange(kernel, t, m.addr, kPageSize);
        return m.addr;
    }

    /**
     * Fill core 0's LATR ring with states of pages nobody touched.
     * Under the other policies these frees find nothing to do.
     */
    void
    fillRing()
    {
        for (unsigned i = 0; i < machine.config().latrStatesPerCore;
             ++i) {
            SyscallResult m = kernel.mmap(filler, kPageSize,
                                          kProtRead | kProtWrite);
            kernel.munmap(filler, m.addr, kPageSize);
        }
    }

    std::uint64_t
    remoteInterrupts()
    {
        return machine.stats().counterValue("coh.remote_interrupts");
    }

    Machine machine;
    Kernel &kernel;
    Process *app = nullptr;
    Task *t0 = nullptr;
    Task *t1 = nullptr;
    Task *t4 = nullptr;
    Task *filler = nullptr;
};

/** What a synchronous free of one shared page looked like. */
struct FreeOutcome
{
    Duration latency = 0;
    Duration shootdown = 0;
    std::uint64_t remoteInterrupts = 0;
    /** Tick at which the page's frame returned to the allocator. */
    Tick freedAt = 0;
};

FreeOutcome
munmapSharedPage(Rig &rig, bool sync)
{
    const Addr a = rig.sharedPage();
    const Pfn pfn = rig.app->mm().pageTable().find(pageOf(a))->pfn;
    const std::uint64_t interrupts = rig.remoteInterrupts();
    const SyscallResult u = rig.kernel.munmap(rig.t0, a, kPageSize, sync);
    EXPECT_TRUE(u.ok);
    while (rig.machine.frames().refcount(pfn) != 0 &&
           rig.machine.queue().step()) {
    }
    return FreeOutcome{u.latency, u.shootdown,
                       rig.remoteInterrupts() - interrupts,
                       rig.machine.now()};
}

void
expectSameFree(const FreeOutcome &got, const FreeOutcome &linux_free)
{
    EXPECT_EQ(got.latency, linux_free.latency);
    EXPECT_EQ(got.shootdown, linux_free.shootdown);
    EXPECT_EQ(got.remoteInterrupts, linux_free.remoteInterrupts);
    EXPECT_EQ(got.freedAt, linux_free.freedAt);
}

TEST(SyncPath, LatrFallbacksAndPredictiveSampleMatchLinux)
{
    // munmap(sync=true): the paper's section 7 opt-out.
    {
        Rig linux_rig(PolicyKind::LinuxSync);
        Rig latr_rig(PolicyKind::Latr);
        const FreeOutcome linux_free = munmapSharedPage(linux_rig, true);
        EXPECT_GT(linux_free.remoteInterrupts, 0u);
        expectSameFree(munmapSharedPage(latr_rig, true), linux_free);
    }

    // A free that finds the ring full falls back to IPIs.
    {
        Rig linux_rig(PolicyKind::LinuxSync);
        Rig latr_rig(PolicyKind::Latr);
        linux_rig.fillRing();
        latr_rig.fillRing();
        const FreeOutcome linux_free =
            munmapSharedPage(linux_rig, false);
        expectSameFree(munmapSharedPage(latr_rig, false), linux_free);
        EXPECT_EQ(
            latr_rig.machine.stats().counterValue("latr.fallback_ipis"),
            1u);
    }

    // Predictive samples the Linux way.
    {
        Rig linux_rig(PolicyKind::LinuxSync);
        Rig pred_rig(PolicyKind::Predictive);
        Duration sample[2];
        std::uint64_t interrupts[2];
        Rig *rigs[2] = {&linux_rig, &pred_rig};
        for (int i = 0; i < 2; ++i) {
            Rig &rig = *rigs[i];
            const Vpn vpn = pageOf(rig.sharedPage());
            sample[i] = rig.kernel.numaSample(rig.t0, vpn);
            rig.machine.run(100 * kUsec);
            interrupts[i] = rig.remoteInterrupts();
            EXPECT_TRUE(
                rig.app->mm().pageTable().find(vpn)->protNone());
        }
        EXPECT_GT(sample[0], 2 * kUsec);
        EXPECT_EQ(sample[1], sample[0]);
        EXPECT_EQ(interrupts[1], interrupts[0]);
    }
}

TEST(SyncPath, MprotectEmitsOneSyncShootdownSpanUnderEveryPolicy)
{
    for (PolicyKind kind :
         {PolicyKind::LinuxSync, PolicyKind::Latr, PolicyKind::Abis,
          PolicyKind::Barrelfish, PolicyKind::Predictive}) {
        Rig rig(kind);
        const Addr a = rig.sharedPage();
        rig.machine.trace().setEnabled(true);
        ASSERT_TRUE(rig.kernel.mprotect(rig.t0, a, kPageSize, kProtRead)
                        .ok);
        unsigned spans = 0;
        for (const TraceRecord &r : rig.machine.trace().snapshot())
            if (r.kind == TraceKind::SpanBegin &&
                std::strcmp(r.name, "coh.sync_shootdown") == 0)
                ++spans;
        EXPECT_EQ(spans, 1u) << policyKindName(kind);
    }
}

TEST(SyncPath, MremapShrinkReleasesDroppedFramesUnderEveryPolicy)
{
    // Shrinking 4 pages to 1 drops 3 mapped pages: their frames go
    // back to the allocator at the shootdown's last ACK, and the
    // remaining one with the munmap.
    for (PolicyKind kind : test::allPolicies()) {
        Rig rig(kind);
        const std::uint64_t start =
            rig.machine.frames().allocatedFrames();
        SyscallResult m = rig.kernel.mmap(rig.t0, 4 * kPageSize,
                                          kProtRead | kProtWrite);
        for (Task *t : {rig.t0, rig.t1, rig.t4})
            test::touchRange(rig.kernel, t, m.addr, 4 * kPageSize);
        SyscallResult r =
            rig.kernel.mremap(rig.t0, m.addr, 4 * kPageSize, kPageSize);
        ASSERT_TRUE(r.ok) << policyKindName(kind);
        rig.kernel.munmap(rig.t0, r.addr, kPageSize);
        rig.machine.run(20 * kMsec);
        EXPECT_EQ(rig.machine.frames().allocatedFrames(), start)
            << policyKindName(kind);
        test::expectNoViolations(rig.machine);
    }
}

} // namespace
} // namespace latr
