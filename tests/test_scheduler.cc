// Unit tests for the scheduler: ticks, context switches, idle
// behaviour, residency masks, stolen time.

#include <gtest/gtest.h>

#include "test_helpers.hh"

namespace latr
{
namespace
{

struct SchedFixture : public ::testing::Test
{
    SchedFixture() : machine(test::tinyConfig(), PolicyKind::LinuxSync)
    {}

    Machine machine;
};

TEST_F(SchedFixture, TicksFireOncePerIntervalPerBusyCore)
{
    Process *p = machine.kernel().createProcess("t");
    machine.kernel().spawnTask(p, 0);
    machine.kernel().spawnTask(p, 1);
    machine.run(10 * kMsec + kUsec);
    // Two busy cores, 10 intervals each (within one tick of phase).
    EXPECT_NEAR(machine.scheduler().ticksProcessed(), 20, 2);
}

TEST_F(SchedFixture, TicklessIdleCoresSkipTickWork)
{
    // No tasks anywhere: with tickless idle, no tick is processed.
    ASSERT_TRUE(machine.config().ticklessIdle);
    machine.run(10 * kMsec);
    EXPECT_EQ(machine.scheduler().ticksProcessed(), 0u);
}

TEST(SchedulerNoTickless, IdleCoresStillTickWhenConfigured)
{
    MachineConfig cfg = test::tinyConfig();
    cfg.ticklessIdle = false;
    Machine machine(cfg, PolicyKind::LinuxSync);
    machine.run(5 * kMsec + kUsec);
    const unsigned cores = machine.topo().totalCores();
    EXPECT_GE(machine.scheduler().ticksProcessed(), 4u * cores);
}

TEST_F(SchedFixture, AddTaskPopulatesMasks)
{
    Process *p = machine.kernel().createProcess("t");
    Task *t = machine.kernel().spawnTask(p, 3);
    EXPECT_TRUE(p->mm().scheduledMask().test(3));
    EXPECT_TRUE(p->mm().residencyMask().test(3));
    EXPECT_FALSE(machine.scheduler().coreIdle(3));
    EXPECT_EQ(machine.scheduler().currentTask(3), t);
}

TEST_F(SchedFixture, RemoveLastTaskIdlesAndScrubsResidency)
{
    Process *p = machine.kernel().createProcess("t");
    Task *t = machine.kernel().spawnTask(p, 3);
    Addr addr = p->mm().mmapRegion(kPageSize, kProtRead | kProtWrite);
    machine.kernel().touch(t, addr, true);
    EXPECT_GT(machine.scheduler().tlbOf(3).size(), 0u);
    machine.kernel().exitTask(t);
    // Idle entry flushes (lazy-TLB) and leaves every residency mask.
    EXPECT_TRUE(machine.scheduler().coreIdle(3));
    EXPECT_EQ(machine.scheduler().tlbOf(3).size(), 0u);
    EXPECT_FALSE(p->mm().residencyMask().test(3));
    EXPECT_FALSE(p->mm().scheduledMask().test(3));
}

TEST_F(SchedFixture, CrossProcessSwitchFlushesWithoutPcid)
{
    ASSERT_FALSE(machine.config().pcidEnabled);
    Process *a = machine.kernel().createProcess("a");
    Process *b = machine.kernel().createProcess("b");
    Task *ta = machine.kernel().spawnTask(a, 0);
    machine.kernel().spawnTask(b, 0);
    Addr addr = a->mm().mmapRegion(kPageSize, kProtRead | kProtWrite);
    machine.kernel().touch(ta, addr, true);
    EXPECT_GT(machine.scheduler().tlbOf(0).size(), 0u);
    machine.scheduler().contextSwitch(0); // a -> b
    EXPECT_EQ(machine.scheduler().tlbOf(0).size(), 0u);
    EXPECT_FALSE(a->mm().residencyMask().test(0));
}

TEST_F(SchedFixture, SameProcessThreadSwitchKeepsTlb)
{
    Process *a = machine.kernel().createProcess("a");
    Task *t1 = machine.kernel().spawnTask(a, 0);
    machine.kernel().spawnTask(a, 0); // second thread, same mm
    Addr addr = a->mm().mmapRegion(kPageSize, kProtRead | kProtWrite);
    machine.kernel().touch(t1, addr, true);
    const std::size_t entries = machine.scheduler().tlbOf(0).size();
    ASSERT_GT(entries, 0u);
    machine.scheduler().contextSwitch(0); // t1 -> t2, same mm
    EXPECT_EQ(machine.scheduler().tlbOf(0).size(), entries);
    EXPECT_TRUE(a->mm().residencyMask().test(0));
}

TEST(SchedulerPcid, CrossProcessSwitchKeepsTlbWithPcid)
{
    MachineConfig cfg = test::tinyConfig();
    cfg.pcidEnabled = true;
    Machine machine(cfg, PolicyKind::LinuxSync);
    Process *a = machine.kernel().createProcess("a");
    Process *b = machine.kernel().createProcess("b");
    EXPECT_NE(a->mm().pcid(), b->mm().pcid());
    Task *ta = machine.kernel().spawnTask(a, 0);
    machine.kernel().spawnTask(b, 0);
    Addr addr = a->mm().mmapRegion(kPageSize, kProtRead | kProtWrite);
    machine.kernel().touch(ta, addr, true);
    const std::size_t entries = machine.scheduler().tlbOf(0).size();
    ASSERT_GT(entries, 0u);
    machine.scheduler().contextSwitch(0);
    EXPECT_EQ(machine.scheduler().tlbOf(0).size(), entries);
    EXPECT_TRUE(a->mm().residencyMask().test(0)); // entries linger
}

TEST_F(SchedFixture, StolenTimeAccumulatesAndDrains)
{
    machine.scheduler().chargeStolen(2, 500);
    machine.scheduler().chargeStolen(2, 250);
    EXPECT_EQ(machine.scheduler().takeStolen(2), 750u);
    EXPECT_EQ(machine.scheduler().takeStolen(2), 0u);
}

TEST_F(SchedFixture, TickPhasesDifferAcrossCores)
{
    Process *p = machine.kernel().createProcess("t");
    machine.kernel().spawnTask(p, 0);
    machine.kernel().spawnTask(p, 4);
    machine.run(kUsec);
    EXPECT_NE(machine.scheduler().nextTickAt(0),
              machine.scheduler().nextTickAt(4));
}

TEST_F(SchedFixture, OversubscribedCoreRotatesAtTicks)
{
    Process *a = machine.kernel().createProcess("a");
    Process *b = machine.kernel().createProcess("b");
    Task *ta = machine.kernel().spawnTask(a, 0);
    machine.kernel().spawnTask(b, 0);
    EXPECT_EQ(machine.scheduler().currentTask(0), ta);
    machine.run(2 * machine.config().cost.tickInterval);
    Task *cur = machine.scheduler().currentTask(0);
    machine.run(machine.config().cost.tickInterval);
    EXPECT_NE(machine.scheduler().currentTask(0), cur);
}

TEST_F(SchedFixture, NextTickAdvancesWithTime)
{
    Process *p = machine.kernel().createProcess("t");
    machine.kernel().spawnTask(p, 0);
    machine.run(kUsec);
    Tick first = machine.scheduler().nextTickAt(0);
    machine.run(2 * machine.config().cost.tickInterval);
    EXPECT_GT(machine.scheduler().nextTickAt(0), first);
}

TEST_F(SchedFixture, CoreServiceBasics)
{
    CoreService &cs = machine.scheduler();
    EXPECT_EQ(cs.coreCount(), machine.topo().totalCores());
    EXPECT_EQ(cs.nodeOfCore(0), 0u);
    EXPECT_EQ(cs.nodeOfCore(machine.topo().totalCores() - 1),
              machine.config().sockets - 1);
    EXPECT_TRUE(cs.coreIdle(0));
}

/**
 * The tick wheel (default) and the naive per-core tick events
 * (noFastpath) must process identical tick counts and report the
 * same per-core tick phases on the 120-core machine. With the 1 ms
 * tick no two of its phases coincide, so each wheel slot holds one
 * core.
 */
TEST(SchedulerWheel, MatchesNaivePerCoreTicks)
{
    std::uint64_t ticks[2];
    for (int mode = 0; mode < 2; ++mode) {
        MachineConfig cfg = MachineConfig::largeNuma8S120C();
        cfg.noFastpath = mode == 1;
        Machine machine(cfg, PolicyKind::LinuxSync);
        Process *p = machine.kernel().createProcess("t");
        const unsigned cores = machine.topo().totalCores();
        for (CoreId c = 0; c < cores; ++c)
            machine.kernel().spawnTask(p, c);
        machine.run(kUsec);
        if (mode == 0) {
            // Phase check against the naive formula while the first
            // interval is still in flight.
            const Tick interval = machine.config().cost.tickInterval;
            for (CoreId c = 0; c < cores; ++c)
                EXPECT_EQ(machine.scheduler().nextTickAt(c),
                          (interval * (c + 1)) / cores)
                    << "core " << c;
        }
        machine.run(10 * machine.config().cost.tickInterval);
        ticks[mode] = machine.scheduler().ticksProcessed();
        EXPECT_GT(ticks[mode], 9u * cores);
    }
    EXPECT_EQ(ticks[0], ticks[1]);
}

/** Wheel slots keep rescheduling across stop/start transitions. */
TEST(SchedulerWheel, SurvivesIdleTransitions)
{
    MachineConfig cfg = test::tinyConfig();
    Machine machine(cfg, PolicyKind::LinuxSync);
    Process *p = machine.kernel().createProcess("t");
    Task *t = machine.kernel().spawnTask(p, 2);
    machine.run(3 * machine.config().cost.tickInterval + kUsec);
    const std::uint64_t before =
        machine.scheduler().ticksProcessed();
    EXPECT_GE(before, 2u);
    machine.kernel().exitTask(t);
    machine.run(3 * machine.config().cost.tickInterval);
    // Tickless idle: the (empty) wheel slots fire but process no
    // core work.
    EXPECT_EQ(machine.scheduler().ticksProcessed(), before);
    Task *t2 = machine.kernel().spawnTask(p, 2);
    (void)t2;
    machine.run(3 * machine.config().cost.tickInterval);
    EXPECT_GT(machine.scheduler().ticksProcessed(), before);
}

} // namespace
} // namespace latr
