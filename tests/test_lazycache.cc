// Tests for the MADV_FREE lazy-reclaim page-cache workload
// (src/workload/lazycache): ring overflow actually reached, the Linux
// policy running the same loop synchronously, and a lazycache-shaped
// free-then-reuse script held architecturally equivalent and
// staleness-clean across every policy by the differential harness.

#include <gtest/gtest.h>

#include "check/executor.hh"
#include "check/script.hh"
#include "test_helpers.hh"
#include "workload/lazycache.hh"

namespace latr
{
namespace
{

/** A small scenario that still overflows the 64-entry ring. */
LazyCacheConfig
smallScenario()
{
    LazyCacheConfig cfg;
    cfg.cachePages = 1024;
    cfg.hotFraction = 0.25;
    cfg.readers = 4;
    cfg.writers = 2;
    cfg.burstPages = 96; // > latrStatesPerCore
    cfg.pressureInterval = 1 * kMsec;
    return cfg;
}

TEST(LazyCache, PressureBurstsOverflowTheRingIntoFallback)
{
    Machine machine(MachineConfig::commodity2S16C(),
                    PolicyKind::Latr);
    LazyCacheWorkload cache(machine, smallScenario());
    LazyCacheResult r = cache.measure(5 * kMsec, 20 * kMsec);

    EXPECT_GT(r.reads, 0u);
    EXPECT_GT(r.writes, 0u);
    EXPECT_GT(r.discardedPages, 0u);
    // Each 96-page burst exceeds the 64-slot ring, so overflow must
    // have fallen back to IPIs, and earlier bursts' frames must have
    // come back through the lazy reclaim pass.
    EXPECT_GT(r.fallbackIpis, 0u);
    EXPECT_GT(r.reclaimedPages, 0u);
    // Discarded pages get re-read eventually: the optimistic read
    // lock must have failed revalidation and refilled.
    EXPECT_GT(r.revalidationFails, 0u);
    EXPECT_EQ(r.refills, r.revalidationFails);
    EXPECT_GT(r.hits, 0u);
    EXPECT_EQ(machine.checker()->violations(), 0u)
        << machine.checker()->firstViolation();
}

TEST(LazyCache, LinuxPolicyRunsTheSameLoopSynchronously)
{
    Machine machine(MachineConfig::commodity2S16C(),
                    PolicyKind::LinuxSync);
    LazyCacheWorkload cache(machine, smallScenario());
    LazyCacheResult r = cache.measure(5 * kMsec, 20 * kMsec);
    EXPECT_GT(r.reads, 0u);
    EXPECT_GT(r.discardedPages, 0u);
    EXPECT_EQ(r.fallbackIpis, 0u); // no ring to overflow
    EXPECT_EQ(machine.checker()->violations(), 0u)
        << machine.checker()->firstViolation();
}

/**
 * A lazycache-shaped conformance script: fill slots from a writer
 * task, share them with readers, MADV_FREE a burst (optionally
 * larger than the ring), quiesce, and refill — the free-then-reuse
 * cycle in script form, runnable under every policy.
 */
Script
lazycacheScript(unsigned slots, bool overflow)
{
    Script s;
    s.procs = 1;
    auto push = [&s](OpKind kind, std::uint32_t task,
                     std::uint32_t slot, std::uint64_t value,
                     std::uint64_t off, bool rw) {
        s.ops.push_back(Op{kind, task, slot, value, off, rw});
    };
    for (unsigned i = 0; i < slots; ++i) {
        push(OpKind::Mmap, 0, i, 2, 0, true);
        push(OpKind::Touch, 0, i, 0, 0, true);
        push(OpKind::Touch, 2, i, 0, 1, false);
    }
    // The pressure burst: back-to-back, no time advancing between.
    const unsigned burst = overflow ? slots : slots / 2;
    for (unsigned i = 0; i < burst; ++i)
        push(OpKind::MadviseFree, 0, i, 0, 0, false);
    push(OpKind::Quiesce, 0, 0, 0, 0, false);
    // Free-then-reuse: refill the discarded slots after coherence.
    for (unsigned i = 0; i < burst; ++i) {
        push(OpKind::Touch, 0, i, 0, 0, true);
        push(OpKind::Touch, 2, i, 0, 1, false);
    }
    push(OpKind::Quiesce, 0, 0, 0, 0, false);
    return s;
}

TEST(LazyCacheCheck, DifferentialCleanAndEquivalent)
{
    const Script script = lazycacheScript(24, false);
    DiffResult diff;
    std::vector<RunResult> runs =
        runDifferential(script, ExecOptions{}, &diff);
    EXPECT_TRUE(diff.equivalent) << diff.divergence;
    for (const RunResult &run : runs) {
        EXPECT_EQ(run.stalenessViolations, 0u) << run.firstStaleness;
        EXPECT_EQ(run.invariantViolations, 0u) << run.firstInvariant;
    }
}

TEST(LazyCacheCheck, OverflowBurstStaysEquivalentToo)
{
    // 70 back-to-back MADV_FREEs straddle the 64-entry ring: the
    // overflow tail goes synchronous, the rest stays lazy — and the
    // final architectural state must not betray which was which.
    const Script script = lazycacheScript(70, true);
    DiffResult diff;
    std::vector<RunResult> runs =
        runDifferential(script, ExecOptions{}, &diff);
    EXPECT_TRUE(diff.equivalent) << diff.divergence;
    for (const RunResult &run : runs) {
        EXPECT_EQ(run.stalenessViolations, 0u) << run.firstStaleness;
        EXPECT_EQ(run.invariantViolations, 0u) << run.firstInvariant;
        if (run.policy == PolicyKind::Latr)
            EXPECT_GT(run.latrFallbackIpis, 0u);
    }
}

} // namespace
} // namespace latr
