/**
 * @file
 * The fast engine paths (tick wheel, sweep-elision mask — everything
 * MachineConfig::noFastpath turns off) must be invisible to the
 * simulation: same digests, same checker verdicts, same counters that
 * the naive paths produce. These tests replay generated scripts on
 * the 120-core topology — where every CpuMask word boundary and
 * wheel slot is exercised — once per engine mode and diff the runs.
 */

#include <gtest/gtest.h>

#include <string>

#include "check/executor.hh"
#include "check/script.hh"
#include "machine/machine.hh"
#include "os/kernel.hh"
#include "tlbcoh/latr_policy.hh"

namespace latr
{
namespace
{

Script
largeScript(std::uint64_t seed, bool pcid)
{
    GenOptions gen;
    gen.numOps = 150;
    gen.large = true;
    gen.pcid = pcid;
    return generateScript(seed, gen);
}

/**
 * A dozen seeds x 4 policies on the 8-socket/120-core machine: the
 * naive and fast engines must agree on every architectural digest
 * and every checker verdict.
 */
TEST(FastpathEquivalence, LargeMachineDigestsMatchNaive)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const Script script = largeScript(seed, (seed & 1) != 0);
        for (PolicyKind kind : allPolicyKinds()) {
            ExecOptions fast;
            ExecOptions naive;
            naive.noFastpath = true;
            const RunResult a = runScript(script, kind, fast);
            const RunResult b = runScript(script, kind, naive);

            const DiffResult diff = diffStates(a, b);
            EXPECT_TRUE(diff.equivalent)
                << "seed " << seed << " policy "
                << policyKindName(kind) << ": " << diff.divergence;
            EXPECT_EQ(a.invariantViolations, b.invariantViolations)
                << "seed " << seed << " policy "
                << policyKindName(kind);
            EXPECT_EQ(a.stalenessViolations, b.stalenessViolations)
                << "seed " << seed << " policy "
                << policyKindName(kind);
            EXPECT_EQ(a.latrFallbackIpis, b.latrFallbackIpis)
                << "seed " << seed << " policy "
                << policyKindName(kind);
        }
    }
}

/** The small commodity topology must agree too. */
TEST(FastpathEquivalence, SmallMachineDigestsMatchNaive)
{
    for (std::uint64_t seed = 100; seed < 110; ++seed) {
        GenOptions gen;
        gen.numOps = 200;
        gen.pcid = (seed & 1) != 0;
        const Script script = generateScript(seed, gen);
        for (PolicyKind kind : allPolicyKinds()) {
            ExecOptions fast;
            ExecOptions naive;
            naive.noFastpath = true;
            const RunResult a = runScript(script, kind, fast);
            const RunResult b = runScript(script, kind, naive);
            const DiffResult diff = diffStates(a, b);
            EXPECT_TRUE(diff.equivalent)
                << "seed " << seed << " policy "
                << policyKindName(kind) << ": " << diff.divergence;
        }
    }
}

/**
 * White-box: elided sweeps must charge and count exactly like naive
 * matchless sweeps, so latr.sweeps and stolen time agree between the
 * engine modes on a machine where most sweeps match nothing.
 */
TEST(FastpathEquivalence, ElidedSweepsCountLikeNaiveSweeps)
{
    std::uint64_t sweeps[2];
    std::uint64_t stolen[2];
    for (int mode = 0; mode < 2; ++mode) {
        MachineConfig config = MachineConfig::largeNuma8S120C();
        config.noFastpath = mode == 1;
        Machine machine(config, PolicyKind::Latr);
        Kernel &kernel = machine.kernel();
        Process *proc = kernel.createProcess("pub");
        Task *pub = kernel.spawnTask(proc, 0);
        // Tasks on every core so every core ticks and sweeps.
        Process *fill = kernel.createProcess("fill");
        for (CoreId c = 1; c < machine.topo().totalCores(); ++c)
            kernel.spawnTask(fill, c);
        SyscallResult m =
            kernel.mmap(pub, 8 * kPageSize, kProtRead | kProtWrite);
        ASSERT_TRUE(m.ok);
        for (std::uint64_t pg = 0; pg < 8; ++pg)
            kernel.touch(pub, m.addr + pg * kPageSize, true);
        for (unsigned iter = 0; iter < 20; ++iter) {
            kernel.numaSample(pub, m.addr / kPageSize + iter % 8);
            machine.run(500 * kUsec);
        }
        sweeps[mode] = machine.stats().counterValue("latr.sweeps");
        stolen[mode] = 0;
        for (CoreId c = 0; c < machine.topo().totalCores(); ++c)
            stolen[mode] += static_cast<std::uint64_t>(
                kernel.scheduler().takeStolen(c));
        EXPECT_GT(sweeps[mode], 1000u); // 119 cores tick 10+ times
    }
    EXPECT_EQ(sweeps[0], sweeps[1]);
    EXPECT_EQ(stolen[0], stolen[1]);
}

/**
 * White-box: the elision mask is a sound over-approximation — after
 * a full quiesce every active state's mask must be covered by
 * pendingSweepers_, and a fresh publication sets the bits.
 */
TEST(FastpathEquivalence, PendingSweepersCoversActiveMasks)
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

} // namespace
} // namespace latr
