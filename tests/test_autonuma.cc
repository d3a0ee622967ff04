// Tests for AutoNUMA scanning, hint faults, and page migration,
// under both the Linux and LATR policies.

#include <gtest/gtest.h>

#include "numa/autonuma.hh"
#include "numa/migration.hh"
#include "test_helpers.hh"

namespace latr
{
namespace
{

class AutoNumaPolicies : public ::testing::TestWithParam<PolicyKind>
{
  protected:
    AutoNumaPolicies()
        : machine(test::tinyConfig(), GetParam()),
          kernel(machine.kernel())
    {
        process = kernel.createProcess("app");
        // t0 on node 0, t4 on node 1.
        t0 = kernel.spawnTask(process, 0);
        t4 = kernel.spawnTask(process, 4);
        machine.run(kUsec);
    }

    /** Both checkers clean under every policy. */
    void TearDown() override { test::expectNoViolations(machine); }

    Machine machine;
    Kernel &kernel;
    Process *process = nullptr;
    Task *t0 = nullptr;
    Task *t4 = nullptr;
};

TEST_P(AutoNumaPolicies, MigratorMovesPageAcrossNodes)
{
    PageMigrator migrator(kernel);
    SyscallResult m = kernel.mmap(t0, kPageSize,
                                  kProtRead | kProtWrite);
    TouchResult t = kernel.touch(t0, m.addr, true); // node 0 frame
    ASSERT_EQ(machine.frames().nodeOf(t.pfn), 0u);

    Duration d = migrator.migrate(t4, pageOf(m.addr), 1);
    EXPECT_GT(d, machine.config().cost.migrateBase);
    machine.run(kMsec);
    const Pte *pte = process->mm().pageTable().find(pageOf(m.addr));
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(machine.frames().nodeOf(pte->pfn), 1u);
    EXPECT_EQ(migrator.migrations(), 1u);
    EXPECT_EQ(machine.frames().allocatedFrames(), 1u); // old freed
    EXPECT_EQ(machine.checker()->violations(), 0u);
}

TEST_P(AutoNumaPolicies, MigrateToSameNodeIsNoop)
{
    PageMigrator migrator(kernel);
    SyscallResult m = kernel.mmap(t0, kPageSize,
                                  kProtRead | kProtWrite);
    kernel.touch(t0, m.addr, true);
    EXPECT_EQ(migrator.migrate(t0, pageOf(m.addr), 0), 0u);
    EXPECT_EQ(migrator.migrations(), 0u);
}

TEST_P(AutoNumaPolicies, MigrateUnmappedPageIsNoop)
{
    PageMigrator migrator(kernel);
    EXPECT_EQ(migrator.migrate(t0, 0x123456, 1), 0u);
}

TEST_P(AutoNumaPolicies, ScanSamplesPresentPages)
{
    AutoNuma an(kernel, 2 * kMsec, 16);
    an.track(process);
    SyscallResult m = kernel.mmap(t0, 8 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m.addr, 8 * kPageSize);
    an.start();
    machine.run(3 * kMsec);
    EXPECT_GT(an.samples(), 0u);
    an.stop();
}

TEST_P(AutoNumaPolicies, TwoRemoteTouchesMigrateThePage)
{
    AutoNuma an(kernel, 2 * kMsec, 64);
    an.track(process);
    an.start();

    SyscallResult m = kernel.mmap(t0, 4 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m.addr, 4 * kPageSize); // node 0
    // Remote node touches repeatedly across scan rounds.
    for (int round = 0; round < 30 && an.migrations() == 0; ++round) {
        machine.run(2 * kMsec + 100 * kUsec);
        test::touchRange(kernel, t4, m.addr, 4 * kPageSize, false);
    }
    EXPECT_GT(an.migrations(), 0u);
    EXPECT_GT(an.hintFaults(), 0u);
    const Pte *pte = process->mm().pageTable().find(pageOf(m.addr));
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(machine.frames().nodeOf(pte->pfn), 1u);
    machine.run(6 * kMsec);
    EXPECT_EQ(machine.checker()->violations(), 0u);
    an.stop();
}

TEST_P(AutoNumaPolicies, LocalTouchesNeverMigrate)
{
    AutoNuma an(kernel, 2 * kMsec, 64);
    an.track(process);
    an.start();
    SyscallResult m = kernel.mmap(t0, 4 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m.addr, 4 * kPageSize);
    for (int round = 0; round < 10; ++round) {
        machine.run(2 * kMsec + 100 * kUsec);
        test::touchRange(kernel, t0, m.addr, 4 * kPageSize, false);
    }
    EXPECT_EQ(an.migrations(), 0u);
    an.stop();
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AutoNumaPolicies,
    ::testing::ValuesIn(test::allPolicies()),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        return policyKindName(info.param);
    });

TEST(AutoNumaKnobs, OneTouchMigratesOnFirstRemoteFault)
{
    Machine machine(test::tinyConfig(), PolicyKind::LinuxSync);
    Kernel &kernel = machine.kernel();
    Process *p = kernel.createProcess("app");
    Task *t0 = kernel.spawnTask(p, 0);
    Task *t4 = kernel.spawnTask(p, 4); // node 1
    machine.run(kUsec);

    AutoNuma an(kernel, 2 * kMsec, 64);
    an.track(p);
    an.setTwoTouch(false);
    an.start();

    SyscallResult m = kernel.mmap(t0, 2 * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m.addr, 2 * kPageSize); // node 0
    machine.run(2 * kMsec + 100 * kUsec); // one scan samples them
    // The very first remote touch migrates.
    kernel.touch(t4, m.addr, false);
    EXPECT_EQ(an.migrations(), 1u);
    const Pte *pte = p->mm().pageTable().find(pageOf(m.addr));
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(machine.frames().nodeOf(pte->pfn), 1u);
    an.stop();
}

TEST(AutoNumaKnobs, StrideSamplingCoversTheWholeSpace)
{
    Machine machine(test::tinyConfig(), PolicyKind::LinuxSync);
    Kernel &kernel = machine.kernel();
    Process *p = kernel.createProcess("app");
    Task *t0 = kernel.spawnTask(p, 0);
    machine.run(kUsec);

    const std::uint64_t pages = 256;
    SyscallResult m = kernel.mmap(t0, pages * kPageSize,
                                  kProtRead | kProtWrite);
    test::touchRange(kernel, t0, m.addr, pages * kPageSize);

    AutoNuma an(kernel, 2 * kMsec, 16);
    an.track(p);
    an.setScanStride(pages / 16);
    an.start();
    // One scan round: with stride sampling, the batch spans the
    // whole array, not just its head.
    machine.run(2 * kMsec + 100 * kUsec);
    an.stop();
    bool sampled_tail = false;
    p->mm().pageTable().forEachPresent(
        pageOf(m.addr) + pages / 2, pageOf(m.addr) + pages - 1,
        [&](Vpn, Pte &pte) {
            if (pte.protNone())
                sampled_tail = true;
        });
    EXPECT_TRUE(sampled_tail);
    EXPECT_GT(an.samples(), 0u);
}

TEST(AutoNumaLatr, SamplingIsCheapUnderLatr)
{
    // The headline of section 4.3: LATR removes the sampling
    // shootdown. Compare per-sample cost across policies.
    auto sample_cost = [](PolicyKind kind) {
        Machine machine(test::tinyConfig(), kind);
        Kernel &kernel = machine.kernel();
        Process *p = kernel.createProcess("app");
        Task *t0 = kernel.spawnTask(p, 0);
        Task *t4 = kernel.spawnTask(p, 4);
        machine.run(kUsec);
        SyscallResult m = kernel.mmap(t0, kPageSize,
                                      kProtRead | kProtWrite);
        test::touchRange(kernel, t0, m.addr, kPageSize);
        test::touchRange(kernel, t4, m.addr, kPageSize);
        return kernel.numaSample(t0, pageOf(m.addr));
    };
    const Duration linux_cost = sample_cost(PolicyKind::LinuxSync);
    const Duration latr_cost = sample_cost(PolicyKind::Latr);
    EXPECT_LT(latr_cost, linux_cost / 10);
}

} // namespace
} // namespace latr
