// Tests for the Machine facade and the stats summary.

#include <gtest/gtest.h>

#include <type_traits>

#include "machine/machine_stats.hh"
#include "test_helpers.hh"

namespace latr
{
namespace
{

// latrbench/probe.cc wraps Machine's constructor at link time and
// reads its by-value MachineConfig through a pointer. The Itanium ABI
// passes a by-value class that way only while it is not trivially
// copyable; today `std::string name` is what keeps it so.
static_assert(!std::is_trivially_copyable_v<MachineConfig>,
              "latrbench/probe.cc reads Machine's by-value MachineConfig "
              "through a pointer, which the Itanium ABI passes only for "
              "a non-trivially-copyable class; keep MachineConfig "
              "non-trivially copyable (std::string name does it) or "
              "update the wrapper");

TEST(Machine, BuildsCommodityPreset)
{
    Machine m(MachineConfig::commodity2S16C(), PolicyKind::Latr);
    EXPECT_EQ(m.topo().totalCores(), 16u);
    EXPECT_EQ(m.scheduler().coreCount(), 16u);
    EXPECT_STREQ(m.policy().name(), "LATR");
    EXPECT_NE(m.checker(), nullptr);
}

TEST(Machine, BuildsLargeNumaPreset)
{
    Machine m(MachineConfig::largeNuma8S120C(), PolicyKind::LinuxSync);
    EXPECT_EQ(m.topo().totalCores(), 120u);
    EXPECT_EQ(m.config().sockets, 8u);
    // Every socket has an LLC.
    for (NodeId n = 0; n < 8; ++n)
        EXPECT_GT(m.llcOf(n).sets(), 0u);
}

TEST(Machine, CheckerCanBeDisabled)
{
    Machine m(test::tinyConfig(), PolicyKind::Latr, false);
    EXPECT_EQ(m.checker(), nullptr);
}

TEST(Machine, RunAdvancesTime)
{
    Machine m(test::tinyConfig(), PolicyKind::Latr);
    EXPECT_EQ(m.now(), 0u);
    m.run(5 * kMsec);
    EXPECT_EQ(m.now(), 5 * kMsec);
    m.run(1 * kMsec);
    EXPECT_EQ(m.now(), 6 * kMsec);
}

TEST(Machine, DrainStopsTicksAndEmptiesQueue)
{
    Machine m(test::tinyConfig(), PolicyKind::Latr);
    Process *p = m.kernel().createProcess("x");
    m.kernel().spawnTask(p, 0);
    m.run(kMsec);
    m.drain(m.now() + kSec);
    EXPECT_TRUE(m.queue().empty());
}

TEST(Machine, EveryPolicyKindConstructs)
{
    for (PolicyKind kind :
         {PolicyKind::LinuxSync, PolicyKind::Latr, PolicyKind::Abis,
          PolicyKind::Barrelfish}) {
        Machine m(test::tinyConfig(), kind);
        EXPECT_STREQ(m.policy().name(), policyKindName(kind));
        EXPECT_EQ(m.policy().kind(), kind);
    }
}

TEST(MachineStats, SummaryReflectsActivity)
{
    Machine m(test::tinyConfig(), PolicyKind::LinuxSync);
    Kernel &kernel = m.kernel();
    Process *p = kernel.createProcess("app");
    Task *t0 = kernel.spawnTask(p, 0);
    Task *t1 = kernel.spawnTask(p, 1);
    for (int i = 0; i < 10; ++i) {
        SyscallResult mm = kernel.mmap(t0, kPageSize,
                                       kProtRead | kProtWrite);
        test::touchRange(kernel, t0, mm.addr, kPageSize);
        test::touchRange(kernel, t1, mm.addr, kPageSize);
        kernel.munmap(t0, mm.addr, kPageSize);
        m.run(50 * kUsec);
    }
    MachineSummary s = summarize(m, m.now());
    EXPECT_GT(s.shootdownsPerSec, 0.0);
    EXPECT_GT(s.ipisPerSec, 0.0);
    EXPECT_GT(s.munmapMeanNs, 0.0);
    EXPECT_GT(s.munmapShootdownMeanNs, 0.0);
    std::string line = formatSummary(s);
    EXPECT_NE(line.find("shootdowns/s="), std::string::npos);
}

TEST(MachineStats, LatrFieldsPopulated)
{
    Machine m(test::tinyConfig(), PolicyKind::Latr);
    Kernel &kernel = m.kernel();
    Process *p = kernel.createProcess("app");
    Task *t0 = kernel.spawnTask(p, 0);
    Task *t1 = kernel.spawnTask(p, 1);
    SyscallResult mm = kernel.mmap(t0, kPageSize,
                                   kProtRead | kProtWrite);
    test::touchRange(kernel, t1, mm.addr, kPageSize);
    kernel.munmap(t0, mm.addr, kPageSize);
    MachineSummary s = summarize(m, kMsec);
    EXPECT_EQ(s.latrStatesSaved, 1u);
    EXPECT_EQ(s.latrFallbacks, 0u);
}

} // namespace
} // namespace latr
