// Integration tests for the open-loop serving subsystem:
// generator determinism (same seed => byte-identical .latrace),
// record/replay digest equality, tenant churn accounting, and the
// paper's headline ordering (LATR's tail below synchronous Linux's).

#include <gtest/gtest.h>

#include <string>

#include "machine/machine.hh"
#include "serve/latrace.hh"
#include "serve/serve.hh"
#include "topo/machine_config.hh"

namespace latr
{
namespace
{

ServeConfig
smallConfig()
{
    ServeConfig config;
    config.workers = 8;
    config.tenants = 4;
    config.users = 100'000;
    config.arrivalRatePerSec = 120'000;
    config.duration = 30 * kMsec;
    config.diurnalPeriod = 10 * kMsec;
    config.churnInterval = 7 * kMsec;
    config.seed = 3;
    return config;
}

ServeResult
runOn(PolicyKind kind, const Latrace &trace)
{
    Machine machine(MachineConfig::commodity2S16C(), kind);
    return runServeTrace(machine, trace);
}

TEST(Serve, GeneratorIsByteIdenticalForEqualSeeds)
{
    const ServeConfig config = smallConfig();
    const std::string a = latraceSerialize(generateServeTrace(config));
    const std::string b = latraceSerialize(generateServeTrace(config));
    EXPECT_EQ(a, b);

    ServeConfig other = config;
    other.seed = config.seed + 1;
    EXPECT_NE(latraceSerialize(generateServeTrace(other)), a);
}

TEST(Serve, GeneratorHitsTheConfiguredRate)
{
    const ServeConfig config = smallConfig();
    const Latrace trace = generateServeTrace(config);
    std::uint64_t requests = 0;
    for (const LatraceRecord &r : trace.records)
        requests += r.op == LatraceOp::Request;
    const double expected = config.arrivalRatePerSec *
                            static_cast<double>(config.duration) / 1e9;
    EXPECT_NEAR(static_cast<double>(requests), expected,
                0.1 * expected);
    // Ticks nondecreasing (the wire format's invariant).
    for (std::size_t i = 1; i < trace.records.size(); ++i)
        ASSERT_GE(trace.records[i].tick, trace.records[i - 1].tick);
}

TEST(Serve, EveryArrivalIsAccountedFor)
{
    const Latrace trace = generateServeTrace(smallConfig());
    const ServeResult r = runOn(PolicyKind::Latr, trace);
    EXPECT_GT(r.completed, 0u);
    EXPECT_GT(r.tenantChurns, 0u);
    // Open-loop drains fully: every arrival either completed or was
    // dropped by tenant churn while queued.
    EXPECT_EQ(r.completed + r.droppedChurn, r.arrivals);
    EXPECT_EQ(r.latency.count(), r.completed);
    EXPECT_EQ(r.p50(), r.latency.percentile(0.50));
    EXPECT_LE(r.p50(), r.p99());
    EXPECT_LE(r.p99(), r.p999());
}

TEST(Serve, ReplayOfRecordingMatchesOriginalRun)
{
    const Latrace recorded = generateServeTrace(smallConfig());

    // Round-trip the recording through its wire format.
    Latrace replayed;
    std::string error;
    ASSERT_TRUE(
        latraceParse(latraceSerialize(recorded), &replayed, &error))
        << error;

    const ServeResult a = runOn(PolicyKind::Latr, recorded);
    const ServeResult b = runOn(PolicyKind::Latr, replayed);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.latency.digest(), b.latency.digest());
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.p999(), b.p999());
}

TEST(Serve, LatrTailBeatsSynchronousLinux)
{
    // The figure this subsystem exists to reproduce: under open-loop
    // load, LATR's lazy shootdowns keep the p99 below Linux's
    // synchronous IPI path on the same trace.
    const Latrace trace = generateServeTrace(smallConfig());
    const ServeResult linux_r = runOn(PolicyKind::LinuxSync, trace);
    const ServeResult latr_r = runOn(PolicyKind::Latr, trace);
    EXPECT_LT(latr_r.p99(), linux_r.p99())
        << "latr p99 " << latr_r.p99() << " vs linux p99 "
        << linux_r.p99();
    EXPECT_LT(latr_r.latency.mean(), linux_r.latency.mean());
}

TEST(Serve, ChurnlessTraceDropsNothing)
{
    ServeConfig config = smallConfig();
    config.churnInterval = 0;
    config.duration = 10 * kMsec;
    const Latrace trace = generateServeTrace(config);
    const ServeResult r = runOn(PolicyKind::Latr, trace);
    EXPECT_EQ(r.tenantChurns, 0u);
    EXPECT_EQ(r.droppedChurn, 0u);
    EXPECT_EQ(r.completed, r.arrivals);
}

TEST(Serve, WorkerCountClampsToMachine)
{
    // A trace recorded on a bigger machine still replays: workers
    // clamp to the cores available.
    ServeConfig config = smallConfig();
    config.workers = 64; // commodity2S16C has 16 cores
    config.duration = 5 * kMsec;
    const Latrace trace = generateServeTrace(config);
    const ServeResult r = runOn(PolicyKind::Latr, trace);
    EXPECT_EQ(r.completed + r.droppedChurn, r.arrivals);
}

} // namespace
} // namespace latr
