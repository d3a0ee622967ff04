// Unit tests for the .latrace trace container: canonical bytes,
// round-trips, rejection of malformed input, and seeded mutants that
// must be rejected with a message or replay cleanly.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "machine/machine.hh"
#include "serve/latrace.hh"
#include "serve/serve.hh"
#include "sim/rng.hh"

namespace latr
{
namespace
{

Latrace
sampleTrace()
{
    Latrace t;
    t.seed = 42;
    t.durationTicks = 5'000'000;
    t.workers = 4;
    t.tenants = 2;
    t.serviceCpuNs = 30'000;
    LatraceRecord r;
    r.tick = 10;
    r.user = 7;
    r.tenant = 1;
    r.pages = 3;
    r.op = LatraceOp::Request;
    t.records.push_back(r);
    r.tick = 20;
    r.op = LatraceOp::TenantExit;
    t.records.push_back(r);
    r.op = LatraceOp::TenantSpawn;
    t.records.push_back(r);
    return t;
}

TEST(Latrace, SerializationIsCanonical)
{
    const Latrace t = sampleTrace();
    const std::string a = latraceSerialize(t);
    const std::string b = latraceSerialize(t);
    EXPECT_EQ(a, b);
    // Fixed header (64 B) plus 24 B per record.
    EXPECT_EQ(a.size(), 64u + 24u * t.records.size());
    EXPECT_EQ(a.substr(0, 7), "LATRACE");
}

TEST(Latrace, RoundTripPreservesEverything)
{
    const Latrace t = sampleTrace();
    Latrace back;
    std::string error;
    ASSERT_TRUE(latraceParse(latraceSerialize(t), &back, &error))
        << error;
    EXPECT_TRUE(t == back);
    // And re-serializing the parse gives the same bytes.
    EXPECT_EQ(latraceSerialize(back), latraceSerialize(t));
}

TEST(Latrace, EmptyRecordListRoundTrips)
{
    Latrace t;
    t.workers = 1;
    t.tenants = 1;
    Latrace back;
    ASSERT_TRUE(latraceParse(latraceSerialize(t), &back, nullptr));
    EXPECT_TRUE(t == back);
}

TEST(Latrace, RejectsTruncatedAndCorrupt)
{
    const std::string good = latraceSerialize(sampleTrace());
    Latrace out;
    std::string error;

    EXPECT_FALSE(latraceParse("", &out, &error));
    EXPECT_NE(error.find("shorter"), std::string::npos);

    EXPECT_FALSE(latraceParse(good.substr(0, 40), &out, &error));

    std::string badMagic = good;
    badMagic[0] = 'X';
    EXPECT_FALSE(latraceParse(badMagic, &out, &error));
    EXPECT_NE(error.find("magic"), std::string::npos);

    std::string badVersion = good;
    badVersion[8] = 99;
    EXPECT_FALSE(latraceParse(badVersion, &out, &error));
    EXPECT_NE(error.find("version"), std::string::npos);

    // Truncated body: drop the last record's bytes.
    EXPECT_FALSE(
        latraceParse(good.substr(0, good.size() - 24), &out, &error));
    EXPECT_NE(error.find("size"), std::string::npos);

    // Trailing garbage is an error too (byte-diffable means exact).
    EXPECT_FALSE(latraceParse(good + "x", &out, &error));

    // Unknown op value.
    std::string badOp = good;
    badOp[64 + 18] = 77;
    EXPECT_FALSE(latraceParse(badOp, &out, &error));
    EXPECT_NE(error.find("op"), std::string::npos);

    // Ticks must be nondecreasing: swap record order.
    Latrace disordered = sampleTrace();
    std::swap(disordered.records.front(), disordered.records.back());
    EXPECT_FALSE(
        latraceParse(latraceSerialize(disordered), &out, &error));
    EXPECT_NE(error.find("nondecreasing"), std::string::npos);
}

TEST(Latrace, SaveLoadRoundTrips)
{
    const Latrace t = sampleTrace();
    const std::string path =
        ::testing::TempDir() + "latrace_roundtrip.latrace";
    ASSERT_TRUE(latraceSave(t, path));
    Latrace back;
    std::string error;
    ASSERT_TRUE(latraceLoad(path, &back, &error)) << error;
    EXPECT_TRUE(t == back);
    std::remove(path.c_str());
}

TEST(Latrace, LoadReportsMissingFile)
{
    Latrace out;
    std::string error;
    EXPECT_FALSE(
        latraceLoad("/nonexistent/nowhere.latrace", &out, &error));
    EXPECT_NE(error.find("open"), std::string::npos);
}

TEST(Latrace, CommittedCorpusFileParsesAndMatchesGenerator)
{
    // The committed corpus recording is the generator's output for
    // this exact config — a cross-PR canary: if either the generator
    // or the wire format drifts, the bytes stop matching and this
    // test names the .latrace versioning rules as the fix.
    ServeConfig config;
    config.workers = 4;
    config.tenants = 2;
    config.users = 10'000;
    config.arrivalRatePerSec = 50'000;
    config.duration = 10 * kMsec;
    config.churnInterval = 4 * kMsec;
    config.seed = 7;
    const Latrace generated = generateServeTrace(config);

    Latrace committed;
    std::string error;
    ASSERT_TRUE(latraceLoad(
        std::string(LATR_TEST_CORPUS_DIR) + "/serve_smoke.latrace",
        &committed, &error))
        << error;
    EXPECT_TRUE(generated == committed)
        << "generator output diverged from the committed corpus "
           "recording; see DESIGN.md §9 versioning rules";
    EXPECT_EQ(latraceSerialize(generated),
              latraceSerialize(committed));
}

TEST(Latrace, RejectsRecordCountThatWrapsTheSizeCheck)
{
    // (2^61 + 3) * 24 wraps to 3 * 24: a multiplying size check
    // would pass, and reserving that many records would abort.
    std::string bytes = latraceSerialize(sampleTrace());
    const std::uint64_t count = (std::uint64_t{1} << 61) + 3;
    for (unsigned b = 0; b < 8; ++b)
        bytes[56 + b] = static_cast<char>((count >> (8 * b)) & 0xff);
    Latrace out;
    std::string error;
    EXPECT_FALSE(latraceParse(bytes, &out, &error));
    EXPECT_NE(error.find("size"), std::string::npos);
}

TEST(Latrace, RejectsHeaderWithoutWorkersOrTenants)
{
    Latrace t = sampleTrace();
    t.workers = 0;
    Latrace out;
    std::string error;
    EXPECT_FALSE(latraceParse(latraceSerialize(t), &out, &error));
    EXPECT_NE(error.find("worker"), std::string::npos);
    t.workers = 4;
    t.tenants = 0;
    EXPECT_FALSE(latraceParse(latraceSerialize(t), &out, &error));
}

/** A small generated trace: requests plus tenant churn. */
Latrace
mutationBase()
{
    ServeConfig cfg;
    cfg.workers = 4;
    cfg.tenants = 2;
    cfg.arrivalRatePerSec = 40'000;
    cfg.duration = 3 * kMsec;
    cfg.churnInterval = kMsec;
    cfg.seed = 5;
    return generateServeTrace(cfg);
}

/**
 * A mutant must be rejected with a message, or parse and replay to
 * the end. @return whether it parsed.
 */
bool
rejectedOrReplays(const std::string &bytes)
{
    Latrace trace;
    std::string error;
    if (!latraceParse(bytes, &trace, &error)) {
        EXPECT_FALSE(error.empty());
        return false;
    }
    Machine machine(MachineConfig::commodity2S16C(), PolicyKind::Latr);
    const ServeResult r = runServeTrace(machine, trace);
    EXPECT_LE(r.completed, r.arrivals);
    return true;
}

TEST(LatraceMutation, ByteFlipsAreRejectedOrReplay)
{
    // Flips land anywhere, the scenario fields (durationTicks,
    // workers, tenants, serviceCpuNs at bytes 32..55) included: their
    // bounds cap an accepted mutant's replay. One mutant in four
    // flips only scenario bytes, which uniform flips would seldom hit.
    const std::string base = latraceSerialize(mutationBase());
    Rng rng(20);
    unsigned parsed = 0;
    for (int m = 0; m < 150; ++m) {
        std::string bytes = base;
        for (std::uint64_t f = rng.nextRange(1, 3); f > 0; --f) {
            const std::size_t at = m % 4 == 0
                                       ? rng.nextRange(32, 55)
                                       : rng.nextBounded(bytes.size());
            bytes[at] = static_cast<char>(
                bytes[at] ^ static_cast<char>(rng.nextRange(1, 255)));
        }
        parsed += rejectedOrReplays(bytes);
    }
    // Flips in seeds, users, tenants, page counts, reserved bytes and
    // the low bytes of the scenario fields parse; flips in the
    // structure and the high bytes of the scenario fields do not.
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, 150u);
}

TEST(Latrace, RejectsScenarioFieldsBeyondTheirBounds)
{
    // Each field parses at its bound and is rejected one past it.
    auto parses = [](const Latrace &t) {
        Latrace out;
        std::string error;
        const bool ok = latraceParse(latraceSerialize(t), &out, &error);
        EXPECT_TRUE(ok || error.find("range") != std::string::npos)
            << error;
        return ok;
    };
    const Latrace base = sampleTrace();
    ASSERT_TRUE(parses(base));
    Latrace t = base;
    t.durationTicks = kLatraceMaxDuration;
    EXPECT_TRUE(parses(t));
    ++t.durationTicks;
    EXPECT_FALSE(parses(t));
    t = base;
    t.workers = kLatraceMaxWorkers;
    EXPECT_TRUE(parses(t));
    ++t.workers;
    EXPECT_FALSE(parses(t));
    t = base;
    t.tenants = kLatraceMaxTenants;
    EXPECT_TRUE(parses(t));
    ++t.tenants;
    EXPECT_FALSE(parses(t));
    t = base;
    t.serviceCpuNs = kLatraceMaxServiceCpu;
    EXPECT_TRUE(parses(t));
    ++t.serviceCpuNs;
    EXPECT_FALSE(parses(t));
}

TEST(LatraceMutation, TruncationsInsideHeaderAndRecordsAreRejected)
{
    const std::string base = latraceSerialize(mutationBase());
    const std::size_t records = (base.size() - 64) / 24;
    ASSERT_GT(records, 10u);
    for (std::size_t n = 0; n < 64; ++n)
        EXPECT_FALSE(rejectedOrReplays(base.substr(0, n))) << n;
    for (std::size_t rec : {std::size_t{0}, records / 2, records - 1})
        for (std::size_t off = 1; off < 24; ++off)
            EXPECT_FALSE(
                rejectedOrReplays(base.substr(0, 64 + rec * 24 + off)))
                << rec << "+" << off;
}

TEST(LatraceMutation, ReorderedTicksAreRejected)
{
    const Latrace base = mutationBase();
    Rng rng(21);
    for (int m = 0; m < 50; ++m) {
        Latrace t = base;
        std::size_t i = rng.nextBounded(t.records.size());
        std::size_t j = rng.nextBounded(t.records.size());
        if (t.records[i].tick == t.records[j].tick)
            continue;
        std::swap(t.records[i].tick, t.records[j].tick);
        Latrace out;
        std::string error;
        EXPECT_FALSE(latraceParse(latraceSerialize(t), &out, &error));
        EXPECT_NE(error.find("nondecreasing"), std::string::npos);
    }
}

} // namespace
} // namespace latr
