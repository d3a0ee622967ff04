// Unit tests for the LLC model.

#include <gtest/gtest.h>

#include <vector>

#include "hw/cache.hh"
#include "sim/rng.hh"

namespace latr
{
namespace
{

TEST(Llc, MissThenHit)
{
    LlcCache llc(64 * 1024, 4, 64);
    EXPECT_FALSE(llc.access(1, CacheAccessOrigin::App));
    EXPECT_TRUE(llc.access(1, CacheAccessOrigin::App));
    EXPECT_EQ(llc.misses(CacheAccessOrigin::App), 1u);
    EXPECT_EQ(llc.hits(CacheAccessOrigin::App), 1u);
}

TEST(Llc, GeometryDerivedFromSize)
{
    LlcCache llc(64 * 1024, 4, 64);
    EXPECT_EQ(llc.lineBytes(), 64u);
    EXPECT_EQ(llc.ways(), 4u);
    EXPECT_EQ(llc.sets(), 64u * 1024 / 64 / 4);
}

TEST(Llc, ProbeHasNoSideEffects)
{
    LlcCache llc(64 * 1024, 4, 64);
    EXPECT_FALSE(llc.probe(42));
    llc.access(42, CacheAccessOrigin::App);
    EXPECT_TRUE(llc.probe(42));
    EXPECT_EQ(llc.hits(CacheAccessOrigin::App), 0u);
}

TEST(Llc, OriginsTrackedSeparately)
{
    LlcCache llc(64 * 1024, 4, 64);
    llc.access(1, CacheAccessOrigin::App);
    llc.access(2, CacheAccessOrigin::Interrupt);
    llc.access(2, CacheAccessOrigin::Interrupt);
    llc.access(3, CacheAccessOrigin::LatrSweep);
    EXPECT_EQ(llc.misses(CacheAccessOrigin::App), 1u);
    EXPECT_EQ(llc.misses(CacheAccessOrigin::Interrupt), 1u);
    EXPECT_EQ(llc.hits(CacheAccessOrigin::Interrupt), 1u);
    EXPECT_EQ(llc.misses(CacheAccessOrigin::LatrSweep), 1u);
}

TEST(Llc, AppMissRatio)
{
    LlcCache llc(64 * 1024, 4, 64);
    llc.access(1, CacheAccessOrigin::App);  // miss
    llc.access(1, CacheAccessOrigin::App);  // hit
    llc.access(1, CacheAccessOrigin::App);  // hit
    llc.access(1, CacheAccessOrigin::App);  // hit
    EXPECT_DOUBLE_EQ(llc.appMissRatio(), 0.25);
}

TEST(Llc, InterruptTrafficEvictsAppLines)
{
    // A tiny cache so pollution is easy to force.
    LlcCache llc(4 * 64, 4, 64); // one set, 4 ways
    for (std::uint64_t l = 0; l < 4; ++l)
        llc.access(l, CacheAccessOrigin::App);
    // All four resident.
    for (std::uint64_t l = 0; l < 4; ++l)
        EXPECT_TRUE(llc.probe(l));
    // Four interrupt lines push them all out.
    for (std::uint64_t l = 100; l < 104; ++l)
        llc.access(l, CacheAccessOrigin::Interrupt);
    int resident = 0;
    for (std::uint64_t l = 0; l < 4; ++l)
        resident += llc.probe(l) ? 1 : 0;
    EXPECT_EQ(resident, 0);
}

TEST(Llc, LruEvictsOldestWithinSet)
{
    LlcCache llc(4 * 64, 4, 64); // one set
    for (std::uint64_t l = 0; l < 4; ++l)
        llc.access(l, CacheAccessOrigin::App);
    llc.access(0, CacheAccessOrigin::App); // refresh line 0
    llc.access(50, CacheAccessOrigin::App); // evicts line 1 (LRU)
    EXPECT_TRUE(llc.probe(0));
    EXPECT_FALSE(llc.probe(1));
}

TEST(Llc, ResetStatsKeepsContents)
{
    LlcCache llc(64 * 1024, 4, 64);
    llc.access(7, CacheAccessOrigin::App);
    llc.resetStats();
    EXPECT_EQ(llc.misses(CacheAccessOrigin::App), 0u);
    EXPECT_TRUE(llc.probe(7)); // contents survive
    EXPECT_TRUE(llc.access(7, CacheAccessOrigin::App));
}

TEST(Llc, WorkingSetLargerThanCacheMissesOften)
{
    LlcCache llc(64 * 1024, 16, 64); // 1024 lines
    // Stream over 4096 distinct lines twice: mostly misses.
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t l = 0; l < 4096; ++l)
            llc.access(l, CacheAccessOrigin::App);
    EXPECT_GT(llc.appMissRatio(), 0.7);
}

TEST(Llc, WorkingSetSmallerThanCacheHitsAfterWarmup)
{
    LlcCache llc(64 * 1024, 16, 64); // 1024 lines
    for (int pass = 0; pass < 10; ++pass)
        for (std::uint64_t l = 0; l < 256; ++l)
            llc.access(l, CacheAccessOrigin::App);
    EXPECT_LT(llc.appMissRatio(), 0.2);
}

TEST(LlcCat, ReservedWaysProtectAppLinesFromSweepFills)
{
    LlcCache llc(8 * 64, 8, 64); // one set, 8 ways
    llc.setLatrReservedWays(2);
    // Fill the app partition (6 ways).
    for (std::uint64_t l = 0; l < 6; ++l)
        llc.access(l, CacheAccessOrigin::App);
    // A storm of sweep fills cannot displace them: sweeps own only
    // the 2 reserved ways.
    for (std::uint64_t l = 100; l < 140; ++l)
        llc.access(l, CacheAccessOrigin::LatrSweep);
    for (std::uint64_t l = 0; l < 6; ++l)
        EXPECT_TRUE(llc.probe(l)) << l;
}

TEST(LlcCat, AppFillsStayOutOfTheReservedWays)
{
    LlcCache llc(8 * 64, 8, 64);
    llc.setLatrReservedWays(2);
    llc.access(500, CacheAccessOrigin::LatrSweep); // resident, way 0-1
    // App thrashing cannot evict the sweep-owned line.
    for (std::uint64_t l = 0; l < 50; ++l)
        llc.access(l, CacheAccessOrigin::App);
    EXPECT_TRUE(llc.probe(500));
}

TEST(LlcCat, HitsAreUnaffectedByPartitioning)
{
    LlcCache llc(8 * 64, 8, 64);
    llc.access(7, CacheAccessOrigin::App);
    llc.setLatrReservedWays(4);
    // A hit finds the line regardless of which partition it is in.
    EXPECT_TRUE(llc.access(7, CacheAccessOrigin::LatrSweep));
}

TEST(LlcCatDeath, ReservingEveryWayIsFatal)
{
    LlcCache llc(8 * 64, 8, 64);
    EXPECT_DEATH(llc.setLatrReservedWays(8), "leave ways");
}

TEST(LlcDeath, MoreThan32WaysIsFatal)
{
    EXPECT_DEATH({ LlcCache llc(33 * 64, 33, 64); }, "at most 32 ways");
}

/**
 * The valid-flag LLC: every line carries its own valid bit, hits scan
 * all ways, and a fill takes the first invalid way of the origin's
 * partition or else its least recently used one. LlcCache must agree
 * with it on every access.
 */
class ReferenceLlc
{
  public:
    ReferenceLlc(unsigned sets, unsigned ways)
        : sets_(sets), ways_(ways), lines_(sets * ways)
    {}

    bool
    access(std::uint64_t line_addr, CacheAccessOrigin origin)
    {
        Line *base = &lines_[setOf(line_addr) * ways_];
        ++useClock_;
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].tag == line_addr) {
                base[w].lastUse = useClock_;
                ++hits[static_cast<int>(origin)];
                return true;
            }
        }
        unsigned first = 0;
        unsigned last = ways_;
        if (latrWays > 0 && latrWays < ways_) {
            if (origin == CacheAccessOrigin::LatrSweep)
                last = latrWays;
            else
                first = latrWays;
        }
        Line *lru = &base[first];
        for (unsigned w = first; w < last; ++w) {
            if (!base[w].valid) {
                lru = &base[w];
                break;
            }
            if (lru->valid && base[w].lastUse < lru->lastUse)
                lru = &base[w];
        }
        ++misses[static_cast<int>(origin)];
        lru->valid = true;
        lru->tag = line_addr;
        lru->lastUse = useClock_;
        return false;
    }

    bool
    probe(std::uint64_t line_addr) const
    {
        const Line *base = &lines_[setOf(line_addr) * ways_];
        for (unsigned w = 0; w < ways_; ++w)
            if (base[w].valid && base[w].tag == line_addr)
                return true;
        return false;
    }

    unsigned latrWays = 0;
    std::uint64_t hits[3] = {0, 0, 0};
    std::uint64_t misses[3] = {0, 0, 0};

  private:
    struct Line
    {
        std::uint64_t tag = ~0ULL;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    std::size_t
    setOf(std::uint64_t line_addr) const
    {
        return (line_addr * 0x9e3779b97f4a7c15ULL >> 32) % sets_;
    }

    unsigned sets_;
    unsigned ways_;
    std::uint64_t useClock_ = 0;
    std::vector<Line> lines_;
};

class LlcMatchesReference : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LlcMatchesReference, SeededAccessStreams)
{
    const unsigned ways = GetParam();
    constexpr unsigned kSets = 8;
    constexpr int kAccesses = 24000;
    const CacheAccessOrigin origins[] = {CacheAccessOrigin::App,
                                         CacheAccessOrigin::Interrupt,
                                         CacheAccessOrigin::LatrSweep};
    LlcCache llc(std::uint64_t{kSets} * ways * 64, ways, 64);
    ASSERT_EQ(llc.sets(), kSets);
    ReferenceLlc ref(kSets, ways);
    Rng rng(ways);
    // Three times the capacity: a mix of hits, cold fills and
    // evictions in every set.
    const std::uint64_t universe = 3ULL * kSets * ways;
    for (int i = 0; i < kAccesses; ++i) {
        SCOPED_TRACE("access " + std::to_string(i));
        // Change the CAT reservation twice mid-stream.
        if (ways > 1 && (i == kAccesses / 3 || i == 2 * kAccesses / 3)) {
            const unsigned reserved = rng.nextBounded(ways);
            llc.setLatrReservedWays(reserved);
            ref.latrWays = reserved;
        }
        const std::uint64_t line = rng.nextBounded(universe);
        const CacheAccessOrigin origin = origins[rng.nextBounded(3)];
        ASSERT_EQ(llc.access(line, origin), ref.access(line, origin));
        const std::uint64_t probed = rng.nextBounded(universe);
        ASSERT_EQ(llc.probe(probed), ref.probe(probed)) << probed;
    }
    for (int o = 0; o < 3; ++o) {
        EXPECT_EQ(llc.hits(origins[o]), ref.hits[o]);
        EXPECT_EQ(llc.misses(origins[o]), ref.misses[o]);
    }
    EXPECT_GT(ref.hits[0], 0u);
    EXPECT_GT(ref.misses[0], 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, LlcMatchesReference,
                         ::testing::Range(1u, 33u));

} // namespace
} // namespace latr
