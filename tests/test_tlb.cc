// Unit tests for the two-level TLB model.

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "hw/tlb.hh"

namespace latr
{
namespace
{

/** Counts listener traffic and mirrors membership. */
class MirrorListener : public TlbListener
{
  public:
    void
    onTlbInsert(CoreId, Vpn vpn, Pfn pfn, Pcid pcid) override
    {
        ++inserts;
        live[key(vpn, pcid)] = pfn;
    }

    void
    onTlbRemove(CoreId, Vpn vpn, Pfn pfn, Pcid pcid) override
    {
        ++removes;
        auto it = live.find(key(vpn, pcid));
        ASSERT_NE(it, live.end());
        EXPECT_EQ(it->second, pfn);
        live.erase(it);
    }

    static std::uint64_t
    key(Vpn vpn, Pcid pcid)
    {
        return (static_cast<std::uint64_t>(pcid) << 48) | vpn;
    }

    int inserts = 0;
    int removes = 0;
    std::map<std::uint64_t, Pfn> live;
};

/** Records listener traffic in order. */
class LogListener : public TlbListener
{
  public:
    void
    onTlbInsert(CoreId, Vpn vpn, Pfn pfn, Pcid pcid) override
    {
        log.emplace_back('+', vpn, pfn, pcid);
    }

    void
    onTlbRemove(CoreId, Vpn vpn, Pfn pfn, Pcid pcid) override
    {
        log.emplace_back('-', vpn, pfn, pcid);
    }

    std::vector<std::tuple<char, Vpn, Pfn, Pcid>> log;
};

TEST(Tlb, MissThenInsertThenHit)
{
    Tlb tlb(0, 4, 8);
    Pfn pfn = 0;
    EXPECT_EQ(tlb.lookup(10, 0, &pfn), TlbResult::Miss);
    tlb.insert(10, 99, 0);
    EXPECT_EQ(tlb.lookup(10, 0, &pfn), TlbResult::HitL1);
    EXPECT_EQ(pfn, 99u);
    EXPECT_EQ(tlb.l1Hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, L1EvictionSpillsToL2AndHitsThere)
{
    Tlb tlb(0, 2, 4);
    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    tlb.insert(3, 103, 0); // evicts vpn 1 (LRU) into L2
    Pfn pfn = 0;
    EXPECT_EQ(tlb.lookup(1, 0, &pfn), TlbResult::HitL2);
    EXPECT_EQ(pfn, 101u);
    EXPECT_EQ(tlb.l2Hits(), 1u);
}

TEST(Tlb, L2PromotionMovesEntryBackToL1)
{
    Tlb tlb(0, 2, 4);
    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    tlb.insert(3, 103, 0); // vpn 1 -> L2
    EXPECT_EQ(tlb.lookup(1, 0), TlbResult::HitL2);
    // Promoted: next lookup is an L1 hit.
    EXPECT_EQ(tlb.lookup(1, 0), TlbResult::HitL1);
}

TEST(Tlb, TrueLruOrderRespectsTouches)
{
    Tlb tlb(0, 2, 2);
    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    // Touch vpn 1 so vpn 2 becomes LRU.
    EXPECT_EQ(tlb.lookup(1, 0), TlbResult::HitL1);
    tlb.insert(3, 103, 0); // evicts vpn 2 (the LRU) to L2
    EXPECT_EQ(tlb.lookup(2, 0), TlbResult::HitL2);
    // Promoting vpn 2 into the 2-entry L1 demoted vpn 1 in turn.
    EXPECT_EQ(tlb.lookup(1, 0), TlbResult::HitL2);
}

TEST(Tlb, TotalCapacityEnforced)
{
    Tlb tlb(0, 2, 2);
    for (Vpn v = 0; v < 10; ++v)
        tlb.insert(v, 100 + v, 0);
    EXPECT_LE(tlb.size(), 4u);
}

TEST(Tlb, InvalidatePageRemovesFromBothLevels)
{
    Tlb tlb(0, 2, 4);
    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    tlb.insert(3, 103, 0); // vpn 1 now in L2
    tlb.invalidatePage(1, 0);
    tlb.invalidatePage(3, 0);
    EXPECT_EQ(tlb.lookup(1, 0), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(3, 0), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(2, 0), TlbResult::HitL1);
}

TEST(Tlb, InvalidateRangeIsInclusive)
{
    Tlb tlb(0, 8, 8);
    for (Vpn v = 10; v <= 15; ++v)
        tlb.insert(v, 100 + v, 0);
    tlb.invalidateRange(11, 13, 0);
    EXPECT_EQ(tlb.lookup(10, 0), TlbResult::HitL1);
    EXPECT_EQ(tlb.lookup(11, 0), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(12, 0), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(13, 0), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(14, 0), TlbResult::HitL1);
}

TEST(Tlb, PcidSeparatesAddressSpaces)
{
    Tlb tlb(0, 8, 8);
    tlb.insert(10, 100, 1);
    tlb.insert(10, 200, 2);
    Pfn pfn = 0;
    EXPECT_EQ(tlb.lookup(10, 1, &pfn), TlbResult::HitL1);
    EXPECT_EQ(pfn, 100u);
    EXPECT_EQ(tlb.lookup(10, 2, &pfn), TlbResult::HitL1);
    EXPECT_EQ(pfn, 200u);
}

TEST(Tlb, InvalidatePcidOnlyDropsThatSpace)
{
    Tlb tlb(0, 8, 8);
    tlb.insert(10, 100, 1);
    tlb.insert(11, 101, 1);
    tlb.insert(10, 200, 2);
    tlb.invalidatePcid(1);
    EXPECT_EQ(tlb.lookup(10, 1), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(11, 1), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(10, 2), TlbResult::HitL1);
}

TEST(Tlb, InvalidateRangeHonorsPcid)
{
    Tlb tlb(0, 8, 8);
    tlb.insert(10, 100, 1);
    tlb.insert(10, 200, 2);
    tlb.invalidateRange(0, 100, 1);
    EXPECT_EQ(tlb.lookup(10, 1), TlbResult::Miss);
    EXPECT_EQ(tlb.lookup(10, 2), TlbResult::HitL1);
}

TEST(Tlb, FlushAllEmptiesAndCounts)
{
    Tlb tlb(0, 4, 4);
    for (Vpn v = 0; v < 6; ++v)
        tlb.insert(v, v, 0);
    tlb.flushAll();
    EXPECT_EQ(tlb.size(), 0u);
    EXPECT_EQ(tlb.flushes(), 1u);
    EXPECT_EQ(tlb.lookup(0, 0), TlbResult::Miss);
}

TEST(Tlb, ProbeHasNoLruSideEffects)
{
    Tlb tlb(0, 2, 2);
    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    // Probing vpn 1 must NOT refresh it...
    EXPECT_TRUE(tlb.probe(1, 0));
    tlb.insert(3, 103, 0); // ...so vpn 1 is still the LRU victim
    EXPECT_EQ(tlb.lookup(1, 0), TlbResult::HitL2);
}

TEST(Tlb, ListenerSeesNetMembershipChanges)
{
    Tlb tlb(0, 2, 2);
    MirrorListener listener;
    tlb.setListener(&listener);

    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    EXPECT_EQ(listener.inserts, 2);
    EXPECT_EQ(listener.removes, 0);

    // Spill to L2 is not a removal...
    tlb.insert(3, 103, 0);
    EXPECT_EQ(listener.removes, 0);
    // ...but falling out of L2 is.
    tlb.insert(4, 104, 0);
    tlb.insert(5, 105, 0);
    EXPECT_GT(listener.removes, 0);
    EXPECT_EQ(listener.live.size(), tlb.size());
}

TEST(Tlb, ListenerSeesRemapAsRemovePlusInsert)
{
    Tlb tlb(0, 4, 4);
    MirrorListener listener;
    tlb.setListener(&listener);
    tlb.insert(1, 101, 0);
    tlb.insert(1, 999, 0); // same vpn, new frame
    EXPECT_EQ(listener.inserts, 2);
    EXPECT_EQ(listener.removes, 1);
    Pfn pfn = 0;
    tlb.lookup(1, 0, &pfn);
    EXPECT_EQ(pfn, 999u);
    EXPECT_EQ(tlb.size(), 1u);
}

TEST(Tlb, ReinsertSameTranslationIsQuietForListener)
{
    Tlb tlb(0, 4, 4);
    MirrorListener listener;
    tlb.setListener(&listener);
    tlb.insert(1, 101, 0);
    tlb.insert(1, 101, 0); // identical
    EXPECT_EQ(listener.inserts, 1);
    EXPECT_EQ(listener.removes, 0);
    EXPECT_EQ(tlb.size(), 1u);
}

TEST(Tlb, FlushNotifiesEveryEntry)
{
    Tlb tlb(0, 4, 4);
    MirrorListener listener;
    tlb.setListener(&listener);
    for (Vpn v = 0; v < 4; ++v)
        tlb.insert(v, v, 0);
    tlb.flushAll();
    EXPECT_EQ(listener.removes, 4);
    EXPECT_TRUE(listener.live.empty());
}

// --- LRU golden tests: written against the list+map level and
// --- required to pass verbatim on the slot-array level.

TEST(TlbGolden, EvictionCascadeL1ToL2ToGone)
{
    Tlb tlb(0, 2, 2);
    MirrorListener listener;
    tlb.setListener(&listener);
    // 1,2 fill L1; 3,4 spill 1,2 into L2; 5 spills 3, whose arrival
    // evicts the L2 LRU (vpn 1) out of the TLB entirely.
    for (Vpn v = 1; v <= 5; ++v)
        tlb.insert(v, 100 + v, 0);
    EXPECT_FALSE(tlb.probe(1, 0));
    EXPECT_TRUE(tlb.probe(2, 0));
    EXPECT_TRUE(tlb.probe(3, 0));
    EXPECT_TRUE(tlb.probe(4, 0));
    EXPECT_TRUE(tlb.probe(5, 0));
    EXPECT_EQ(listener.removes, 1);
    EXPECT_EQ(tlb.size(), 4u);
    // Exact level placement: 5,4 in L1; 3,2 in L2.
    EXPECT_EQ(tlb.lookup(4, 0), TlbResult::HitL1);
    EXPECT_EQ(tlb.lookup(5, 0), TlbResult::HitL1);
    EXPECT_EQ(tlb.lookup(2, 0), TlbResult::HitL2);
    EXPECT_EQ(tlb.lookup(3, 0), TlbResult::HitL2);
}

TEST(TlbGolden, L2HitPromotionDemotesL1Lru)
{
    Tlb tlb(0, 2, 2);
    tlb.insert(1, 101, 0);
    tlb.insert(2, 102, 0);
    tlb.insert(3, 103, 0); // L1 {3,2}, L2 {1}
    Pfn pfn = 0;
    EXPECT_EQ(tlb.lookup(1, 0, &pfn), TlbResult::HitL2);
    EXPECT_EQ(pfn, 101u);
    // Promotion put 1 into L1 and demoted the L1 LRU (vpn 2) to L2.
    EXPECT_EQ(tlb.lookup(3, 0), TlbResult::HitL1);
    EXPECT_EQ(tlb.lookup(2, 0), TlbResult::HitL2);
}

TEST(TlbGolden, InvalidateRangeBoundaryVpns)
{
    Tlb tlb(0, 8, 8);
    for (Vpn v = 99; v <= 104; ++v)
        tlb.insert(v, v, 0);
    // Narrow range (below occupancy): exercises the probe path of an
    // adaptive implementation.
    tlb.invalidateRange(100, 103, 0);
    EXPECT_TRUE(tlb.probe(99, 0));
    EXPECT_FALSE(tlb.probe(100, 0));
    EXPECT_FALSE(tlb.probe(103, 0));
    EXPECT_TRUE(tlb.probe(104, 0));
    // Wide range (beyond occupancy): exercises the scan path.
    tlb.invalidateRange(0, 1'000'000, 0);
    EXPECT_EQ(tlb.size(), 0u);
}

TEST(TlbGolden, InvalidateRangeHitsOverlappingHugeEntries)
{
    Tlb tlb(0, 4, 4, 4);
    tlb.insertHuge(0, 1000, 0);    // covers vpn 0..511
    tlb.insertHuge(512, 2000, 0);  // covers vpn 512..1023
    tlb.insertHuge(1024, 3000, 0); // covers vpn 1024..1535
    // A range touching only the tail page of the first region drops
    // that region but not its neighbor.
    tlb.invalidateRange(511, 511, 0);
    EXPECT_FALSE(tlb.probeHuge(0, 0));
    EXPECT_TRUE(tlb.probeHuge(512, 0));
    // A range starting exactly at a region's base drops it.
    tlb.invalidateRange(1024, 1024, 0);
    EXPECT_FALSE(tlb.probeHuge(1024, 0));
    EXPECT_TRUE(tlb.probeHuge(512, 0));
}

TEST(TlbGolden, InvalidatePcidWithInterleavedPcids)
{
    Tlb tlb(0, 4, 4);
    tlb.insert(10, 1, 1);
    tlb.insert(10, 2, 2);
    tlb.insert(11, 3, 1);
    tlb.insert(11, 4, 2);
    tlb.invalidatePcid(1);
    EXPECT_FALSE(tlb.probe(10, 1));
    EXPECT_FALSE(tlb.probe(11, 1));
    EXPECT_TRUE(tlb.probe(10, 2));
    EXPECT_TRUE(tlb.probe(11, 2));
    // Survivors keep their LRU order: (10,2) is the older of the two
    // and is the first demoted once the level refills.
    tlb.insert(20, 5, 2);
    tlb.insert(21, 6, 2);
    tlb.insert(22, 7, 2);
    EXPECT_EQ(tlb.lookup(10, 2), TlbResult::HitL2);
    EXPECT_EQ(tlb.lookup(11, 2), TlbResult::HitL2);
}

TEST(TlbGolden, HugeArrayIndependentOfBaseLevels)
{
    Tlb tlb(0, 2, 2, 2);
    tlb.insertHuge(0, 1000, 0);
    tlb.insertHuge(512, 2000, 0);
    // Churning the 4 KiB arrays never evicts huge entries.
    for (Vpn v = 5000; v < 5010; ++v)
        tlb.insert(v, v, 0);
    EXPECT_TRUE(tlb.probeHuge(0, 0));
    EXPECT_TRUE(tlb.probeHuge(700, 0));
    EXPECT_EQ(tlb.hugeSize(), 2u);
    // A lookup through a huge entry offsets into the region.
    Pfn pfn = 0;
    bool huge = false;
    EXPECT_EQ(tlb.lookup(513, 0, &pfn, nullptr, &huge),
              TlbResult::HitL1);
    EXPECT_TRUE(huge);
    EXPECT_EQ(pfn, 2001u);
    // A third huge entry evicts only the huge LRU (base 0: the
    // lookup above touched 512).
    tlb.insertHuge(1024, 3000, 0);
    EXPECT_FALSE(tlb.probeHuge(0, 0));
    EXPECT_TRUE(tlb.probeHuge(512, 0));
    EXPECT_TRUE(tlb.probeHuge(1024, 0));
    EXPECT_EQ(tlb.hugeSize(), 2u);
}

/**
 * Drive @p tlb past every level's capacity: base pages under two
 * PCIDs, huge entries, lookups that promote out of L2, INVLPGs and
 * range invalidations that reshuffle probe chains, and one more full
 * flush midway. @return every lookup's result, in order.
 */
std::vector<TlbResult>
refill(Tlb &tlb)
{
    std::vector<TlbResult> results;
    for (Vpn v = 0; v < 1500; ++v) {
        tlb.insert(v, 0x1000 + v, v % 3 == 0 ? 2 : 1);
        if (v % 7 == 0)
            tlb.insertHuge((1000 + v % 50) * kHugePageSpan, 0x80000 + v,
                           1);
        if (v % 5 == 0) {
            results.push_back(tlb.lookup(v / 2, 1));
            results.push_back(
                tlb.lookup((1000 + v % 60) * kHugePageSpan + 3, 1));
        }
        if (v % 11 == 0)
            tlb.invalidatePage(v / 3, 1);
        if (v % 97 == 0)
            tlb.invalidateRange(v / 4, v / 4 + 20, 2);
        if (v == 900)
            tlb.flushAll();
    }
    for (Vpn v = 0; v < 1500; ++v)
        results.push_back(tlb.lookup(v, v % 3 == 0 ? 2 : 1));
    return results;
}

TEST(TlbGolden, FlushThenRefillMatchesFreshTlb)
{
    // 1 base page leaves L1 nearly empty; 66 fill L1 and put two in
    // L2; 2000 fill every level. Whatever a flush left behind, the
    // refill must replay a freshly built TLB's hits, misses,
    // evictions and listener traffic exactly.
    for (Vpn prefill : {Vpn{1}, Vpn{66}, Vpn{2000}}) {
        Tlb flushed(0, 64, 1024, 32);
        for (Vpn v = 0; v < prefill; ++v) {
            flushed.insert(5000 + v, v, 1);
            if (v < 40)
                flushed.insertHuge((3000 + v) * kHugePageSpan, v, 1);
        }
        ASSERT_GT(flushed.hugeSize(), 0u);
        flushed.flushAll();
        ASSERT_EQ(flushed.size(), 0u);

        Tlb fresh(0, 64, 1024, 32);
        LogListener flushed_log;
        LogListener fresh_log;
        flushed.setListener(&flushed_log);
        fresh.setListener(&fresh_log);
        EXPECT_EQ(refill(flushed), refill(fresh)) << prefill;
        EXPECT_EQ(flushed_log.log, fresh_log.log) << prefill;
        EXPECT_EQ(flushed.size(), fresh.size()) << prefill;
    }
}

class TlbFillSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TlbFillSweep, SizeNeverExceedsConfiguredCapacity)
{
    const unsigned l1 = GetParam();
    Tlb tlb(0, l1, 2 * l1);
    for (Vpn v = 0; v < 10 * l1; ++v) {
        tlb.insert(v, v, 0);
        EXPECT_LE(tlb.size(), static_cast<std::size_t>(3 * l1));
    }
    // All most-recent l1 insertions must still hit in L1.
    for (Vpn v = 10 * l1 - l1; v < 10 * l1; ++v)
        EXPECT_EQ(tlb.lookup(v, 0), TlbResult::HitL1) << v;
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbFillSweep,
                         ::testing::Values(2u, 4u, 64u));

} // namespace
} // namespace latr
