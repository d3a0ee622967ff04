// Unit tests for the two-level TLB model.

#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "hw/tlb.hh"
#include "sim/rng.hh"

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
    tlb.addListener(&listener);

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
    tlb.addListener(&listener);
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
    tlb.addListener(&listener);
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
    tlb.addListener(&listener);
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
    tlb.addListener(&listener);
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
        flushed.addListener(&flushed_log);
        fresh.addListener(&fresh_log);
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

// --- Reference model: a naive TLB of std::list levels searched
// --- linearly, with the same spill, evict and notify rules.

/** Two LRU levels and a 2 MiB array, each list kept MRU first. */
class ReferenceTlb
{
  public:
    struct Entry
    {
        Vpn vpn;
        Pcid pcid;
        Pfn pfn;
        bool writable;
    };
    using List = std::list<Entry>;

    ReferenceTlb(unsigned l1, unsigned l2, unsigned huge)
        : l1Cap_(l1), l2Cap_(l2), hugeCap_(huge)
    {
    }

    TlbResult
    lookup(Vpn vpn, Pcid pcid, Pfn *pfn, bool *writable, bool *huge)
    {
        *huge = false;
        auto h = find(huge_, hugeBaseOf(vpn), pcid);
        if (h != huge_.end()) {
            huge_.splice(huge_.begin(), huge_, h);
            ++l1Hits;
            *pfn = h->pfn + (vpn - hugeBaseOf(vpn));
            *writable = h->writable;
            *huge = true;
            return TlbResult::HitL1;
        }
        auto e = find(l1_, vpn, pcid);
        if (e != l1_.end()) {
            l1_.splice(l1_.begin(), l1_, e);
            ++l1Hits;
            *pfn = e->pfn;
            *writable = e->writable;
            return TlbResult::HitL1;
        }
        e = find(l2_, vpn, pcid);
        if (e == l2_.end()) {
            ++misses;
            return TlbResult::Miss;
        }
        ++l2Hits;
        *pfn = e->pfn;
        *writable = e->writable;
        const Entry promoted = *e;
        l2_.erase(e);
        pushL1(promoted);
        return TlbResult::HitL2;
    }

    bool
    probePfn(Vpn vpn, Pcid pcid, Pfn *pfn) const
    {
        for (const List *level : {&l1_, &l2_}) {
            for (const Entry &e : *level) {
                if (e.vpn == vpn && e.pcid == pcid) {
                    *pfn = e.pfn;
                    return true;
                }
            }
        }
        return probeHugePfn(vpn, pcid, pfn);
    }

    bool
    probeHugePfn(Vpn vpn, Pcid pcid, Pfn *pfn) const
    {
        for (const Entry &e : huge_) {
            if (e.vpn == hugeBaseOf(vpn) && e.pcid == pcid) {
                *pfn = e.pfn;
                return true;
            }
        }
        return false;
    }

    void
    insert(Vpn vpn, Pfn pfn, Pcid pcid, bool writable)
    {
        const Entry e{vpn, pcid, pfn, writable};
        Entry old;
        const bool existed =
            take(l1_, vpn, pcid, &old) || take(l2_, vpn, pcid, &old);
        const bool same_frame = existed && old.pfn == pfn;
        if (existed && !same_frame)
            note('-', old);
        if (!same_frame)
            note('+', e);
        pushL1(e);
    }

    void
    insertHuge(Vpn base_vpn, Pfn pfn, Pcid pcid, bool writable)
    {
        const Entry e{hugeBaseOf(base_vpn), pcid, pfn, writable};
        Entry old;
        const bool existed = take(huge_, e.vpn, pcid, &old);
        const bool same_frame = existed && old.pfn == pfn;
        if (existed && !same_frame)
            note('-', old);
        if (!same_frame)
            note('+', e);
        huge_.push_front(e);
        if (huge_.size() > hugeCap_) {
            note('-', huge_.back());
            huge_.pop_back();
        }
    }

    void
    invalidatePage(Vpn vpn, Pcid pcid)
    {
        Entry old;
        if (take(l1_, vpn, pcid, &old))
            note('-', old);
        if (take(l2_, vpn, pcid, &old))
            note('-', old);
        if (take(huge_, hugeBaseOf(vpn), pcid, &old))
            note('-', old);
    }

    void
    invalidateRange(Vpn start, Vpn end, Pcid pcid)
    {
        auto covers = [&](const Entry &e) {
            return e.vpn >= start && e.vpn <= end;
        };
        invalidateIn(l1_, start, end, 1, pcid, covers);
        invalidateIn(l2_, start, end, 1, pcid, covers);
        invalidateIn(huge_, hugeBaseOf(start), hugeBaseOf(end),
                     kHugePageSpan, pcid, [&](const Entry &e) {
                         return e.vpn <= end &&
                                e.vpn + kHugePageSpan - 1 >= start;
                     });
    }

    void
    invalidatePcid(Pcid pcid)
    {
        for (List *level : {&l1_, &l2_, &huge_})
            removeIf(*level,
                     [&](const Entry &e) { return e.pcid == pcid; });
    }

    void
    flushAll()
    {
        ++flushes;
        for (List *level : {&l1_, &l2_, &huge_}) {
            for (const Entry &e : *level)
                note('-', e);
            level->clear();
        }
    }

    std::size_t
    size() const
    {
        return l1_.size() + l2_.size() + huge_.size();
    }

    std::size_t hugeSize() const { return huge_.size(); }

    /** The entries of L1 (0), L2 (1) or the 2 MiB array (2). */
    const List &
    level(unsigned i) const
    {
        return i == 0 ? l1_ : (i == 1 ? l2_ : huge_);
    }

    std::vector<std::tuple<char, Vpn, Pfn, Pcid>> log;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t flushes = 0;

  private:
    static List::iterator
    find(List &level, Vpn vpn, Pcid pcid)
    {
        for (auto it = level.begin(); it != level.end(); ++it)
            if (it->vpn == vpn && it->pcid == pcid)
                return it;
        return level.end();
    }

    static bool
    take(List &level, Vpn vpn, Pcid pcid, Entry *out)
    {
        auto it = find(level, vpn, pcid);
        if (it == level.end())
            return false;
        *out = *it;
        level.erase(it);
        return true;
    }

    void
    note(char what, const Entry &e)
    {
        log.emplace_back(what, e.vpn, e.pfn, e.pcid);
    }

    /** L1 takes @p e; overflow spills L1's LRU to L2, then out. */
    void
    pushL1(const Entry &e)
    {
        l1_.push_front(e);
        if (l1_.size() <= l1Cap_)
            return;
        l2_.splice(l2_.begin(), l1_, std::prev(l1_.end()));
        if (l2_.size() > l2Cap_) {
            note('-', l2_.back());
            l2_.pop_back();
        }
    }

    template <typename Pred>
    void
    removeIf(List &level, Pred &&pred)
    {
        for (auto it = level.begin(); it != level.end();) {
            if (pred(*it)) {
                note('-', *it);
                it = level.erase(it);
            } else {
                ++it;
            }
        }
    }

    /**
     * The TLB probes key by key, ascending, when the range holds fewer
     * keys (@p step apart) than the level has entries, and scans the
     * level MRU first otherwise; the order of removals follows.
     */
    template <typename Overlaps>
    void
    invalidateIn(List &level, Vpn first, Vpn last, Vpn step, Pcid pcid,
                 Overlaps &&overlaps)
    {
        const std::uint64_t keys = (last - first) / step + 1;
        if (keys == 0 || keys >= level.size()) {
            removeIf(level, [&](const Entry &e) {
                return e.pcid == pcid && overlaps(e);
            });
            return;
        }
        Entry old;
        for (Vpn v = first;; v += step) {
            if (take(level, v, pcid, &old))
                note('-', old);
            if (v == last)
                break;
        }
    }

    unsigned l1Cap_;
    unsigned l2Cap_;
    unsigned hugeCap_;
    List l1_;
    List l2_;
    List huge_;
};

class TlbMatchesReference
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, unsigned>>
{
};

TEST_P(TlbMatchesReference, SeededOpMixes)
{
    const auto [l1, l2, huge] = GetParam();
    const unsigned capacity = l1 + l2;
    // Base pages from twice the 4 KiB capacity under three PCIDs,
    // centred inside twice as many huge regions as the 2 MiB array
    // holds: hits in every array, spills, evictions and remaps.
    const Vpn universe = 2 * capacity + 4;
    const Vpn regions = 2 * huge + 2;
    constexpr Vpn kCenter = 64 * kHugePageSpan;
    const Vpn firstRegion = kCenter / kHugePageSpan - regions / 2;
    // Rare ops scale with capacity so the big shapes still fill up.
    const std::uint64_t rareRoll = 8 * (capacity + 50);
    const int ops = static_cast<int>(12 * (capacity + 50) + 4000);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Tlb tlb(0, l1, l2, huge);
        LogListener got;
        tlb.addListener(&got);
        ReferenceTlb ref(l1, l2, huge);
        Rng rng(seed * 1000 + capacity);
        auto regionBase = [&] {
            return (firstRegion + rng.nextBounded(regions)) *
                   kHugePageSpan;
        };
        auto randomVpn = [&]() -> Vpn {
            if (rng.nextBounded(2) == 0)
                return kCenter - universe / 2 + rng.nextBounded(universe);
            return regionBase() + rng.nextBounded(kHugePageSpan);
        };
        auto randomPcid = [&] {
            return static_cast<Pcid>(rng.nextBounded(3));
        };
        /** A live entry of level @p i, or nullptr when it is empty. */
        auto liveEntry = [&](unsigned i) -> const ReferenceTlb::Entry * {
            const ReferenceTlb::List &level = ref.level(i);
            if (level.empty())
                return nullptr;
            return &*std::next(level.begin(),
                               rng.nextBounded(level.size()));
        };

        for (int op = 0; op < ops; ++op) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                         std::to_string(op));
            const std::uint64_t rare = rng.nextBounded(rareRoll);
            const std::uint64_t roll = rng.nextBounded(100);
            if (rare == 0) {
                tlb.flushAll();
                ref.flushAll();
            } else if (rare <= 2) {
                const Pcid pcid = randomPcid();
                tlb.invalidatePcid(pcid);
                ref.invalidatePcid(pcid);
            } else if (rare <= 10) {
                // Wide: past any level's occupancy, or the whole VPN
                // space (its span wraps to zero).
                Vpn start = 0;
                Vpn end = ~Vpn{0};
                if (rng.nextBounded(4) != 0) {
                    start = randomVpn() - rng.nextBounded(universe);
                    end = start + universe +
                          rng.nextBounded(4 * kHugePageSpan);
                }
                const Pcid pcid = randomPcid();
                tlb.invalidateRange(start, end, pcid);
                ref.invalidateRange(start, end, pcid);
            } else if (roll < 30) {
                const Vpn vpn = randomVpn();
                const Pcid pcid = randomPcid();
                Pfn pfn = 0, ref_pfn = 0;
                bool w = false, ref_w = false, hg = false, ref_hg = false;
                ASSERT_EQ(
                    tlb.lookup(vpn, pcid, &pfn, &w, &hg),
                    ref.lookup(vpn, pcid, &ref_pfn, &ref_w, &ref_hg));
                ASSERT_EQ(pfn, ref_pfn);
                ASSERT_EQ(w, ref_w);
                ASSERT_EQ(hg, ref_hg);
            } else if (roll < 42) {
                const Vpn vpn = randomVpn();
                const Pcid pcid = randomPcid();
                Pfn pfn = 0, ref_pfn = 0;
                const bool hit = ref.probePfn(vpn, pcid, &ref_pfn);
                ASSERT_EQ(tlb.probe(vpn, pcid), hit);
                ASSERT_EQ(tlb.probePfn(vpn, pcid, &pfn), hit);
                ASSERT_EQ(pfn, ref_pfn);
                pfn = ref_pfn = 0;
                const bool huge_hit =
                    ref.probeHugePfn(vpn, pcid, &ref_pfn);
                ASSERT_EQ(tlb.probeHuge(vpn, pcid), huge_hit);
                ASSERT_EQ(tlb.probeHugePfn(vpn, pcid, &pfn), huge_hit);
                ASSERT_EQ(pfn, ref_pfn);
            } else if (roll < 70) {
                // Fresh, remap (new frame) or permission-only insert.
                Vpn vpn = randomVpn();
                Pcid pcid = randomPcid();
                Pfn pfn = rng.nextBounded(1 << 20);
                bool writable = rng.nextBounded(2) != 0;
                if (const ReferenceTlb::Entry *live =
                        roll < 58 ? nullptr
                                  : liveEntry(rng.nextBounded(2))) {
                    vpn = live->vpn;
                    pcid = live->pcid;
                    if (roll < 64) {
                        pfn = live->pfn + 1 + rng.nextBounded(100);
                    } else {
                        pfn = live->pfn;
                        writable = !live->writable;
                    }
                }
                tlb.insert(vpn, pfn, pcid, writable);
                ref.insert(vpn, pfn, pcid, writable);
            } else if (roll < 76) {
                Vpn base = regionBase() + rng.nextBounded(kHugePageSpan);
                Pcid pcid = randomPcid();
                Pfn pfn = rng.nextBounded(1 << 20) * kHugePageSpan;
                if (const ReferenceTlb::Entry *live =
                        roll < 73 ? liveEntry(2) : nullptr) {
                    base = live->vpn;
                    pcid = live->pcid;
                    if (rng.nextBounded(2) == 0)
                        pfn = live->pfn;
                }
                const bool writable = rng.nextBounded(2) != 0;
                tlb.insertHuge(base, pfn, pcid, writable);
                ref.insertHuge(base, pfn, pcid, writable);
            } else if (roll < 88) {
                const Vpn vpn = randomVpn();
                const Pcid pcid = randomPcid();
                tlb.invalidatePage(vpn, pcid);
                ref.invalidatePage(vpn, pcid);
            } else {
                // Narrow, half of them straddling a huge base.
                Vpn start = randomVpn();
                if (roll < 94)
                    start = regionBase() - rng.nextBounded(4);
                const Vpn end = start + rng.nextBounded(8);
                const Pcid pcid = randomPcid();
                tlb.invalidateRange(start, end, pcid);
                ref.invalidateRange(start, end, pcid);
            }
            ASSERT_EQ(got.log, ref.log);
            got.log.clear();
            ref.log.clear();
            ASSERT_EQ(tlb.size(), ref.size());
            ASSERT_EQ(tlb.hugeSize(), ref.hugeSize());
            ASSERT_EQ(tlb.l1Hits(), ref.l1Hits);
            ASSERT_EQ(tlb.l2Hits(), ref.l2Hits);
            ASSERT_EQ(tlb.misses(), ref.misses);
            ASSERT_EQ(tlb.flushes(), ref.flushes);
        }
        // The mix reached every path it exists to compare.
        EXPECT_GT(ref.l1Hits, 0u);
        EXPECT_GT(ref.l2Hits, 0u);
        EXPECT_GT(ref.misses, 0u);
        EXPECT_GT(ref.flushes, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TlbMatchesReference,
    ::testing::Values(std::make_tuple(1u, 1u, 1u),
                      std::make_tuple(2u, 3u, 2u),
                      std::make_tuple(4u, 8u, 4u),
                      std::make_tuple(64u, 512u, 32u),
                      std::make_tuple(64u, 1024u, 32u)));

} // namespace
} // namespace latr
