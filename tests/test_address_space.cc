// Unit tests for AddressSpace: VMAs, mmap placement, unmap paths,
// holdback, and sharer tracking.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hh"
#include "vm/address_space.hh"

namespace latr
{
namespace
{

using Ranges = std::map<Addr, Addr>; // start -> end
using RangeList = std::vector<std::pair<Addr, Addr>>;

/** @p ranges in order, touching neighbours joined. */
RangeList
joined(const Ranges &ranges)
{
    RangeList out;
    for (const auto &[s, e] : ranges) {
        if (!out.empty() && out.back().second == s)
            out.back().second = e;
        else
            out.emplace_back(s, e);
    }
    return out;
}

/** Remove [lo, hi) from the disjoint @p ranges. */
void
subtract(Ranges &ranges, Addr lo, Addr hi)
{
    Ranges out;
    for (const auto &[s, e] : ranges) {
        if (e <= lo || s >= hi) {
            out[s] = e;
            continue;
        }
        if (s < lo)
            out[s] = lo;
        if (e > hi)
            out[hi] = e;
    }
    ranges.swap(out);
}

/** True if one range strictly encloses a later-starting one. */
bool
nested(const Ranges &ranges)
{
    Addr reach = 0;
    for (const auto &[s, e] : ranges) {
        if (e < reach)
            return true;
        reach = std::max(reach, e);
    }
    return false;
}

/**
 * Brute-force first-fit: the lowest @p align-aligned address at or
 * above @p floor whose [addr, addr + len) meets none of @p taken and
 * ends within the user VA limit. That address is the aligned floor
 * or the aligned end of some taken range.
 */
Addr
referenceFirstFit(const RangeList &taken, Addr floor, std::uint64_t len,
                  std::uint64_t align)
{
    auto align_up = [&](Addr a) { return (a + align - 1) & ~(align - 1); };
    std::vector<Addr> candidates{align_up(floor)};
    for (const auto &r : taken)
        if (r.second > floor)
            candidates.push_back(align_up(r.second));
    Addr best = kAddrInvalid;
    for (Addr c : candidates) {
        if (c >= best || c + len > kUserVaLimit)
            continue;
        if (std::none_of(taken.begin(), taken.end(), [&](const auto &r) {
                return r.first < c + len && c < r.second;
            }))
            best = c;
    }
    return best;
}

struct AddressSpaceFixture : public ::testing::Test
{
    AddressSpaceFixture() : frames(2, 1024), mm(1, 0, frames) {}

    /** Map + fault helper: demand-map every page with real frames. */
    void
    populate(Addr base, std::uint64_t pages)
    {
        for (std::uint64_t p = 0; p < pages; ++p) {
            Pfn f = frames.alloc(0);
            ASSERT_NE(f, kPfnInvalid);
            mm.pageTable().map(pageOf(base) + p, f,
                               kPteWrite | kPteAccessed);
        }
    }

    FrameAllocator frames;
    AddressSpace mm;
};

TEST_F(AddressSpaceFixture, MmapReturnsPageAlignedDistinctRegions)
{
    Addr a = mm.mmapRegion(3 * kPageSize, kProtRead | kProtWrite);
    Addr b = mm.mmapRegion(kPageSize, kProtRead);
    ASSERT_NE(a, kAddrInvalid);
    ASSERT_NE(b, kAddrInvalid);
    EXPECT_EQ(a % kPageSize, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(mm.vmaCount(), 2u);
    EXPECT_TRUE(b >= a + 3 * kPageSize || a >= b + kPageSize);
}

TEST_F(AddressSpaceFixture, MmapRoundsLengthUp)
{
    Addr a = mm.mmapRegion(100, kProtRead);
    const Vma *vma = mm.findVma(a);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->end - vma->start, kPageSize);
}

TEST_F(AddressSpaceFixture, MmapZeroLengthFails)
{
    EXPECT_EQ(mm.mmapRegion(0, kProtRead), kAddrInvalid);
}

TEST_F(AddressSpaceFixture, FindVmaBoundaries)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead);
    EXPECT_NE(mm.findVma(a), nullptr);
    EXPECT_NE(mm.findVma(a + 2 * kPageSize - 1), nullptr);
    EXPECT_EQ(mm.findVma(a + 2 * kPageSize), nullptr);
}

TEST_F(AddressSpaceFixture, MunmapWholeRegionCollectsPages)
{
    Addr a = mm.mmapRegion(4 * kPageSize, kProtRead | kProtWrite);
    populate(a, 4);
    UnmapResult r = mm.munmapRegion(a, 4 * kPageSize);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pages.size(), 4u);
    EXPECT_EQ(r.spanned, 4u);
    EXPECT_EQ(mm.vmaCount(), 0u);
    EXPECT_EQ(mm.pageTable().presentPages(), 0u);
}

TEST_F(AddressSpaceFixture, MunmapMiddleSplitsVma)
{
    Addr a = mm.mmapRegion(6 * kPageSize, kProtRead | kProtWrite);
    populate(a, 6);
    UnmapResult r = mm.munmapRegion(a + 2 * kPageSize, 2 * kPageSize);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pages.size(), 2u);
    EXPECT_EQ(mm.vmaCount(), 2u);
    EXPECT_NE(mm.findVma(a), nullptr);
    EXPECT_EQ(mm.findVma(a + 2 * kPageSize), nullptr);
    EXPECT_NE(mm.findVma(a + 4 * kPageSize), nullptr);
    EXPECT_EQ(mm.pageTable().presentPages(), 4u);
}

TEST_F(AddressSpaceFixture, MunmapSpanningTwoVmas)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead);
    Addr b = mm.mmapRegion(2 * kPageSize, kProtRead);
    ASSERT_EQ(b, a + 2 * kPageSize); // first-fit packs them
    UnmapResult r = mm.munmapRegion(a + kPageSize, 2 * kPageSize);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(mm.vmaCount(), 2u); // head of a, tail of b
}

TEST_F(AddressSpaceFixture, MunmapUnmappedRangeIsOkAndEmpty)
{
    UnmapResult r = mm.munmapRegion(0x5000'0000'0000ULL >> 1, kPageSize);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.pages.empty());
}

TEST_F(AddressSpaceFixture, MunmapInvalidRangeFails)
{
    UnmapResult r = mm.munmapRegion(0x1000, 0);
    EXPECT_FALSE(r.ok);
}

TEST_F(AddressSpaceFixture, FirstFitReusesFreedRange)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead);
    mm.mmapRegion(kPageSize, kProtRead);
    mm.munmapRegion(a, 2 * kPageSize);
    Addr c = mm.mmapRegion(kPageSize, kProtRead);
    EXPECT_EQ(c, a); // Linux-style immediate VA reuse
}

TEST_F(AddressSpaceFixture, MadviseKeepsVmaDropsPages)
{
    Addr a = mm.mmapRegion(4 * kPageSize, kProtRead | kProtWrite);
    populate(a, 4);
    UnmapResult r = mm.madviseRegion(a, 2 * kPageSize);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pages.size(), 2u);
    EXPECT_EQ(mm.vmaCount(), 1u);
    EXPECT_EQ(mm.pageTable().presentPages(), 2u);
    EXPECT_NE(mm.findVma(a), nullptr); // still mapped (VMA-wise)
}

TEST_F(AddressSpaceFixture, MprotectRewritesPteWriteBits)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead | kProtWrite);
    populate(a, 2);
    UnmapResult r = mm.mprotectRegion(a, 2 * kPageSize, kProtRead);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.pages.size(), 2u);
    EXPECT_FALSE(mm.pageTable().find(pageOf(a))->writable());
    EXPECT_EQ(mm.findVma(a)->prot, kProtRead);

    mm.mprotectRegion(a, kPageSize, kProtRead | kProtWrite);
    EXPECT_TRUE(mm.pageTable().find(pageOf(a))->writable());
    EXPECT_FALSE(
        mm.pageTable().find(pageOf(a) + 1)->writable());
    EXPECT_EQ(mm.vmaCount(), 2u); // split by the partial mprotect
}

TEST_F(AddressSpaceFixture, MremapMovesFramesToNewRange)
{
    Addr a = mm.mmapRegion(3 * kPageSize, kProtRead | kProtWrite);
    populate(a, 3);
    const Pfn f0 = mm.pageTable().find(pageOf(a))->pfn;
    UnmapResult moved;
    Addr b = mm.mremapRegion(a, 3 * kPageSize, 3 * kPageSize, &moved);
    ASSERT_NE(b, kAddrInvalid);
    EXPECT_NE(b, a);
    EXPECT_EQ(moved.pages.size(), 3u);
    EXPECT_EQ(mm.findVma(a), nullptr);
    ASSERT_NE(mm.pageTable().find(pageOf(b)), nullptr);
    EXPECT_EQ(mm.pageTable().find(pageOf(b))->pfn, f0);
    EXPECT_EQ(mm.pageTable().find(pageOf(a)), nullptr);
}

TEST_F(AddressSpaceFixture, MremapGrowKeepsOldFramesAndExtends)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead | kProtWrite);
    populate(a, 2);
    UnmapResult moved;
    Addr b = mm.mremapRegion(a, 2 * kPageSize, 4 * kPageSize, &moved);
    ASSERT_NE(b, kAddrInvalid);
    const Vma *vma = mm.findVma(b);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->pages(), 4u);
    EXPECT_EQ(mm.pageTable().presentPages(), 2u);
}

TEST_F(AddressSpaceFixture, MarkCowClearsWriteSetssCow)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead | kProtWrite);
    populate(a, 2);
    UnmapResult r = mm.markCowRegion(a, 2 * kPageSize);
    EXPECT_EQ(r.pages.size(), 2u);
    const Pte *pte = mm.pageTable().find(pageOf(a));
    EXPECT_TRUE(pte->cow());
    EXPECT_FALSE(pte->writable());
}

TEST_F(AddressSpaceFixture, HoldbackBlocksMmapReuse)
{
    Addr a = mm.mmapRegion(2 * kPageSize, kProtRead);
    mm.munmapRegion(a, 2 * kPageSize);
    mm.holdbackRange(a, a + 2 * kPageSize);
    Addr b = mm.mmapRegion(kPageSize, kProtRead);
    EXPECT_NE(b, a); // must skip the held-back range
    EXPECT_TRUE(mm.rangeHeldBack(a, a + kPageSize));
    EXPECT_EQ(mm.heldBackBytes(), 2 * kPageSize);

    mm.releaseHoldback(a, a + 2 * kPageSize);
    EXPECT_FALSE(mm.rangeHeldBack(a, a + kPageSize));
    // After release the first-fit allocator may reuse it again. The
    // new block b sits after a, so a is the first free gap.
    Addr c = mm.mmapRegion(kPageSize, kProtRead);
    EXPECT_EQ(c, a);
}

TEST_F(AddressSpaceFixture, HoldbackOverlapQueries)
{
    mm.holdbackRange(0x10000, 0x12000);
    EXPECT_TRUE(mm.rangeHeldBack(0x11000, 0x13000));
    EXPECT_TRUE(mm.rangeHeldBack(0x0f000, 0x10001));
    EXPECT_FALSE(mm.rangeHeldBack(0x12000, 0x13000));
    EXPECT_FALSE(mm.rangeHeldBack(0x0e000, 0x10000));
}

TEST_F(AddressSpaceFixture, SharersAccumulateAndClear)
{
    mm.noteAccess(50, 1);
    mm.noteAccess(50, 3);
    CpuMask s = mm.sharersOf(50);
    EXPECT_TRUE(s.test(1));
    EXPECT_TRUE(s.test(3));
    EXPECT_EQ(s.count(), 2u);
    mm.clearSharers(50);
    EXPECT_TRUE(mm.sharersOf(50).empty());
}

TEST_F(AddressSpaceFixture, MunmapKeepsSharersForThePolicy)
{
    // Sharer info must survive munmapRegion: the coherence policy
    // (ABIS) reads it to pick shootdown targets; the kernel clears
    // it afterwards via clearSharers().
    Addr a = mm.mmapRegion(kPageSize, kProtRead | kProtWrite);
    populate(a, 1);
    mm.noteAccess(pageOf(a), 2);
    mm.munmapRegion(a, kPageSize);
    EXPECT_TRUE(mm.sharersOf(pageOf(a)).test(2));
    mm.clearSharers(pageOf(a));
    EXPECT_TRUE(mm.sharersOf(pageOf(a)).empty());
}

TEST_F(AddressSpaceFixture, NestedHoldbackBlocksItsWholeRange)
{
    const Addr a = mm.mmapRegion(kPageSize, kProtRead);
    mm.munmapRegion(a, kPageSize);
    // [a+1, a+10) pages encloses [a+2, a+3), and [a, a+4) ends inside
    // it: the first page free of all three is a + 10.
    mm.holdbackRange(a, a + 4 * kPageSize);
    mm.holdbackRange(a + kPageSize, a + 10 * kPageSize);
    mm.holdbackRange(a + 2 * kPageSize, a + 3 * kPageSize);
    // Only [a+1, a+10) holds page a + 5, behind two later starts.
    EXPECT_TRUE(mm.rangeHeldBack(a + 5 * kPageSize, a + 6 * kPageSize));
    EXPECT_FALSE(
        mm.rangeHeldBack(a + 10 * kPageSize, a + 11 * kPageSize));
    EXPECT_EQ(mm.mmapRegion(kPageSize, kProtRead), a + 10 * kPageSize);
}

TEST(AddressSpaceFirstFit, MatchesBruteForceOverMirroredRanges)
{
    FrameAllocator frames(2, 1024);
    const Addr floor =
        AddressSpace(0, 0, frames).mmapRegion(kPageSize, kProtRead);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        AddressSpace mm(1, 0, frames);
        Rng rng(seed);
        Ranges mapped; // VMA coverage
        Ranges held;   // holdbackRange/releaseHoldback bookkeeping
        auto taken = [&] {
            RangeList all(mapped.begin(), mapped.end());
            all.insert(all.end(), held.begin(), held.end());
            return all;
        };
        // Page ranges around the mmap floor, some below or across it.
        auto random_range = [&](std::uint64_t max_pages) {
            const Addr s =
                floor - 16 * kPageSize + rng.nextBounded(1200) * kPageSize;
            return std::make_pair(
                s, s + rng.nextRange(1, max_pages) * kPageSize);
        };
        auto random_vma = [&]() -> const Vma * {
            if (mm.vmas().empty())
                return nullptr;
            auto it = mm.vmas().begin();
            std::advance(it, rng.nextBounded(mm.vmas().size()));
            return &it->second;
        };
        // Held-back ranges overlap freely but never nest. Callers
        // unmap only what mmap handed out, which is never held back,
        // so policies never nest them; nesting has its own test
        // (NestedHoldbackBlocksItsWholeRange).
        auto hold = [&](Addr lo, Addr hi) {
            Ranges after = held;
            after[lo] = std::max(after[lo], hi);
            if (nested(after))
                return;
            mm.holdbackRange(lo, hi);
            held.swap(after);
        };

        for (int op = 0; op < 1500; ++op) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                         std::to_string(op));
            switch (rng.nextBounded(6)) {
              case 0: {
                const std::uint64_t len = rng.nextRange(1, 24) * kPageSize;
                const Addr want =
                    referenceFirstFit(taken(), floor, len, kPageSize);
                ASSERT_EQ(mm.mmapRegion(len, kProtRead), want);
                mapped[want] = want + len;
                break;
              }
              case 1: {
                const std::uint64_t len =
                    rng.nextRange(1, 2) * kHugePageSize;
                const Addr want =
                    referenceFirstFit(taken(), floor, len, kHugePageSize);
                ASSERT_EQ(mm.mmapHugeRegion(len, kProtRead), want);
                mapped[want] = want + len;
                break;
              }
              case 2: {
                // A whole VMA or any range; LATR holds half of them back.
                auto [lo, hi] = random_range(32);
                const Vma *vma = random_vma();
                if (vma && rng.nextBool(0.6)) {
                    lo = vma->start;
                    hi = vma->end;
                }
                mm.munmapRegion(lo, hi - lo);
                subtract(mapped, lo, hi);
                if (rng.nextBool(0.5))
                    hold(lo, hi);
                break;
              }
              case 3: {
                const Vma *vma = random_vma();
                if (!vma)
                    break;
                const Addr lo =
                    vma->start + rng.nextBounded(vma->pages()) * kPageSize;
                const Addr hi =
                    lo + rng.nextRange(1, (vma->end - lo) >> kPageShift) *
                             kPageSize;
                const std::uint64_t len = rng.nextRange(1, 24) * kPageSize;
                const Addr want =
                    referenceFirstFit(taken(), floor, len, kPageSize);
                UnmapResult moved;
                ASSERT_EQ(mm.mremapRegion(lo, hi - lo, len, &moved), want);
                subtract(mapped, lo, hi);
                mapped[want] = want + len;
                break;
              }
              case 4: {
                const auto [lo, hi] = random_range(24);
                hold(lo, hi);
                break;
              }
              case 5: {
                // Release a held range whole, partly, or past its end.
                if (held.empty())
                    break;
                auto it = held.begin();
                std::advance(it, rng.nextBounded(held.size()));
                const Addr start = it->first;
                const Addr end = start + rng.nextRange(1, 32) * kPageSize;
                Ranges after = held;
                if (after[start] > end)
                    after[end] = after[start];
                after.erase(start);
                if (nested(after))
                    break;
                mm.releaseHoldback(start, end);
                held.swap(after);
                break;
              }
            }
            Ranges vmas;
            for (const auto &[start, vma] : mm.vmas())
                vmas[start] = vma.end;
            ASSERT_EQ(joined(vmas), joined(mapped));
            std::uint64_t held_bytes = 0;
            for (const auto &[s, e] : held)
                held_bytes += e - s;
            ASSERT_EQ(mm.heldBackBytes(), held_bytes);
        }
    }
}

} // namespace
} // namespace latr
