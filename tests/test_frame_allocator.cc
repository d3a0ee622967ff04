// Unit tests for the physical frame allocator.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "mem/frame_allocator.hh"
#include "sim/rng.hh"

namespace latr
{
namespace
{

class CountingListener : public FrameListener
{
  public:
    void onFrameAlloc(Pfn) override { ++allocs; }
    void onFrameFree(Pfn) override { ++frees; }

    int allocs = 0;
    int frees = 0;
};

TEST(FrameAllocator, AllocPrefersRequestedNode)
{
    FrameAllocator fa(2, 100);
    Pfn a = fa.alloc(0);
    Pfn b = fa.alloc(1);
    EXPECT_EQ(fa.nodeOf(a), 0u);
    EXPECT_EQ(fa.nodeOf(b), 1u);
}

TEST(FrameAllocator, AllocStartsWithRefcountOne)
{
    FrameAllocator fa(1, 10);
    Pfn a = fa.alloc(0);
    EXPECT_EQ(fa.refcount(a), 1u);
    EXPECT_EQ(fa.allocatedFrames(), 1u);
}

TEST(FrameAllocator, PutReturnsFrameToPool)
{
    FrameAllocator fa(1, 10);
    Pfn a = fa.alloc(0);
    EXPECT_EQ(fa.freeFrames(0), 9u);
    fa.put(a);
    EXPECT_EQ(fa.freeFrames(0), 10u);
    EXPECT_EQ(fa.refcount(a), 0u);
    EXPECT_EQ(fa.allocatedFrames(), 0u);
}

TEST(FrameAllocator, GetPutRefcounting)
{
    FrameAllocator fa(1, 10);
    Pfn a = fa.alloc(0);
    fa.get(a);
    fa.get(a);
    EXPECT_EQ(fa.refcount(a), 3u);
    fa.put(a);
    fa.put(a);
    EXPECT_EQ(fa.refcount(a), 1u);
    EXPECT_EQ(fa.freeFrames(0), 9u); // still allocated
    fa.put(a);
    EXPECT_EQ(fa.freeFrames(0), 10u);
}

TEST(FrameAllocator, FallsBackToOtherNodesWhenExhausted)
{
    FrameAllocator fa(2, 2);
    fa.alloc(0);
    fa.alloc(0);
    Pfn c = fa.alloc(0); // node 0 empty; falls back to node 1
    EXPECT_NE(c, kPfnInvalid);
    EXPECT_EQ(fa.nodeOf(c), 1u);
}

TEST(FrameAllocator, ReturnsInvalidWhenFullyExhausted)
{
    FrameAllocator fa(2, 1);
    EXPECT_NE(fa.alloc(0), kPfnInvalid);
    EXPECT_NE(fa.alloc(0), kPfnInvalid);
    EXPECT_EQ(fa.alloc(0), kPfnInvalid);
}

TEST(FrameAllocator, FramesAreUniqueWhileHeld)
{
    FrameAllocator fa(2, 50);
    std::set<Pfn> seen;
    for (int i = 0; i < 100; ++i) {
        Pfn p = fa.alloc(i % 2);
        EXPECT_TRUE(seen.insert(p).second) << "duplicate frame " << p;
    }
}

TEST(FrameAllocator, FreedFrameIsReusable)
{
    FrameAllocator fa(1, 1);
    Pfn a = fa.alloc(0);
    fa.put(a);
    Pfn b = fa.alloc(0);
    EXPECT_EQ(a, b);
}

TEST(FrameAllocator, ListenerSeesLifecycle)
{
    FrameAllocator fa(1, 10);
    CountingListener listener;
    fa.addListener(&listener);
    Pfn a = fa.alloc(0);
    fa.get(a);
    fa.put(a); // refcount 1: no free event
    EXPECT_EQ(listener.allocs, 1);
    EXPECT_EQ(listener.frees, 0);
    fa.put(a);
    EXPECT_EQ(listener.frees, 1);
}

TEST(FrameAllocator, NodeOfPartitionsTheSpace)
{
    FrameAllocator fa(4, 100);
    EXPECT_EQ(fa.nodeOf(0), 0u);
    EXPECT_EQ(fa.nodeOf(99), 0u);
    EXPECT_EQ(fa.nodeOf(100), 1u);
    EXPECT_EQ(fa.nodeOf(399), 3u);
}

TEST(FrameAllocatorDeath, PutOnFreeFramePanics)
{
    FrameAllocator fa(1, 4);
    Pfn a = fa.alloc(0);
    fa.put(a);
    EXPECT_DEATH(fa.put(a), "free frame");
}

TEST(FrameAllocatorDeath, GetOnFreeFramePanics)
{
    FrameAllocator fa(1, 4);
    EXPECT_DEATH(fa.get(0), "free frame");
}

TEST(FrameAllocatorDeath, OutOfRangePfnPanics)
{
    FrameAllocator fa(1, 4);
    EXPECT_DEATH(fa.refcount(100), "out of range");
}

class AllocatorChurn : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AllocatorChurn, AllocFreeBalanceHoldsUnderChurn)
{
    const unsigned nodes = GetParam();
    FrameAllocator fa(nodes, 64);
    std::vector<Pfn> held;
    // Deterministic churn pattern.
    for (int round = 0; round < 500; ++round) {
        if (round % 3 != 2) {
            Pfn p = fa.alloc(round % nodes);
            if (p != kPfnInvalid)
                held.push_back(p);
        } else if (!held.empty()) {
            fa.put(held.back());
            held.pop_back();
        }
    }
    EXPECT_EQ(fa.allocatedFrames(), held.size());
    std::uint64_t free_total = 0;
    for (unsigned n = 0; n < nodes; ++n)
        free_total += fa.freeFrames(n);
    EXPECT_EQ(free_total + held.size(),
              static_cast<std::uint64_t>(nodes) * 64);
}

INSTANTIATE_TEST_SUITE_P(Nodes, AllocatorChurn,
                         ::testing::Values(1u, 2u, 4u, 8u));

/** Records listener traffic: (true, pfn) on alloc, (false, pfn) on free. */
class LoggingListener : public FrameListener
{
  public:
    void onFrameAlloc(Pfn pfn) override { log.emplace_back(true, pfn); }
    void onFrameFree(Pfn pfn) override { log.emplace_back(false, pfn); }

    std::vector<std::pair<bool, Pfn>> log;
};

/**
 * The explicit-list allocator: one LIFO vector per node holding every
 * free frame, pushed highest first at construction. FrameAllocator
 * must hand out frames in exactly this order.
 */
class ReferenceAllocator
{
  public:
    ReferenceAllocator(unsigned nodes, std::uint64_t frames_per_node)
        : nodes_(nodes), framesPerNode_(frames_per_node),
          freeLists_(nodes), refcounts_(nodes * frames_per_node, 0)
    {
        for (unsigned n = 0; n < nodes; ++n)
            for (std::uint64_t i = frames_per_node; i-- > 0;)
                freeLists_[n].push_back(n * frames_per_node + i);
    }

    Pfn
    alloc(NodeId node)
    {
        for (unsigned i = 0; i < nodes_; ++i) {
            auto &list = freeLists_[(node + i) % nodes_];
            if (list.empty())
                continue;
            const Pfn pfn = list.back();
            list.pop_back();
            return claim(pfn);
        }
        return kPfnInvalid;
    }

    Pfn
    allocLowest(NodeId node)
    {
        auto &list = freeLists_[node];
        if (list.empty())
            return kPfnInvalid;
        auto it = std::min_element(list.begin(), list.end());
        const Pfn pfn = *it;
        *it = list.back();
        list.pop_back();
        return claim(pfn);
    }

    Pfn
    allocHuge(NodeId node)
    {
        const Pfn node_base = node * framesPerNode_;
        for (Pfn base = node_base;
             base + kHugePageSpan <= node_base + framesPerNode_;
             base += kHugePageSpan) {
            const Pfn end = base + kHugePageSpan;
            if (std::any_of(refcounts_.begin() + base,
                            refcounts_.begin() + end,
                            [](std::uint32_t r) { return r != 0; }))
                continue;
            std::erase_if(freeLists_[node], [&](Pfn f) {
                return f >= base && f < end;
            });
            for (Pfn f = base; f < end; ++f)
                claim(f);
            return base;
        }
        return kPfnInvalid;
    }

    void get(Pfn pfn) { ++refcounts_[pfn]; }

    void
    put(Pfn pfn)
    {
        if (--refcounts_[pfn] == 0) {
            --allocated_;
            log.emplace_back(false, pfn);
            freeLists_[pfn / framesPerNode_].push_back(pfn);
        }
    }

    void
    putHuge(Pfn base)
    {
        for (Pfn f = base; f < base + kHugePageSpan; ++f)
            put(f);
    }

    std::uint32_t refcount(Pfn pfn) const { return refcounts_[pfn]; }
    std::uint64_t freeFrames(NodeId n) const { return freeLists_[n].size(); }
    std::uint64_t allocatedFrames() const { return allocated_; }

    std::vector<std::pair<bool, Pfn>> log;

  private:
    Pfn
    claim(Pfn pfn)
    {
        refcounts_[pfn] = 1;
        ++allocated_;
        log.emplace_back(true, pfn);
        return pfn;
    }

    unsigned nodes_;
    std::uint64_t framesPerNode_;
    std::vector<std::vector<Pfn>> freeLists_;
    std::vector<std::uint32_t> refcounts_;
    std::uint64_t allocated_ = 0;
};

struct AllocatorShape
{
    unsigned nodes;
    std::uint64_t framesPerNode;
};

class AllocatorMatchesReference
    : public ::testing::TestWithParam<AllocatorShape>
{
};

TEST_P(AllocatorMatchesReference, SeededOperationMixes)
{
    const auto [nodes, per_node] = GetParam();
    const Pfn total = nodes * per_node;
    std::uint64_t exhausted = 0;
    std::uint64_t huge_ok = 0;
    std::uint64_t huge_failed = 0;
    std::uint64_t lowest_ok = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        FrameAllocator fa(nodes, per_node);
        ReferenceAllocator ref(nodes, per_node);
        LoggingListener listener;
        fa.addListener(&listener);
        Rng rng(seed);
        std::vector<Pfn> refs; // one entry per reference on a base frame
        std::vector<Pfn> huge; // huge runs held whole
        auto take = [&](std::vector<Pfn> &v) {
            const std::size_t i = rng.nextBounded(v.size());
            const Pfn pfn = v[i];
            v[i] = v.back();
            v.pop_back();
            return pfn;
        };
        // Fill until an alloc fails, then drain to a quarter full:
        // every run reaches exhaustion and comes back from it.
        bool filling = true;
        for (int op = 0; op < 4000; ++op) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                         std::to_string(op));
            if (!filling && fa.allocatedFrames() < total / 4)
                filling = true;
            // Cumulative percentages of alloc, allocLowest, allocHuge,
            // get, put and putHuge; the rest splits a huge run.
            static constexpr unsigned kFill[] = {55, 65, 75, 80, 95, 98};
            static constexpr unsigned kDrain[] = {10, 13, 16, 20, 80, 95};
            const unsigned *mix = filling ? kFill : kDrain;
            const std::uint64_t roll = rng.nextBounded(100);
            const auto node = static_cast<NodeId>(rng.nextBounded(nodes));
            Pfn got = kPfnInvalid;
            if (roll < mix[0]) {
                got = fa.alloc(node);
                ASSERT_EQ(got, ref.alloc(node));
                if (got == kPfnInvalid) {
                    ++exhausted;
                    filling = false;
                } else {
                    refs.push_back(got);
                }
            } else if (roll < mix[1]) {
                got = fa.allocLowest(node);
                ASSERT_EQ(got, ref.allocLowest(node));
                if (got != kPfnInvalid) {
                    refs.push_back(got);
                    ++lowest_ok;
                }
            } else if (roll < mix[2]) {
                got = fa.allocHuge(node);
                ASSERT_EQ(got, ref.allocHuge(node));
                if (got == kPfnInvalid) {
                    ++huge_failed;
                } else {
                    huge.push_back(got);
                    ++huge_ok;
                }
            } else if (roll < mix[3]) {
                if (refs.empty())
                    continue;
                got = refs[rng.nextBounded(refs.size())];
                fa.get(got);
                ref.get(got);
                refs.push_back(got);
            } else if (roll < mix[4]) {
                if (refs.empty())
                    continue;
                got = take(refs);
                fa.put(got);
                ref.put(got);
            } else if (roll < mix[5]) {
                if (huge.empty())
                    continue;
                got = take(huge);
                fa.putHuge(got);
                ref.putHuge(got);
            } else {
                // Break a huge run into base references, which the
                // puts above then free out of order: fragmentation.
                if (huge.empty())
                    continue;
                got = take(huge);
                for (Pfn f = got; f < got + kHugePageSpan; ++f)
                    refs.push_back(f);
            }
            ASSERT_EQ(listener.log, ref.log);
            listener.log.clear();
            ref.log.clear();
            if (got != kPfnInvalid) {
                ASSERT_EQ(fa.refcount(got), ref.refcount(got));
            }
            for (NodeId n = 0; n < nodes; ++n)
                ASSERT_EQ(fa.freeFrames(n), ref.freeFrames(n)) << n;
            ASSERT_EQ(fa.allocatedFrames(), ref.allocatedFrames());
        }
        for (Pfn f = 0; f < total; ++f)
            ASSERT_EQ(fa.refcount(f), ref.refcount(f)) << f;
    }
    // The mix reached every path it is meant to cover.
    EXPECT_GT(exhausted, 0u);
    EXPECT_GT(huge_ok, 0u);
    EXPECT_GT(huge_failed, 0u);
    EXPECT_GT(lowest_ok, 0u);
}

// Multi-node sizes are multiples of kHugePageSpan, so every node
// starts on an aligned frame (AllocHugeIsGloballyAlignedOnUnalignedNodes
// covers the other case).
INSTANTIATE_TEST_SUITE_P(
    Shapes, AllocatorMatchesReference,
    ::testing::Values(AllocatorShape{1, 700}, AllocatorShape{1, 1300},
                      AllocatorShape{2, 1024}, AllocatorShape{3, 1536}),
    [](const ::testing::TestParamInfo<AllocatorShape> &info) {
        return std::to_string(info.param.nodes) + "x" +
               std::to_string(info.param.framesPerNode);
    });

} // namespace
} // namespace latr
