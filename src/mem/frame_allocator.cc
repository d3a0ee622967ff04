#include "mem/frame_allocator.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace latr
{

FrameAllocator::FrameAllocator(unsigned nodes,
                               std::uint64_t frames_per_node)
    : nodes_(nodes), framesPerNode_(frames_per_node)
{
    if (nodes == 0 || frames_per_node == 0)
        fatal("frame allocator needs at least one node and one frame");
    free_.resize(nodes);
    refcounts_.assign(static_cast<std::size_t>(nodes) * frames_per_node,
                      0);
    // Low frames come out first, which keeps test output predictable.
    for (unsigned n = 0; n < nodes; ++n) {
        const Pfn base = static_cast<Pfn>(n) * frames_per_node;
        free_[n].fresh.emplace_back(base, base + frames_per_node);
    }
}

void
FrameAllocator::checkPfn(Pfn pfn) const
{
    if (pfn >= static_cast<Pfn>(nodes_) * framesPerNode_)
        panic("pfn %llu out of range",
              static_cast<unsigned long long>(pfn));
}

Pfn
FrameAllocator::claim(Pfn pfn)
{
    if (refcounts_[pfn] != 0)
        panic("free list held frame %llu with refcount %u",
              static_cast<unsigned long long>(pfn), refcounts_[pfn]);
    refcounts_[pfn] = 1;
    ++allocated_;
    notifyAlloc(pfn);
    return pfn;
}

Pfn
FrameAllocator::takeLowestFresh(NodeFree &nf)
{
    auto &run = nf.fresh.back();
    const Pfn pfn = run.first++;
    if (run.first == run.second)
        nf.fresh.pop_back();
    return pfn;
}

std::uint64_t
FrameAllocator::takeFresh(NodeFree &nf, Pfn lo, Pfn hi)
{
    // Runs are disjoint and stored highest first, so the ones that
    // overlap [lo, hi) are adjacent, after those that start above it.
    auto it = std::partition_point(
        nf.fresh.begin(), nf.fresh.end(),
        [hi](const std::pair<Pfn, Pfn> &r) { return r.first >= hi; });
    std::uint64_t taken = 0;
    while (it != nf.fresh.end() && it->second > lo) {
        taken += std::min(it->second, hi) - std::max(it->first, lo);
        if (it->first < lo && it->second > hi) {
            // The run's low part follows its high part; nothing
            // further down can overlap.
            const Pfn below = it->first;
            it->first = hi;
            nf.fresh.emplace(it + 1, below, lo);
            break;
        }
        if (it->first < lo) {
            it->second = lo;
            ++it;
        } else if (it->second > hi) {
            it->first = hi;
            ++it;
        } else {
            it = nf.fresh.erase(it);
        }
    }
    return taken;
}

Pfn
FrameAllocator::alloc(NodeId node)
{
    if (node >= nodes_)
        panic("alloc from nonexistent node %u", node);
    for (unsigned i = 0; i < nodes_; ++i) {
        NodeFree &nf = free_[(node + i) % nodes_];
        if (!nf.returned.empty()) {
            const Pfn pfn = nf.returned.back();
            nf.returned.pop_back();
            return claim(pfn);
        }
        if (!nf.fresh.empty())
            return claim(takeLowestFresh(nf));
    }
    return kPfnInvalid;
}

Pfn
FrameAllocator::allocLowest(NodeId node)
{
    if (node >= nodes_)
        panic("allocLowest from nonexistent node %u", node);
    NodeFree &nf = free_[node];
    auto &ret = nf.returned;
    const auto it = std::min_element(ret.begin(), ret.end());
    if (!nf.fresh.empty() &&
        (it == ret.end() || nf.fresh.back().first < *it)) {
        // The single list moved its top frame into the hole the
        // lowest never-allocated frame left, at the bottom of the
        // returned frames.
        if (!ret.empty())
            std::rotate(ret.begin(), ret.end() - 1, ret.end());
        return claim(takeLowestFresh(nf));
    }
    if (it == ret.end())
        return kPfnInvalid;
    const Pfn pfn = *it;
    *it = ret.back();
    ret.pop_back();
    return claim(pfn);
}

Pfn
FrameAllocator::allocHuge(NodeId node)
{
    if (node >= nodes_)
        panic("allocHuge from nonexistent node %u", node);
    const Pfn node_base = static_cast<Pfn>(node) * framesPerNode_;
    const Pfn node_end = node_base + framesPerNode_;
    // Scan runs aligned globally, as putHuge() requires, for one that
    // is fully free.
    const Pfn first =
        (node_base + kHugePageSpan - 1) / kHugePageSpan * kHugePageSpan;
    for (Pfn base = first; base + kHugePageSpan <= node_end;
         base += kHugePageSpan) {
        bool free_run = true;
        for (Pfn f = base; f < base + kHugePageSpan; ++f) {
            if (refcounts_[f] != 0) {
                free_run = false;
                break;
            }
        }
        if (!free_run)
            continue;
        // Claim the run: take it out of both parts of the free order.
        NodeFree &nf = free_[node];
        const Pfn end = base + kHugePageSpan;
        if (takeFresh(nf, base, end) < kHugePageSpan)
            std::erase_if(nf.returned,
                          [&](Pfn f) { return f >= base && f < end; });
        for (Pfn f = base; f < end; ++f)
            claim(f);
        return base;
    }
    return kPfnInvalid;
}

void
FrameAllocator::putHuge(Pfn base)
{
    checkPfn(base);
    if (base % kHugePageSpan != 0)
        panic("putHuge on unaligned frame %llu",
              static_cast<unsigned long long>(base));
    // Base frame first: the coherence checker keys huge TLB entries
    // by the base frame, so a premature release is caught there.
    for (Pfn f = base; f < base + kHugePageSpan; ++f)
        put(f);
}

void
FrameAllocator::get(Pfn pfn)
{
    checkPfn(pfn);
    if (refcounts_[pfn] == 0)
        panic("get() on free frame %llu",
              static_cast<unsigned long long>(pfn));
    ++refcounts_[pfn];
}

void
FrameAllocator::put(Pfn pfn)
{
    checkPfn(pfn);
    if (refcounts_[pfn] == 0)
        panic("put() on free frame %llu",
              static_cast<unsigned long long>(pfn));
    if (--refcounts_[pfn] == 0) {
        --allocated_;
        notifyFree(pfn);
        free_[nodeOf(pfn)].returned.push_back(pfn);
    }
}

std::uint32_t
FrameAllocator::refcount(Pfn pfn) const
{
    checkPfn(pfn);
    return refcounts_[pfn];
}

NodeId
FrameAllocator::nodeOf(Pfn pfn) const
{
    checkPfn(pfn);
    return static_cast<NodeId>(pfn / framesPerNode_);
}

std::uint64_t
FrameAllocator::freeFrames(NodeId node) const
{
    if (node >= nodes_)
        panic("freeFrames of nonexistent node %u", node);
    std::uint64_t count = free_[node].returned.size();
    for (const auto &[lo, hi] : free_[node].fresh)
        count += hi - lo;
    return count;
}

} // namespace latr
