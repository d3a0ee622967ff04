/**
 * @file
 * The physical memory allocator: per-NUMA-node free lists of 4 KiB
 * frames with reference counting (a simulated struct-page refcount).
 * LATR's lazy reclamation leans on the refcount: unmapped pages keep
 * a nonzero count until the background pass drops it, which is what
 * prevents premature reuse (paper section 4.2). A listener observes
 * allocation and final release so the coherence checker can prove no
 * frame is recycled while a TLB still maps it.
 */

#ifndef LATR_MEM_FRAME_ALLOCATOR_HH_
#define LATR_MEM_FRAME_ALLOCATOR_HH_

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace latr
{

/** Observes frame lifecycle (used by the coherence checker). */
class FrameListener
{
  public:
    virtual ~FrameListener() = default;

    /** A free frame was handed out (refcount 0 -> 1). */
    virtual void onFrameAlloc(Pfn pfn) = 0;

    /** A frame's refcount dropped to 0 and it returned to the pool. */
    virtual void onFrameFree(Pfn pfn) = 0;
};

/**
 * Per-node physical frame allocator. Frames are globally numbered;
 * node n owns [n * frames_per_node, (n + 1) * frames_per_node).
 */
class FrameAllocator
{
  public:
    /**
     * @param nodes number of NUMA nodes.
     * @param frames_per_node frames owned by each node.
     */
    FrameAllocator(unsigned nodes, std::uint64_t frames_per_node);

    FrameAllocator(const FrameAllocator &) = delete;
    FrameAllocator &operator=(const FrameAllocator &) = delete;

    /**
     * Attach an observer alongside any already present (a Machine's
     * coherence checker; a benchmark may count next to it).
     */
    void
    addListener(FrameListener *listener)
    {
        if (listener)
            listeners_.push_back(listener);
    }

    /**
     * Allocate one frame, preferring @p node; falls back to other
     * nodes in order of distance-agnostic id. The frame starts with
     * refcount 1.
     * @return the frame, or kPfnInvalid if memory is exhausted.
     */
    Pfn alloc(NodeId node);

    /**
     * Allocate the lowest-numbered free frame of @p node (no
     * fallback) — the compaction daemon's migration target. Linear
     * in the number of returned frames (the never-allocated ones
     * are sorted runs); meant for background daemons, not the fault
     * path.
     * @return the frame, or kPfnInvalid if the node is exhausted.
     */
    Pfn allocLowest(NodeId node);

    /**
     * Allocate a 2 MiB huge frame on @p node: the lowest free,
     * globally kHugePageSpan-aligned run of kHugePageSpan base
     * frames. Every constituent frame gets refcount 1. The search
     * checks refcounts window by window up to each window's first
     * busy frame; claiming the run costs a binary search of the
     * never-allocated runs, plus one pass over the returned frames
     * only when some of the run had been returned. Fault-slow-path
     * and background use. Fragmentation makes this fail long before
     * the node is full (which is what the compaction daemon exists
     * to repair).
     * @return the base frame, or kPfnInvalid.
     */
    Pfn allocHuge(NodeId node);

    /** Release a huge frame allocated with allocHuge(). */
    void putHuge(Pfn base);

    /** Increment @p pfn's refcount (page shared by another mapping). */
    void get(Pfn pfn);

    /**
     * Decrement @p pfn's refcount; at zero the frame returns to its
     * node's free list (and the listener fires).
     */
    void put(Pfn pfn);

    /** Current refcount of @p pfn. */
    std::uint32_t refcount(Pfn pfn) const;

    /** Node that owns @p pfn. */
    NodeId nodeOf(Pfn pfn) const;

    /** Frames currently free on @p node. */
    std::uint64_t freeFrames(NodeId node) const;

    /** Frames currently allocated across all nodes. */
    std::uint64_t allocatedFrames() const { return allocated_; }

    std::uint64_t framesPerNode() const { return framesPerNode_; }
    unsigned nodes() const { return nodes_; }

  private:
    /**
     * One node's free frames. Their hand-out order is that of a
     * single LIFO list which started with every frame pushed
     * highest first: the never-allocated frames lie at its bottom,
     * highest first, and the frames put() back since lie on top.
     */
    struct NodeFree
    {
        /**
         * Never-allocated frames as disjoint ascending [lo, hi)
         * runs, highest run first, so the lowest one is
         * fresh.back().first. One run at construction.
         */
        std::vector<std::pair<Pfn, Pfn>> fresh;
        /** Frames returned by put(), most recent last. */
        std::vector<Pfn> returned;
    };

    void checkPfn(Pfn pfn) const;

    /** Hand out free frame @p pfn: refcount 0 -> 1, listeners fire. */
    Pfn claim(Pfn pfn);

    /** Remove and return the lowest never-allocated frame of @p nf. */
    static Pfn takeLowestFresh(NodeFree &nf);

    /**
     * Remove [lo, hi) from @p nf's never-allocated runs.
     * @return how many of its frames were never allocated.
     */
    static std::uint64_t takeFresh(NodeFree &nf, Pfn lo, Pfn hi);

    void
    notifyAlloc(Pfn pfn)
    {
        for (FrameListener *l : listeners_)
            l->onFrameAlloc(pfn);
    }

    void
    notifyFree(Pfn pfn)
    {
        for (FrameListener *l : listeners_)
            l->onFrameFree(pfn);
    }

    unsigned nodes_;
    std::uint64_t framesPerNode_;
    std::vector<NodeFree> free_;           // per node
    std::vector<std::uint32_t> refcounts_; // per frame
    std::uint64_t allocated_ = 0;
    std::vector<FrameListener *> listeners_;
};

} // namespace latr

#endif // LATR_MEM_FRAME_ALLOCATOR_HH_
