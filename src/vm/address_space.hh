/**
 * @file
 * The simulated mm_struct: one process' address space. Owns the VMA
 * interval map, the page table, the mmap_sem, the PCID, and two
 * pieces of bookkeeping the TLB-coherence policies lean on:
 *
 *  - a *holdback* set of virtual ranges that mmap() must not hand
 *    out (LATR's lazy reclamation parks unmapped ranges here until
 *    every TLB entry is gone, paper section 4.2);
 *  - per-page *sharer masks* recording which cores faulted a page in
 *    (the simulated access-bit tracking that ABIS harvests).
 *
 * The address space performs pure bookkeeping: costs, locking, and
 * shootdowns are the kernel's and the policies' business.
 */

#ifndef LATR_VM_ADDRESS_SPACE_HH_
#define LATR_VM_ADDRESS_SPACE_HH_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "mem/frame_allocator.hh"
#include "mem/page_table.hh"
#include "sim/types.hh"
#include "vm/flat_page_map.hh"
#include "vm/sem.hh"
#include "vm/vma.hh"

namespace latr
{

/** Sentinel returned by mmapRegion/mremapRegion on failure. */
constexpr Addr kAddrInvalid = ~0ULL;

/**
 * Frames an operation took out of the page table, split by mapping
 * size. The holder owns them until releaseTo(): the coherence
 * policies release once no TLB can still reach them.
 */
struct FreedFrames
{
    /** (vpn, pfn) of every 4 KiB page that was present. */
    std::vector<std::pair<Vpn, Pfn>> pages;
    /** (base vpn, base pfn) of every present 2 MiB mapping. */
    std::vector<std::pair<Vpn, Pfn>> hugePages;

    /** The one 4 KiB page @p vpn, backed by @p pfn. */
    static FreedFrames
    page(Vpn vpn, Pfn pfn)
    {
        FreedFrames one;
        one.pages.emplace_back(vpn, pfn);
        return one;
    }

    /** 4 KiB pages covered: a 2 MiB mapping counts as 512. */
    std::uint64_t
    npages() const
    {
        return pages.size() + hugePages.size() * kHugePageSpan;
    }

    /** Entries cleared: a 2 MiB mapping is one PMD entry. */
    std::uint64_t
    pteCount() const
    {
        return pages.size() + hugePages.size();
    }

    bool empty() const { return pages.empty() && hugePages.empty(); }

    /** Call @p fn on every freed vpn, 4 KiB pages first. */
    template <typename Fn>
    void
    forEachVpn(Fn &&fn) const
    {
        for (const auto &page : pages)
            fn(page.first);
        for (const auto &page : hugePages)
            fn(page.first);
    }

    /** Return every frame to @p frames, 4 KiB pages first; clears. */
    void
    releaseTo(FrameAllocator &frames)
    {
        for (const auto &page : pages)
            frames.put(page.second);
        for (const auto &page : hugePages)
            frames.putHuge(page.second);
        pages.clear();
        hugePages.clear();
    }
};

/**
 * Pages collected by an unmap-like operation. munmap and madvise hand
 * over freed frames; mprotect, mremap and markCow list pages whose
 * entries changed but whose frames stay mapped.
 */
struct UnmapResult : FreedFrames
{
    /** Pages spanned by the request (present or not). */
    std::uint64_t spanned = 0;
    /** False if the range intersected no mapping. */
    bool ok = false;
};

/** One process' address space (the simulated mm_struct). */
class AddressSpace
{
  public:
    /**
     * @param id unique mm identifier.
     * @param pcid TLB tag for this address space (kPcidNone when
     *        PCIDs are disabled).
     * @param frames the physical allocator backing this space.
     */
    AddressSpace(MmId id, Pcid pcid, FrameAllocator &frames);

    ~AddressSpace();

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    MmId id() const { return id_; }
    Pcid pcid() const { return pcid_; }
    PageTable &pageTable() { return pt_; }
    const PageTable &pageTable() const { return pt_; }
    FrameAllocator &frames() { return frames_; }
    SimRwSem &mmapSem() { return mmapSem_; }

    /** Cores currently running tasks of this mm (scheduler-owned). */
    CpuMask &scheduledMask() { return scheduledMask_; }
    const CpuMask &scheduledMask() const { return scheduledMask_; }

    /**
     * Cores whose TLBs may still hold translations of this mm (the
     * simulated mm_cpumask): set when a task schedules in, cleared
     * by the scheduler when a core's TLB is fully flushed. With
     * PCIDs disabled this tracks scheduledMask closely; with PCIDs
     * it is a superset, because context switches stop flushing.
     * Shootdowns target this mask.
     */
    CpuMask &residencyMask() { return residencyMask_; }
    const CpuMask &residencyMask() const { return residencyMask_; }

    /// @name VMA operations
    /// @{

    /**
     * Map @p len bytes (page-rounded) with protection @p prot.
     * First-fit from the mmap base, skipping live VMAs and
     * held-back ranges.
     * @return the chosen base address or kAddrInvalid.
     */
    Addr mmapRegion(std::uint64_t len, std::uint8_t prot,
                    bool file_backed = false);

    /**
     * Map @p len bytes (rounded to 2 MiB) backed by huge pages: the
     * base is kHugePageSize-aligned and faults populate a whole
     * 2 MiB region at a time.
     */
    Addr mmapHugeRegion(std::uint64_t len, std::uint8_t prot);

    /**
     * Remove mappings in [addr, addr + len): splits or deletes
     * overlapping VMAs and unmaps present PTEs. Frames are *not*
     * released — ownership of the returned pages passes to the
     * caller (the coherence policy decides when to free).
     */
    UnmapResult munmapRegion(Addr addr, std::uint64_t len);

    /**
     * madvise(MADV_DONTNEED/MADV_FREE): drop page contents but keep
     * the VMAs. Same page-ownership contract as munmapRegion().
     */
    UnmapResult madviseRegion(Addr addr, std::uint64_t len);

    /**
     * Change protection on [addr, addr + len); splits VMAs as
     * needed and rewrites PTE write bits.
     * @return pages whose PTEs changed (still mapped!) for the
     *         mandatory synchronous shootdown.
     */
    UnmapResult mprotectRegion(Addr addr, std::uint64_t len,
                               std::uint8_t prot);

    /**
     * Move a mapping to a new range of @p new_len bytes. Present
     * pages are remapped (same frames, new addresses).
     * @param moved_out receives the old (vpn, pfn) pairs, which
     *        need a synchronous shootdown. Pages at or past
     *        @p new_len are unmapped, and their frames are the
     *        caller's to release.
     * @return the new base address or kAddrInvalid.
     */
    Addr mremapRegion(Addr old_addr, std::uint64_t old_len,
                      std::uint64_t new_len, UnmapResult *moved_out);

    /** Mark [addr, addr+len) copy-on-write (clears PTE write bits). */
    UnmapResult markCowRegion(Addr addr, std::uint64_t len);

    /** VMA containing @p addr, or nullptr. */
    const Vma *findVma(Addr addr) const;

    /** Number of live VMAs. */
    std::size_t vmaCount() const { return vmas_.size(); }

    /** All VMAs, keyed by start address. */
    const std::map<Addr, Vma> &vmas() const { return vmas_; }

    /// @}

    /// @name Lazy-reclamation holdback (LATR)
    /// @{

    /** Park [start, end) so mmapRegion() cannot hand it out. */
    void holdbackRange(Addr start, Addr end);

    /** Release a previously held-back range. */
    void releaseHoldback(Addr start, Addr end);

    /** True if any page of [start, end) is held back. */
    bool rangeHeldBack(Addr start, Addr end) const;

    /** Total bytes currently held back. */
    std::uint64_t heldBackBytes() const;

    /// @}

    /// @name Page content tags (consumed by the KSM daemon)
    /// @{

    /**
     * Tag @p vpn's current content. The deduplication daemon merges
     * pages with equal tags; callers own keeping tags in sync with
     * the data they model (there is no real page content in the
     * simulator).
     */
    void setContentTag(Vpn vpn, std::uint64_t tag);

    /** Content tag of @p vpn, or 0 if untagged. */
    std::uint64_t contentTag(Vpn vpn) const;

    /// @}

    /// @name Access-bit sharer tracking (harvested by ABIS)
    /// @{

    /** Record that @p core faulted @p vpn in. */
    void noteAccess(Vpn vpn, CoreId core);

    /** Cores that faulted @p vpn in since the last clear. */
    CpuMask sharersOf(Vpn vpn) const;

    /** Union of sharersOf() over every vpn in @p frames. */
    CpuMask sharersOf(const FreedFrames &frames) const;

    /** Forget sharer info for @p vpn (on unmap). */
    void clearSharers(Vpn vpn);

    /// @}

  private:
    /** Lowest address mmapRegion() will consider. */
    static constexpr Addr kMmapBase = 0x7000'0000'0000ULL >> 1;

    /**
     * First-fit search for a free, non-held-back gap of @p len: walks
     * the free gaps of cover_ upward from kMmapBase.
     */
    Addr findFreeRange(std::uint64_t len,
                       std::uint64_t alignment = kPageSize) const;

    /** Add @p delta to the coverage count of [start, end). */
    void cover(Addr start, Addr end, int delta);

    /** Index of the cover_ step holding @p addr. */
    std::size_t coverStepOf(Addr addr) const;

    /** holdback_[start] = end, with cover_ kept in step. */
    void setHoldback(Addr start, Addr end);

    /** Erase the held-back range keyed @p start, likewise. */
    void eraseHoldback(Addr start);

    /** Split VMAs so that @p addr is a VMA boundary (if mapped). */
    void splitAt(Addr addr);

    MmId id_;
    Pcid pcid_;
    FrameAllocator &frames_;
    PageTable pt_;
    SimRwSem mmapSem_;
    CpuMask scheduledMask_;
    CpuMask residencyMask_;

    std::map<Addr, Vma> vmas_;           // keyed by start
    std::map<Addr, Addr> holdback_;      // start -> end
    /** One step of cover_: the count holds up to the next start. */
    struct CoverStep
    {
        Addr start;
        std::uint32_t count;
    };

    /**
     * The free-gap index: how many VMAs and held-back ranges cover
     * each address, as a step function over the whole address space,
     * sorted by start and beginning at 0. Neighbouring steps never
     * hold equal counts, so each zero step is one maximal free gap,
     * and a run of adjacent occupied ranges is one step. Counts, not
     * a bit, because held-back ranges may overlap one another. A
     * vector, not a map: it stays short (tens of steps), and updates
     * then shift a few bytes instead of allocating nodes.
     */
    std::vector<CoverStep> cover_;
    // Flat slot arrays (vm/flat_page_map.hh): ABIS consults
    // sharers_ once per page on every munmap, so the probe chains
    // must be cache-friendly, not node-per-entry.
    FlatPageMap<CpuMask> sharers_;
    FlatPageMap<std::uint64_t> contentTags_;
};

} // namespace latr

#endif // LATR_VM_ADDRESS_SPACE_HH_
