/**
 * @file
 * A four-level, x86-64-style radix page table. Each level resolves
 * nine bits of the virtual page number; leaves hold PTEs with the
 * flag bits the paper's mechanisms manipulate: Present, Writable,
 * Accessed and Dirty (harvested by ABIS), and ProtNone (the NUMA-
 * hint state AutoNUMA uses to sample accesses).
 */

#ifndef LATR_MEM_PAGE_TABLE_HH_
#define LATR_MEM_PAGE_TABLE_HH_

#include <array>
#include <cstdint>
#include <map>
#include <memory>

#include "sim/types.hh"

namespace latr
{

/** PTE flag bits. */
enum PteFlag : std::uint8_t
{
    kPtePresent = 1 << 0,   ///< translation valid
    kPteWrite = 1 << 1,     ///< writable
    kPteAccessed = 1 << 2,  ///< set by hardware on access
    kPteDirty = 1 << 3,     ///< set by hardware on write
    kPteProtNone = 1 << 4,  ///< NUMA-hint: present but access faults
    kPteCow = 1 << 5,       ///< copy-on-write: write faults
    kPteHuge = 1 << 6,      ///< PMD-level 2 MiB mapping
};

/** A leaf page-table entry. */
struct Pte
{
    Pfn pfn = kPfnInvalid;
    std::uint8_t flags = 0;

    bool present() const { return flags & kPtePresent; }
    bool writable() const { return flags & kPteWrite; }
    bool accessed() const { return flags & kPteAccessed; }
    bool dirty() const { return flags & kPteDirty; }
    bool protNone() const { return flags & kPteProtNone; }
    bool cow() const { return flags & kPteCow; }
    bool huge() const { return flags & kPteHuge; }
};

/**
 * One process' page table. Nodes are allocated lazily on first map
 * and freed only with the table (matching Linux, which frees interior
 * nodes only at exit/unmap-large).
 */
class PageTable
{
  public:
    PageTable() = default;

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /**
     * Install a translation. Panics if a present mapping exists
     * (callers must unmap first; matching kernel behaviour where
     * double-mapping is a bug).
     */
    void map(Vpn vpn, Pfn pfn, std::uint8_t flags);

    /**
     * Remove a translation.
     * @return the old PTE; pte.present() is false if none existed.
     */
    Pte unmap(Vpn vpn);

    /**
     * Look up a PTE for modification; nullptr if no leaf exists.
     * Does not allocate.
     */
    Pte *find(Vpn vpn);

    /** Const lookup. */
    const Pte *find(Vpn vpn) const;

    /**
     * Simulate a hardware walk: looks up @p vpn and, when present
     * and not prot-none, sets Accessed (and Dirty when
     * @p is_write). @return the PTE or nullptr.
     */
    Pte *walkHardware(Vpn vpn, bool is_write);

    /** Set flag bits on an existing present PTE. */
    void setFlags(Vpn vpn, std::uint8_t flags);

    /** Clear flag bits on an existing present PTE. */
    void clearFlags(Vpn vpn, std::uint8_t flags);

    /**
     * Invoke @p fn on every present PTE in [start_vpn, end_vpn], in
     * ascending VPN order. The callback may modify the PTE but must
     * not map/unmap. Only allocated subtrees overlapping the range
     * are walked, and every level's loop is clamped to the range —
     * a 4-page munmap touches one leaf, not the whole table. This is
     * the kernel's inner loop for unmap/protect/NUMA sweeps, so it
     * is a template: the callback inlines instead of going through
     * std::function.
     */
    template <typename Fn>
    void
    forEachPresent(Vpn start_vpn, Vpn end_vpn, Fn &&fn)
    {
        const unsigned s3 = index(start_vpn, 3);
        const unsigned e3 = index(end_vpn, 3);
        for (unsigned i3 = s3; i3 <= e3; ++i3) {
            auto &l3 = root_.children[i3];
            if (!l3)
                continue;
            const bool lo3 = i3 == s3, hi3 = i3 == e3;
            const unsigned s2 = lo3 ? index(start_vpn, 2) : 0;
            const unsigned e2 = hi3 ? index(end_vpn, 2) : kFanout - 1;
            for (unsigned i2 = s2; i2 <= e2; ++i2) {
                auto &l2 = l3->children[i2];
                if (!l2)
                    continue;
                const bool lo2 = lo3 && i2 == s2;
                const bool hi2 = hi3 && i2 == e2;
                const unsigned s1 = lo2 ? index(start_vpn, 1) : 0;
                const unsigned e1 =
                    hi2 ? index(end_vpn, 1) : kFanout - 1;
                for (unsigned i1 = s1; i1 <= e1; ++i1) {
                    auto &leaf = l2->children[i1];
                    if (!leaf)
                        continue;
                    const bool lo1 = lo2 && i1 == s1;
                    const bool hi1 = hi2 && i1 == e1;
                    const unsigned s0 =
                        lo1 ? index(start_vpn, 0) : 0;
                    const unsigned e0 =
                        hi1 ? index(end_vpn, 0) : kFanout - 1;
                    const Vpn base =
                        (static_cast<Vpn>(i3)
                         << (kBitsPerLevel * 3)) |
                        (static_cast<Vpn>(i2)
                         << (kBitsPerLevel * 2)) |
                        (static_cast<Vpn>(i1) << kBitsPerLevel);
                    for (unsigned i0 = s0; i0 <= e0; ++i0) {
                        Pte &pte = leaf->ptes[i0];
                        if (pte.present())
                            fn(base | i0, pte);
                    }
                }
            }
        }
    }

    /** Number of present leaf translations. */
    std::uint64_t presentPages() const { return present_; }

    /// @name 2 MiB (PMD-level) huge mappings
    /// @{

    /**
     * Install a huge mapping covering [base_vpn, base_vpn + 512).
     * @p base_vpn and @p base_pfn must be kHugePageSpan-aligned, and
     * no base-page mapping may exist in the range.
     */
    void mapHuge(Vpn base_vpn, Pfn base_pfn, std::uint8_t flags);

    /**
     * Remove a huge mapping.
     * @return the old entry; !present() if none existed.
     */
    Pte unmapHuge(Vpn base_vpn);

    /** Huge entry covering @p vpn (any page in the region). */
    Pte *findHuge(Vpn vpn);
    const Pte *findHuge(Vpn vpn) const;

    /** Present huge mappings. */
    std::uint64_t presentHugePages() const
    {
        return hugeEntries_.size();
    }

    /// @}

  private:
    static constexpr unsigned kBitsPerLevel = 9;
    static constexpr unsigned kFanout = 1 << kBitsPerLevel;
    static constexpr std::uint64_t kLevelMask = kFanout - 1;

    struct Leaf
    {
        std::array<Pte, kFanout> ptes{};
    };

    struct L2
    {
        std::array<std::unique_ptr<Leaf>, kFanout> children{};
    };

    struct L3
    {
        std::array<std::unique_ptr<L2>, kFanout> children{};
    };

    struct L4
    {
        std::array<std::unique_ptr<L3>, kFanout> children{};
    };

    static unsigned
    index(Vpn vpn, unsigned level)
    {
        // level 3 = top (L4 table), level 0 = leaf index.
        return static_cast<unsigned>(
            (vpn >> (kBitsPerLevel * level)) & kLevelMask);
    }

    Pte *lookup(Vpn vpn, bool create);

    L4 root_;
    std::uint64_t present_ = 0;
    /** PMD-level mappings, keyed by kHugePageSpan-aligned base vpn. */
    std::map<Vpn, Pte> hugeEntries_;
};

} // namespace latr

#endif // LATR_MEM_PAGE_TABLE_HH_
