/**
 * @file
 * Per-core two-level TLB model. Capacities follow table 3 of the
 * paper (64-entry L1 D-TLB, 512/1024-entry L2 STLB), entries are
 * tagged with a PCID, and the usual x86 operations are provided:
 * INVLPG of a single page, a full flush (CR3 write), and PCID-
 * selective flushes. An optional listener observes every insertion
 * and removal, which the invariant checker uses to prove the paper's
 * reuse invariant.
 *
 * Each level is a fixed-capacity slot array allocated once at
 * construction: true-LRU order is an intrusive prev/next index chain
 * through the slots, and lookup is an open-addressing (linear probe,
 * backward-shift deletion) index table — the hottest simulator path
 * performs zero heap allocation after the TLB is built.
 */

#ifndef LATR_HW_TLB_HH_
#define LATR_HW_TLB_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace latr
{

class TraceRecorder;

/** Observes TLB content changes (used by the invariant checker). */
class TlbListener
{
  public:
    virtual ~TlbListener() = default;

    /** Called when a translation enters the TLB (either level). */
    virtual void onTlbInsert(CoreId core, Vpn vpn, Pfn pfn, Pcid pcid) = 0;

    /**
     * Called when a translation leaves the TLB entirely (it is in
     * neither level anymore).
     */
    virtual void onTlbRemove(CoreId core, Vpn vpn, Pfn pfn, Pcid pcid) = 0;
};

/** Outcome of a TLB lookup. */
enum class TlbResult
{
    HitL1,  ///< found in the L1 D-TLB
    HitL2,  ///< found in the L2 STLB (promoted to L1)
    Miss,   ///< page walk required
};

/**
 * A two-level, per-core TLB. Both levels are fully associative with
 * true LRU replacement; L1 victims spill into L2, L2 victims leave
 * the TLB. Lookups and insertions are keyed by (PCID, VPN).
 */
class Tlb
{
  public:
    /**
     * @param core owning core id (reported to the listener).
     * @param l1_entries L1 capacity (64 on both paper machines).
     * @param l2_entries L2 capacity.
     * @param huge_entries capacity of the separate 2 MiB-entry
     *        array (32, as on the paper's Haswell/Ivy Bridge parts).
     */
    Tlb(CoreId core, unsigned l1_entries, unsigned l2_entries,
        unsigned huge_entries = 32);

    Tlb(const Tlb &) = delete;
    Tlb &operator=(const Tlb &) = delete;

    /** Attach @p listener as the sole observer (nullptr detaches all). */
    void
    setListener(TlbListener *listener)
    {
        listeners_.clear();
        if (listener)
            listeners_.push_back(listener);
    }

    /**
     * Attach an additional observer alongside any already present
     * (the invariant checker and the staleness oracle both mirror
     * TLB contents).
     */
    void
    addListener(TlbListener *listener)
    {
        if (listener)
            listeners_.push_back(listener);
    }

    /**
     * Attach the trace recorder (nullptr to detach). Flushes and
     * range invalidations emit instants; lookups stay silent (they
     * are the simulator's hottest path).
     */
    void setTracer(TraceRecorder *trace) { trace_ = trace; }

    /**
     * Look up @p vpn under @p pcid. On an L2 hit the entry is
     * promoted to L1.
     * @param pfn_out receives the frame on a hit.
     * @param writable_out receives the cached write permission on a
     *        hit (x86 TLBs cache the W bit; a write through a
     *        read-only entry forces a re-walk).
     */
    TlbResult lookup(Vpn vpn, Pcid pcid, Pfn *pfn_out = nullptr,
                     bool *writable_out = nullptr,
                     bool *huge_out = nullptr);

    /** True if the translation is cached (no LRU side effects). */
    bool probe(Vpn vpn, Pcid pcid) const;

    /**
     * Like probe(), but also reports the cached frame so callers can
     * match on the exact (vpn → pfn) translation. PredictivePolicy's
     * verification probes match the frame: a vpn that was re-mapped
     * to a fresh frame since the free is not a stale hit.
     */
    bool probePfn(Vpn vpn, Pcid pcid, Pfn *pfn_out) const;

    /**
     * probePfn() for the 2 MiB array: reports the base frame of the
     * huge entry covering @p vpn, if any.
     */
    bool probeHugePfn(Vpn vpn, Pcid pcid, Pfn *pfn_out) const;

    /** Install a translation (after a page walk). */
    void insert(Vpn vpn, Pfn pfn, Pcid pcid, bool writable = true);

    /**
     * Install a 2 MiB translation in the huge-entry array. The
     * listener sees it keyed by the huge region's base frame.
     */
    void insertHuge(Vpn base_vpn, Pfn base_pfn, Pcid pcid,
                    bool writable = true);

    /** True if a huge entry covers @p vpn (no LRU side effects). */
    bool probeHuge(Vpn vpn, Pcid pcid) const;

    /** INVLPG: drop one page's translation under @p pcid. */
    void invalidatePage(Vpn vpn, Pcid pcid);

    /**
     * Drop every translation for pages in [start_vpn, end_vpn].
     * Adaptive: when the range is narrower than a level's occupancy
     * it probes each VPN directly; otherwise it scans the level.
     */
    void invalidateRange(Vpn start_vpn, Vpn end_vpn, Pcid pcid);

    /** Drop every translation tagged @p pcid. */
    void invalidatePcid(Pcid pcid);

    /** Full flush (CR3 write): drop everything. */
    void flushAll();

    /** Number of valid entries across all arrays. */
    std::size_t
    size() const
    {
        return l1_.size() + l2_.size() + huge_.size();
    }

    /** Number of valid 2 MiB entries. */
    std::size_t hugeSize() const { return huge_.size(); }

    /// @name Stats
    /// @{
    std::uint64_t l1Hits() const { return l1Hits_; }
    std::uint64_t l2Hits() const { return l2Hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t flushes() const { return flushes_; }
    /// @}

  private:
    struct Key
    {
        Vpn vpn;
        Pcid pcid;

        bool
        operator==(const Key &o) const
        {
            return vpn == o.vpn && pcid == o.pcid;
        }
    };

    struct Entry
    {
        Key key;
        Pfn pfn;
        bool writable;
    };

    /**
     * One fully associative LRU level: a slot array sized once at
     * construction, an intrusive MRU→LRU index chain through the
     * slots, and a linear-probe index table at ≤50% load. No member
     * allocates after the constructor, and the constructor writes no
     * slot: inserts reuse freed slots, else take the next never-used
     * one from a cursor.
     */
    class Level
    {
      public:
        explicit Level(unsigned capacity);

        bool contains(const Key &k) const { return findSlot(k) != kNil; }

        /** Find and touch (move to MRU). @return entry or nullptr. */
        const Entry *touch(const Key &k);

        /** Find without LRU update. */
        const Entry *peek(const Key &k) const;

        /**
         * Insert; if full, the LRU entry is evicted into
         * @p victim_out and true is returned in *had_victim.
         */
        void insert(const Entry &e, Entry *victim_out, bool *had_victim);

        /** Remove by key. @return true if present. */
        bool remove(const Key &k, Entry *removed_out = nullptr);

        std::size_t size() const { return size_; }

        /** Invoke @p fn on each entry, MRU first; no removal in fn. */
        template <typename Fn>
        void
        forEach(Fn &&fn) const
        {
            for (std::uint16_t i = head_; i != kNil;
                 i = slots_[i].next)
                fn(slots_[i].entry);
        }

        /**
         * Remove every entry matching @p pred, MRU-to-LRU order,
         * invoking @p on_remove with a copy of each removed entry.
         */
        template <typename Pred, typename OnRemove>
        void
        removeMatching(Pred &&pred, OnRemove &&on_remove)
        {
            std::uint16_t i = head_;
            while (i != kNil) {
                const std::uint16_t next = slots_[i].next;
                if (pred(slots_[i].entry)) {
                    const Entry removed = slots_[i].entry;
                    eraseSlot(i);
                    on_remove(removed);
                }
                i = next;
            }
        }

        /**
         * Drop every entry in O(occupancy): reset the live entries'
         * table cells (the whole table once that is cheaper) and
         * splice the LRU chain onto the free list.
         */
        void clear();

      private:
        static constexpr std::uint16_t kNil = 0xffff;

        struct Slot
        {
            Entry entry;
            /** LRU chain while live; next doubles as free-list link. */
            std::uint16_t prev;
            std::uint16_t next;
        };

        static std::uint32_t
        hashOf(const Key &k)
        {
            std::uint64_t h =
                (static_cast<std::uint64_t>(k.pcid) << 48) ^ k.vpn;
            h *= 0x9e3779b97f4a7c15ULL; // Fibonacci mix
            return static_cast<std::uint32_t>(h >> 32);
        }

        /** Probe the index table. @return slot index or kNil. */
        std::uint16_t findSlot(const Key &k) const;

        /** Table cell that points at live slot @p i. */
        std::uint32_t cellOf(std::uint16_t i) const;

        /** Unlink slot @p i from the LRU chain. */
        void unlink(std::uint16_t i);

        /** Link slot @p i at the MRU head. */
        void linkFront(std::uint16_t i);

        /** Erase the table entry pointing at slot @p i (backward shift). */
        void tableErase(std::uint16_t i);

        /** Remove slot @p i entirely (table, chain, free list). */
        void eraseSlot(std::uint16_t i);

        unsigned capacity_;
        std::uint32_t mask_; // table size - 1 (power of two)
        std::size_t size_ = 0;
        std::uint16_t head_ = kNil; // MRU
        std::uint16_t tail_ = kNil; // LRU
        std::uint16_t freeHead_ = kNil;
        /** Slots from here up have never held an entry. */
        std::uint16_t unused_ = 0;
        std::unique_ptr<Slot[]> slots_; // written when first used
        std::vector<std::uint16_t> table_; // slot index or kNil
    };

    void notifyInsert(const Entry &e);
    void notifyRemove(const Entry &e);

    /** invalidateRange over one 4 KiB level, probe or scan. */
    void invalidateRangeIn(Level &level, Vpn start_vpn, Vpn end_vpn,
                           Pcid pcid);

    CoreId core_;
    Level l1_;
    Level l2_;
    Level huge_; // separate 2 MiB-entry array
    std::vector<TlbListener *> listeners_;
    TraceRecorder *trace_ = nullptr;

    std::uint64_t l1Hits_ = 0;
    std::uint64_t l2Hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t flushes_ = 0;
};

} // namespace latr

#endif // LATR_HW_TLB_HH_
