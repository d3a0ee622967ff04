/**
 * @file
 * Per-core two-level TLB model. Capacities follow table 3 of the
 * paper (64-entry L1 D-TLB, 512/1024-entry L2 STLB), entries are
 * tagged with a PCID, and the usual x86 operations are provided:
 * INVLPG of a single page, a full flush (CR3 write), and PCID-
 * selective flushes. An optional listener observes every insertion
 * and removal, which the coherence checker uses to prove the paper's
 * reuse invariant.
 *
 * Both 4 KiB levels live in one fixed-capacity slot array with one
 * open-addressing index (linear probe, backward-shift deletion) over
 * all of its slots; each level is an intrusive MRU→LRU chain, and a
 * per-slot tag names the chain. A lookup probes the index once, and
 * an L2 hit promotes (spilling the L1 LRU entry into L2) by relinking
 * chains, never by re-hashing: the index changes only when an entry
 * enters or leaves the TLB. The 2 MiB array is a one-chain store of
 * the same kind. The hottest simulator path performs zero heap
 * allocation after the TLB is built.
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

/** Observes TLB content changes (used by the coherence checker). */
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

    /**
     * Attach an observer alongside any already present (a Machine's
     * coherence checker; a benchmark may count inserts and removes
     * next to it).
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
        return base_.size(0) + base_.size(1) + huge_.size(0);
    }

    /** Number of valid 2 MiB entries. */
    std::size_t hugeSize() const { return huge_.size(0); }

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
     * One or two fully associative true-LRU levels sharing a slot
     * array sized once at construction and a linear-probe index of
     * 2× that many cells. Each level is an intrusive MRU→LRU chain
     * through the slots; a slot's tag names its chain. Level 0 victims
     * spill into level 1, and the last level's victims leave the
     * store. No member allocates after the constructor, and the
     * constructor writes no slot: inserts reuse freed slots, else
     * take the next never-used one from a cursor.
     */
    class Store
    {
      public:
        static constexpr std::uint16_t kNil = 0xffff;

        /** @param l2_capacity 0 for a one-level store. */
        Store(unsigned l1_capacity, unsigned l2_capacity);

        /** Probe the index. @return slot index or kNil. */
        std::uint16_t find(const Key &k) const;

        Entry &entry(std::uint16_t i) { return slots_[i].entry; }
        const Entry &
        entry(std::uint16_t i) const
        {
            return slots_[i].entry;
        }

        unsigned
        levelOf(std::uint16_t i) const
        {
            return slots_[i].level;
        }

        std::size_t
        size(unsigned level) const
        {
            return chains_[level].size;
        }

        /**
         * Move live slot @p i to the level-0 MRU end; when it comes
         * from level 1 into a full level 0, level 0's LRU entry moves
         * to the level-1 MRU end. The index is not written.
         */
        void touch(std::uint16_t i);

        /**
         * Insert @p e (its key must be absent) at the level-0 MRU
         * end. @return true if an entry left the store to make room;
         * it is copied into @p victim_out.
         */
        bool insert(const Entry &e, Entry *victim_out);

        /** Remove live slot @p i (index, chain, free list). */
        void erase(std::uint16_t i);

        /** Invoke @p fn on each entry of @p level, MRU first. */
        template <typename Fn>
        void
        forEach(unsigned level, Fn &&fn) const
        {
            for (std::uint16_t i = chains_[level].head; i != kNil;
                 i = slots_[i].next)
                fn(slots_[i].entry);
        }

        /**
         * Remove every entry of @p level matching @p pred, MRU to
         * LRU, invoking @p on_remove with a copy of each.
         */
        template <typename Pred, typename OnRemove>
        void
        removeMatching(unsigned level, Pred &&pred, OnRemove &&on_remove)
        {
            std::uint16_t i = chains_[level].head;
            while (i != kNil) {
                const std::uint16_t next = slots_[i].next;
                if (pred(slots_[i].entry)) {
                    const Entry removed = slots_[i].entry;
                    erase(i);
                    on_remove(removed);
                }
                i = next;
            }
        }

        /**
         * Drop every entry in O(occupancy): reset the live entries'
         * index cells (the whole index once that is cheaper) and
         * splice the chains onto the free list.
         */
        void clear();

      private:
        struct Slot
        {
            Entry entry;
            /** LRU chain while live; next doubles as free-list link. */
            std::uint16_t prev;
            std::uint16_t next;
            std::uint8_t level; // the chain it is on while live
        };

        struct Chain
        {
            std::uint16_t head = kNil; // MRU
            std::uint16_t tail = kNil; // LRU
            std::uint16_t size = 0;
            std::uint16_t capacity = 0;
        };

        /** Home cell of @p k: its hash scaled by multiply-shift. */
        std::uint32_t
        homeOf(const Key &k) const
        {
            std::uint64_t h =
                (static_cast<std::uint64_t>(k.pcid) << 48) ^ k.vpn;
            h *= 0x9e3779b97f4a7c15ULL; // Fibonacci mix
            return static_cast<std::uint32_t>(((h >> 32) * cells_) >> 32);
        }

        std::uint32_t
        nextCell(std::uint32_t i) const
        {
            return i + 1 == cells_ ? 0 : i + 1;
        }

        /** Index cell that points at live slot @p i. */
        std::uint32_t cellOf(std::uint16_t i) const;

        /** Unlink slot @p i from its chain. */
        void unlink(std::uint16_t i);

        /** Link slot @p i at the MRU end of @p level. */
        void linkFront(std::uint16_t i, unsigned level);

        /** Erase the cell pointing at slot @p i (backward shift). */
        void indexErase(std::uint16_t i);

        std::uint32_t cells_; // index size: 2× total capacity
        Chain chains_[2];
        std::uint16_t freeHead_ = kNil;
        /** Slots from here up have never held an entry. */
        std::uint16_t unused_ = 0;
        std::unique_ptr<Slot[]> slots_; // written when first used
        std::vector<std::uint16_t> index_; // slot index or kNil
    };

    void notifyInsert(const Entry &e);
    void notifyRemove(const Entry &e);

    /**
     * Install @p e in @p store: a remap reads as remove(old frame) +
     * insert(new frame), a permission-only change stays quiet.
     */
    void install(Store &store, const Entry &e);

    /** Remove live slot @p i of @p store and notify. */
    void drop(Store &store, std::uint16_t i);

    /**
     * Drop @p level's entries under @p pcid keyed first..last: probe
     * each key (@p step apart) when there are fewer keys than the
     * level holds, else scan the level.
     */
    void invalidateKeys(Store &store, unsigned level, Vpn first, Vpn last,
                        Vpn step, Pcid pcid);

    CoreId core_;
    Store base_; // both 4 KiB levels: L1 is level 0, L2 level 1
    Store huge_; // separate 2 MiB-entry array
    std::vector<TlbListener *> listeners_;
    TraceRecorder *trace_ = nullptr;

    std::uint64_t l1Hits_ = 0;
    std::uint64_t l2Hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t flushes_ = 0;
};

} // namespace latr

#endif // LATR_HW_TLB_HH_
