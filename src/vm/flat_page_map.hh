/**
 * @file
 * FlatPageMap: an open-addressing page-keyed hash map in the style of
 * the TLB's slot array (hw/tlb.cc) — linear probing at most 50% load
 * with backward-shift deletion, so lookups walk short, contiguous,
 * cache-resident probe chains and no tombstones accumulate. Replaces
 * std::unordered_map for the per-page bookkeeping AddressSpace keeps
 * (ABIS sharer masks, KSM content tags) and the coherence checker's
 * per-frame counts and marks: those maps are consulted once per
 * unmapped page or TLB fill, and the node-per-entry layout of
 * unordered_map made each consult a dependent cache miss.
 */

#ifndef LATR_VM_FLAT_PAGE_MAP_HH_
#define LATR_VM_FLAT_PAGE_MAP_HH_

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace latr
{

/**
 * Open-addressing map from a page number (Vpn or Pfn) to @p V. @p V
 * must be cheaply default-constructible and movable; a
 * default-constructed V is the "absent" value semantically (find()
 * returns nullptr instead).
 */
template <typename V>
class FlatPageMap
{
  public:
    FlatPageMap() = default;

    /** Value of @p key, or nullptr. */
    const V *
    find(Vpn key) const
    {
        if (slots_.empty())
            return nullptr;
        std::size_t i = hashOf(key) & mask_;
        while (slots_[i].key != kEmptyKey) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            i = (i + 1) & mask_;
        }
        return nullptr;
    }

    V *
    find(Vpn key)
    {
        return const_cast<V *>(
            static_cast<const FlatPageMap *>(this)->find(key));
    }

    /** Value of @p key, default-inserting if absent. */
    V &
    operator[](Vpn key)
    {
        if (slots_.empty())
            grow();
        std::size_t i = hashOf(key) & mask_;
        while (slots_[i].key != kEmptyKey) {
            if (slots_[i].key == key)
                return slots_[i].value;
            i = (i + 1) & mask_;
        }
        // Only an insertion may grow the table: a present key is
        // found in one probe sequence whatever the load.
        if ((size_ + 1) * 2 > slots_.size()) {
            grow();
            i = hashOf(key) & mask_;
            while (slots_[i].key != kEmptyKey)
                i = (i + 1) & mask_;
        }
        slots_[i].key = key;
        ++size_;
        return slots_[i].value;
    }

    /** Remove @p key. @return true if it was present. */
    bool
    erase(Vpn key)
    {
        if (slots_.empty())
            return false;
        std::size_t i = hashOf(key) & mask_;
        while (slots_[i].key != kEmptyKey && slots_[i].key != key)
            i = (i + 1) & mask_;
        if (slots_[i].key == kEmptyKey)
            return false;
        // Backward-shift deletion (same scheme as Tlb::Store): walk
        // forward from the freed cell and pull back any entry whose
        // home position lies cyclically outside (i, j].
        std::size_t j = i;
        for (;;) {
            slots_[i].key = kEmptyKey;
            slots_[i].value = V{};
            std::size_t home;
            do {
                j = (j + 1) & mask_;
                if (slots_[j].key == kEmptyKey) {
                    --size_;
                    return true;
                }
                home = hashOf(slots_[j].key) & mask_;
            } while (i <= j ? (home > i && home <= j)
                            : (home > i || home <= j));
            slots_[i].key = slots_[j].key;
            slots_[i].value = std::move(slots_[j].value);
            i = j;
        }
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Call @p fn(key, value) on every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.key != kEmptyKey)
                fn(s.key, s.value);
    }

  private:
    /**
     * Key sentinel for an empty slot. Safe: a real Vpn is below
     * kUserVaLimit >> kPageShift (~2^35), and a Pfn below the frame
     * count, nowhere near ~0.
     */
    static constexpr Vpn kEmptyKey = ~0ULL;

    static std::size_t
    hashOf(Vpn key)
    {
        std::uint64_t x = key * 0x9E3779B97F4A7C15ULL;
        return static_cast<std::size_t>(x ^ (x >> 32));
    }

    struct Slot
    {
        Vpn key = kEmptyKey;
        V value{};
    };

    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(slots_);
        slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
        mask_ = slots_.size() - 1;
        for (Slot &s : old) {
            if (s.key == kEmptyKey)
                continue;
            std::size_t i = hashOf(s.key) & mask_;
            while (slots_[i].key != kEmptyKey)
                i = (i + 1) & mask_;
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace latr

#endif // LATR_VM_FLAT_PAGE_MAP_HH_
