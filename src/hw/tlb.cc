#include "hw/tlb.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace latr
{

Tlb::Store::Store(unsigned l1_capacity, unsigned l2_capacity)
{
    const unsigned capacity = l1_capacity + l2_capacity;
    if (l1_capacity == 0 || capacity >= kNil)
        fatal("TLB capacity %u+%u out of range", l1_capacity,
              l2_capacity);
    chains_[0].capacity = static_cast<std::uint16_t>(l1_capacity);
    chains_[1].capacity = static_cast<std::uint16_t>(l2_capacity);
    cells_ = 2 * capacity; // ≤50% load
    index_.assign(cells_, kNil);
    slots_ = std::make_unique_for_overwrite<Slot[]>(capacity);
}

std::uint16_t
Tlb::Store::find(const Key &k) const
{
    std::uint32_t i = homeOf(k);
    while (index_[i] != kNil) {
        if (slots_[index_[i]].entry.key == k)
            return index_[i];
        i = nextCell(i);
    }
    return kNil;
}

void
Tlb::Store::unlink(std::uint16_t i)
{
    const Slot &s = slots_[i];
    Chain &c = chains_[s.level];
    if (s.prev != kNil)
        slots_[s.prev].next = s.next;
    else
        c.head = s.next;
    if (s.next != kNil)
        slots_[s.next].prev = s.prev;
    else
        c.tail = s.prev;
    --c.size;
}

void
Tlb::Store::linkFront(std::uint16_t i, unsigned level)
{
    Slot &s = slots_[i];
    Chain &c = chains_[level];
    s.level = static_cast<std::uint8_t>(level);
    s.prev = kNil;
    s.next = c.head;
    if (c.head != kNil)
        slots_[c.head].prev = i;
    else
        c.tail = i;
    c.head = i;
    ++c.size;
}

void
Tlb::Store::touch(std::uint16_t i)
{
    Chain &l1 = chains_[0];
    if (i == l1.head)
        return;
    unlink(i);
    // Only a promotion out of level 1 can find level 0 full.
    if (l1.size == l1.capacity) {
        const std::uint16_t spilled = l1.tail;
        unlink(spilled);
        linkFront(spilled, 1);
    }
    linkFront(i, 0);
}

std::uint32_t
Tlb::Store::cellOf(std::uint16_t slot) const
{
    std::uint32_t i = homeOf(slots_[slot].entry.key);
    while (index_[i] != slot)
        i = nextCell(i);
    return i;
}

void
Tlb::Store::indexErase(std::uint16_t slot)
{
    std::uint32_t i = cellOf(slot);
    // Backward-shift deletion keeps probe chains contiguous without
    // tombstones: walk forward from the freed cell and pull back any
    // entry whose home position lies cyclically outside (i, j].
    std::uint32_t j = i;
    for (;;) {
        index_[i] = kNil;
        std::uint32_t home;
        do {
            j = nextCell(j);
            if (index_[j] == kNil)
                return;
            home = homeOf(slots_[index_[j]].entry.key);
        } while (i <= j ? (home > i && home <= j)
                        : (home > i || home <= j));
        index_[i] = index_[j];
        i = j;
    }
}

void
Tlb::Store::erase(std::uint16_t i)
{
    indexErase(i);
    unlink(i);
    slots_[i].next = freeHead_;
    freeHead_ = i;
}

bool
Tlb::Store::insert(const Entry &e, Entry *victim_out)
{
    // A full level 0 spills its LRU entry into level 1; the last
    // level, when full, drops its LRU entry first.
    bool evicted = false;
    Chain &l1 = chains_[0];
    if (l1.size == l1.capacity) {
        const unsigned last = chains_[1].capacity != 0 ? 1 : 0;
        const Chain &bottom = chains_[last];
        if (bottom.size == bottom.capacity) {
            *victim_out = slots_[bottom.tail].entry;
            erase(bottom.tail);
            evicted = true;
        }
        if (last != 0) {
            const std::uint16_t spilled = l1.tail;
            unlink(spilled);
            linkFront(spilled, 1);
        }
    }
    // Freed slots first, then never-used ones in index order: the
    // order of a free list that started as 0, 1, ..., capacity - 1.
    std::uint16_t slot = freeHead_;
    if (slot != kNil)
        freeHead_ = slots_[slot].next;
    else
        slot = unused_++;
    slots_[slot].entry = e;
    linkFront(slot, 0);
    std::uint32_t pos = homeOf(e.key);
    while (index_[pos] != kNil)
        pos = nextCell(pos);
    index_[pos] = slot;
    return evicted;
}

void
Tlb::Store::clear()
{
    const std::size_t live = chains_[0].size + chains_[1].size;
    if (live == 0)
        return;
    // A fill writes 32 cells per cache line, while clearing one entry
    // by probe touches two lines (its slot and its cell): from one
    // entry per 64 cells on, one pass over the index is cheaper.
    const bool fill = live * 64 >= cells_;
    if (fill)
        std::fill(index_.begin(), index_.end(), kNil);
    // Nothing outside the store sees a slot index, so each chain
    // joins the free list as it stands.
    for (Chain &c : chains_) {
        if (c.size == 0)
            continue;
        if (!fill)
            for (std::uint16_t i = c.head; i != kNil; i = slots_[i].next)
                index_[cellOf(i)] = kNil;
        slots_[c.tail].next = freeHead_;
        freeHead_ = c.head;
        c.head = c.tail = kNil;
        c.size = 0;
    }
}

Tlb::Tlb(CoreId core, unsigned l1_entries, unsigned l2_entries,
         unsigned huge_entries)
    : core_(core), base_(l1_entries, l2_entries), huge_(huge_entries, 0)
{
    if (l1_entries == 0 || l2_entries == 0 || huge_entries == 0)
        fatal("TLB levels need nonzero capacity");
}

void
Tlb::notifyInsert(const Entry &e)
{
    for (TlbListener *l : listeners_)
        l->onTlbInsert(core_, e.key.vpn, e.pfn, e.key.pcid);
}

void
Tlb::notifyRemove(const Entry &e)
{
    for (TlbListener *l : listeners_)
        l->onTlbRemove(core_, e.key.vpn, e.pfn, e.key.pcid);
}

TlbResult
Tlb::lookup(Vpn vpn, Pcid pcid, Pfn *pfn_out, bool *writable_out,
            bool *huge_out)
{
    // The 2 MiB array covers whole regions; it wins when populated,
    // and its one level counts as L1.
    std::uint16_t i = huge_.size(0) != 0
                          ? huge_.find(Key{hugeBaseOf(vpn), pcid})
                          : Store::kNil;
    const bool huge = i != Store::kNil;
    if (huge_out)
        *huge_out = huge;
    Store &store = huge ? huge_ : base_;
    if (!huge)
        i = base_.find(Key{vpn, pcid});
    if (i == Store::kNil) {
        ++misses_;
        return TlbResult::Miss;
    }
    // An L2 hit is promoted into L1 and an L1 victim spills back into
    // L2; neither changes TLB membership, so no listener traffic.
    const bool l1 = store.levelOf(i) == 0;
    store.touch(i);
    const Entry &e = store.entry(i);
    if (pfn_out) // offset into the region under a 2 MiB entry
        *pfn_out = e.pfn + (vpn - e.key.vpn);
    if (writable_out)
        *writable_out = e.writable;
    ++(l1 ? l1Hits_ : l2Hits_);
    return l1 ? TlbResult::HitL1 : TlbResult::HitL2;
}

bool
Tlb::probe(Vpn vpn, Pcid pcid) const
{
    return base_.find(Key{vpn, pcid}) != Store::kNil ||
           probeHuge(vpn, pcid);
}

bool
Tlb::probeHuge(Vpn vpn, Pcid pcid) const
{
    return huge_.find(Key{hugeBaseOf(vpn), pcid}) != Store::kNil;
}

bool
Tlb::probePfn(Vpn vpn, Pcid pcid, Pfn *pfn_out) const
{
    const std::uint16_t i = base_.find(Key{vpn, pcid});
    if (i == Store::kNil)
        return probeHugePfn(vpn, pcid, pfn_out);
    *pfn_out = base_.entry(i).pfn;
    return true;
}

bool
Tlb::probeHugePfn(Vpn vpn, Pcid pcid, Pfn *pfn_out) const
{
    const std::uint16_t i = huge_.find(Key{hugeBaseOf(vpn), pcid});
    if (i == Store::kNil)
        return false;
    *pfn_out = huge_.entry(i).pfn;
    return true;
}

void
Tlb::install(Store &store, const Entry &e)
{
    const std::uint16_t i = store.find(e.key);
    if (i != Store::kNil) {
        // Refresh in place and touch: the entry reaches the L1 MRU end
        // from either level, as a remove and re-insert would put it,
        // without writing the index.
        const Entry old = store.entry(i);
        store.entry(i) = e;
        store.touch(i);
        if (old.pfn != e.pfn) {
            notifyRemove(old);
            notifyInsert(e);
        }
        return;
    }
    Entry victim;
    const bool evicted = store.insert(e, &victim);
    notifyInsert(e);
    if (evicted)
        notifyRemove(victim);
}

void
Tlb::insertHuge(Vpn base_vpn, Pfn base_pfn, Pcid pcid, bool writable)
{
    install(huge_, Entry{Key{hugeBaseOf(base_vpn), pcid}, base_pfn,
                         writable});
}

void
Tlb::insert(Vpn vpn, Pfn pfn, Pcid pcid, bool writable)
{
    install(base_, Entry{Key{vpn, pcid}, pfn, writable});
}

void
Tlb::drop(Store &store, std::uint16_t i)
{
    const Entry removed = store.entry(i);
    store.erase(i);
    notifyRemove(removed);
}

void
Tlb::invalidatePage(Vpn vpn, Pcid pcid)
{
    const std::uint16_t i = base_.find(Key{vpn, pcid});
    if (i != Store::kNil)
        drop(base_, i);
    // INVLPG drops whatever entry covers the address — including a
    // 2 MiB one.
    const std::uint16_t h = huge_.find(Key{hugeBaseOf(vpn), pcid});
    if (h != Store::kNil)
        drop(huge_, h);
}

void
Tlb::invalidateKeys(Store &store, unsigned level, Vpn first, Vpn last,
                    Vpn step, Pcid pcid)
{
    // Adaptive: an munmap of a few pages should not pay a scan of a
    // 1024-entry level, and a giant teardown should not probe every
    // VPN in the range. keys == 0 means the range wrapped the whole
    // VPN space; treat it as wide.
    const std::uint64_t keys = (last - first) / step + 1;
    if (keys != 0 && keys < store.size(level)) {
        for (Vpn v = first;; v += step) {
            const std::uint16_t i = store.find(Key{v, pcid});
            if (i != Store::kNil && store.levelOf(i) == level)
                drop(store, i);
            if (v == last)
                break;
        }
    } else {
        store.removeMatching(
            level,
            [&](const Entry &e) {
                return e.key.pcid == pcid && e.key.vpn >= first &&
                       e.key.vpn <= last;
            },
            [&](const Entry &e) { notifyRemove(e); });
    }
}

void
Tlb::invalidateRange(Vpn start_vpn, Vpn end_vpn, Pcid pcid)
{
    if (trace_)
        trace_->instantNow("hw", "tlb.inv_range", core_, kTraceNoMm,
                           end_vpn - start_vpn + 1);
    invalidateKeys(base_, 0, start_vpn, end_vpn, 1, pcid);
    invalidateKeys(base_, 1, start_vpn, end_vpn, 1, pcid);
    // Huge entries overlap the range if any of their 512 pages do.
    // Every huge key is span-aligned, so the overlapping bases are
    // exactly hugeBaseOf(start) .. hugeBaseOf(end).
    invalidateKeys(huge_, 0, hugeBaseOf(start_vpn), hugeBaseOf(end_vpn),
                   kHugePageSpan, pcid);
}

void
Tlb::invalidatePcid(Pcid pcid)
{
    if (trace_)
        trace_->instantNow("hw", "tlb.inv_pcid", core_, kTraceNoMm,
                           pcid);
    auto match = [&](const Entry &e) { return e.key.pcid == pcid; };
    auto notify = [&](const Entry &e) { notifyRemove(e); };
    base_.removeMatching(0, match, notify);
    base_.removeMatching(1, match, notify);
    huge_.removeMatching(0, match, notify);
}

void
Tlb::flushAll()
{
    ++flushes_;
    if (trace_)
        trace_->instantNow("hw", "tlb.flush_all", core_, kTraceNoMm,
                           size());
    if (!listeners_.empty()) {
        auto notify = [&](const Entry &e) { notifyRemove(e); };
        base_.forEach(0, notify);
        base_.forEach(1, notify);
        huge_.forEach(0, notify);
    }
    base_.clear();
    huge_.clear();
}

} // namespace latr
