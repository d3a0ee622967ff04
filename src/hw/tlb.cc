#include "hw/tlb.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace latr
{

Tlb::Level::Level(unsigned capacity) : capacity_(capacity)
{
    if (capacity == 0 || capacity >= kNil)
        fatal("TLB level capacity %u out of range", capacity);
    std::uint32_t table_size = 1;
    while (table_size < 2 * capacity) // ≤50% load
        table_size <<= 1;
    mask_ = table_size - 1;
    table_.assign(table_size, kNil);
    slots_ = std::make_unique_for_overwrite<Slot[]>(capacity);
}

std::uint16_t
Tlb::Level::findSlot(const Key &k) const
{
    std::uint32_t i = hashOf(k) & mask_;
    while (table_[i] != kNil) {
        if (slots_[table_[i]].entry.key == k)
            return table_[i];
        i = (i + 1) & mask_;
    }
    return kNil;
}

void
Tlb::Level::unlink(std::uint16_t i)
{
    const Slot &s = slots_[i];
    if (s.prev != kNil)
        slots_[s.prev].next = s.next;
    else
        head_ = s.next;
    if (s.next != kNil)
        slots_[s.next].prev = s.prev;
    else
        tail_ = s.prev;
}

void
Tlb::Level::linkFront(std::uint16_t i)
{
    Slot &s = slots_[i];
    s.prev = kNil;
    s.next = head_;
    if (head_ != kNil)
        slots_[head_].prev = i;
    else
        tail_ = i;
    head_ = i;
}

std::uint32_t
Tlb::Level::cellOf(std::uint16_t slot) const
{
    std::uint32_t i = hashOf(slots_[slot].entry.key) & mask_;
    while (table_[i] != slot)
        i = (i + 1) & mask_;
    return i;
}

void
Tlb::Level::tableErase(std::uint16_t slot)
{
    std::uint32_t i = cellOf(slot);
    // Backward-shift deletion keeps probe chains contiguous without
    // tombstones: walk forward from the freed cell and pull back any
    // entry whose home position lies cyclically outside (i, j].
    std::uint32_t j = i;
    for (;;) {
        table_[i] = kNil;
        std::uint32_t home;
        do {
            j = (j + 1) & mask_;
            if (table_[j] == kNil)
                return;
            home = hashOf(slots_[table_[j]].entry.key) & mask_;
        } while (i <= j ? (home > i && home <= j)
                        : (home > i || home <= j));
        table_[i] = table_[j];
        i = j;
    }
}

void
Tlb::Level::eraseSlot(std::uint16_t i)
{
    tableErase(i);
    unlink(i);
    slots_[i].next = freeHead_;
    freeHead_ = i;
    --size_;
}

const Tlb::Entry *
Tlb::Level::touch(const Key &k)
{
    const std::uint16_t i = findSlot(k);
    if (i == kNil)
        return nullptr;
    if (i != head_) {
        unlink(i);
        linkFront(i);
    }
    return &slots_[i].entry;
}

const Tlb::Entry *
Tlb::Level::peek(const Key &k) const
{
    const std::uint16_t i = findSlot(k);
    return i == kNil ? nullptr : &slots_[i].entry;
}

void
Tlb::Level::insert(const Entry &e, Entry *victim_out, bool *had_victim)
{
    *had_victim = false;
    const std::uint16_t existing = findSlot(e.key);
    if (existing != kNil) {
        // Refresh in place (e.g., remap to a new frame) and touch.
        slots_[existing].entry.pfn = e.pfn;
        slots_[existing].entry.writable = e.writable;
        if (existing != head_) {
            unlink(existing);
            linkFront(existing);
        }
        return;
    }
    if (size_ >= capacity_) {
        *victim_out = slots_[tail_].entry;
        *had_victim = true;
        eraseSlot(tail_);
    }
    // Freed slots first, then never-used ones in index order: the
    // order of a free list that started as 0, 1, ..., capacity - 1.
    std::uint16_t slot = freeHead_;
    if (slot != kNil)
        freeHead_ = slots_[slot].next;
    else
        slot = unused_++;
    slots_[slot].entry = e;
    linkFront(slot);
    std::uint32_t pos = hashOf(e.key) & mask_;
    while (table_[pos] != kNil)
        pos = (pos + 1) & mask_;
    table_[pos] = slot;
    ++size_;
}

bool
Tlb::Level::remove(const Key &k, Entry *removed_out)
{
    const std::uint16_t i = findSlot(k);
    if (i == kNil)
        return false;
    if (removed_out)
        *removed_out = slots_[i].entry;
    eraseSlot(i);
    return true;
}

void
Tlb::Level::clear()
{
    if (size_ == 0)
        return;
    // A fill writes 32 cells per cache line, while clearing one entry
    // by probe touches two lines (its slot and its cell): from one
    // entry per 64 cells on, one pass over the table is cheaper.
    if (size_ * 64 >= table_.size()) {
        std::fill(table_.begin(), table_.end(), kNil);
    } else {
        for (std::uint16_t i = head_; i != kNil; i = slots_[i].next)
            table_[cellOf(i)] = kNil;
    }
    // Nothing outside the level sees a slot index, so the LRU chain
    // joins the free list as it stands.
    slots_[tail_].next = freeHead_;
    freeHead_ = head_;
    head_ = tail_ = kNil;
    size_ = 0;
}

Tlb::Tlb(CoreId core, unsigned l1_entries, unsigned l2_entries,
         unsigned huge_entries)
    : core_(core), l1_(l1_entries), l2_(l2_entries),
      huge_(huge_entries)
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
    if (huge_out)
        *huge_out = false;
    // The 2 MiB array covers whole regions; it wins when populated.
    Key hk{hugeBaseOf(vpn), pcid};
    if (const Entry *e = huge_.touch(hk)) {
        ++l1Hits_;
        if (pfn_out)
            *pfn_out = e->pfn + (vpn - hugeBaseOf(vpn));
        if (writable_out)
            *writable_out = e->writable;
        if (huge_out)
            *huge_out = true;
        return TlbResult::HitL1;
    }
    Key k{vpn, pcid};
    if (const Entry *e = l1_.touch(k)) {
        ++l1Hits_;
        if (pfn_out)
            *pfn_out = e->pfn;
        if (writable_out)
            *writable_out = e->writable;
        return TlbResult::HitL1;
    }
    Entry promoted;
    if (l2_.remove(k, &promoted)) {
        ++l2Hits_;
        if (pfn_out)
            *pfn_out = promoted.pfn;
        if (writable_out)
            *writable_out = promoted.writable;
        // Promote into L1; an L1 victim spills back into L2. Neither
        // movement changes overall TLB membership, so no listener
        // traffic unless the spill evicts an L2 entry.
        Entry l1_victim;
        bool had_l1_victim = false;
        l1_.insert(promoted, &l1_victim, &had_l1_victim);
        if (had_l1_victim) {
            Entry l2_victim;
            bool had_l2_victim = false;
            l2_.insert(l1_victim, &l2_victim, &had_l2_victim);
            if (had_l2_victim)
                notifyRemove(l2_victim);
        }
        return TlbResult::HitL2;
    }
    ++misses_;
    return TlbResult::Miss;
}

bool
Tlb::probe(Vpn vpn, Pcid pcid) const
{
    Key k{vpn, pcid};
    return l1_.peek(k) != nullptr || l2_.peek(k) != nullptr ||
           probeHuge(vpn, pcid);
}

bool
Tlb::probeHuge(Vpn vpn, Pcid pcid) const
{
    Key hk{hugeBaseOf(vpn), pcid};
    return huge_.peek(hk) != nullptr;
}

bool
Tlb::probePfn(Vpn vpn, Pcid pcid, Pfn *pfn_out) const
{
    Key k{vpn, pcid};
    if (const Entry *e = l1_.peek(k)) {
        *pfn_out = e->pfn;
        return true;
    }
    if (const Entry *e = l2_.peek(k)) {
        *pfn_out = e->pfn;
        return true;
    }
    return probeHugePfn(vpn, pcid, pfn_out);
}

bool
Tlb::probeHugePfn(Vpn vpn, Pcid pcid, Pfn *pfn_out) const
{
    Key hk{hugeBaseOf(vpn), pcid};
    if (const Entry *e = huge_.peek(hk)) {
        *pfn_out = e->pfn;
        return true;
    }
    return false;
}

void
Tlb::insertHuge(Vpn base_vpn, Pfn base_pfn, Pcid pcid, bool writable)
{
    Key k{hugeBaseOf(base_vpn), pcid};
    Entry old;
    bool existed = huge_.remove(k, &old);
    bool same_frame = existed && old.pfn == base_pfn;
    if (existed && !same_frame)
        notifyRemove(old);

    Entry e{k, base_pfn, writable};
    Entry victim;
    bool had_victim = false;
    huge_.insert(e, &victim, &had_victim);
    if (!same_frame)
        notifyInsert(e);
    if (had_victim)
        notifyRemove(victim);
}

void
Tlb::insert(Vpn vpn, Pfn pfn, Pcid pcid, bool writable)
{
    Key k{vpn, pcid};
    // Collapse any existing copy first so the listener sees a remap
    // as remove(old frame) + insert(new frame). A permission-only
    // change keeps the same frame and stays quiet.
    Entry old;
    bool existed = l1_.remove(k, &old) || l2_.remove(k, &old);
    bool same_frame = existed && old.pfn == pfn;
    if (existed && !same_frame)
        notifyRemove(old);

    Entry e{k, pfn, writable};
    Entry l1_victim;
    bool had_l1_victim = false;
    l1_.insert(e, &l1_victim, &had_l1_victim);
    if (!same_frame)
        notifyInsert(e);
    if (had_l1_victim) {
        Entry l2_victim;
        bool had_l2_victim = false;
        l2_.insert(l1_victim, &l2_victim, &had_l2_victim);
        if (had_l2_victim)
            notifyRemove(l2_victim);
    }
}

void
Tlb::invalidatePage(Vpn vpn, Pcid pcid)
{
    Key k{vpn, pcid};
    Entry removed;
    if (l1_.remove(k, &removed))
        notifyRemove(removed);
    if (l2_.remove(k, &removed))
        notifyRemove(removed);
    // INVLPG drops whatever entry covers the address — including a
    // 2 MiB one.
    Key hk{hugeBaseOf(vpn), pcid};
    if (huge_.remove(hk, &removed))
        notifyRemove(removed);
}

void
Tlb::invalidateRangeIn(Level &level, Vpn start_vpn, Vpn end_vpn,
                       Pcid pcid)
{
    // Adaptive: an munmap of a few pages should not pay a scan of a
    // 1024-entry level, and a giant teardown should not probe every
    // VPN in the range. span == 0 means the range wrapped the whole
    // VPN space; treat it as wide.
    const std::uint64_t span = end_vpn - start_vpn + 1;
    if (span != 0 && span < level.size()) {
        Entry removed;
        for (Vpn v = start_vpn;; ++v) {
            if (level.remove(Key{v, pcid}, &removed))
                notifyRemove(removed);
            if (v == end_vpn)
                break;
        }
    } else {
        level.removeMatching(
            [&](const Entry &e) {
                return e.key.pcid == pcid && e.key.vpn >= start_vpn &&
                       e.key.vpn <= end_vpn;
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
    invalidateRangeIn(l1_, start_vpn, end_vpn, pcid);
    invalidateRangeIn(l2_, start_vpn, end_vpn, pcid);
    // Huge entries overlap the range if any of their 512 pages do.
    // Every huge key is span-aligned, so the overlapping bases are
    // exactly hugeBaseOf(start) .. hugeBaseOf(end).
    const Vpn hb_start = hugeBaseOf(start_vpn);
    const Vpn hb_end = hugeBaseOf(end_vpn);
    const std::uint64_t bases = (hb_end - hb_start) / kHugePageSpan + 1;
    if (bases < huge_.size()) {
        Entry removed;
        for (Vpn b = hb_start;; b += kHugePageSpan) {
            if (huge_.remove(Key{b, pcid}, &removed))
                notifyRemove(removed);
            if (b == hb_end)
                break;
        }
    } else {
        huge_.removeMatching(
            [&](const Entry &e) {
                return e.key.pcid == pcid && e.key.vpn <= end_vpn &&
                       e.key.vpn + kHugePageSpan - 1 >= start_vpn;
            },
            [&](const Entry &e) { notifyRemove(e); });
    }
}

void
Tlb::invalidatePcid(Pcid pcid)
{
    if (trace_)
        trace_->instantNow("hw", "tlb.inv_pcid", core_, kTraceNoMm,
                           pcid);
    auto match = [&](const Entry &e) { return e.key.pcid == pcid; };
    auto notify = [&](const Entry &e) { notifyRemove(e); };
    l1_.removeMatching(match, notify);
    l2_.removeMatching(match, notify);
    huge_.removeMatching(match, notify);
}

void
Tlb::flushAll()
{
    ++flushes_;
    if (trace_)
        trace_->instantNow("hw", "tlb.flush_all", core_, kTraceNoMm,
                           size());
    if (!listeners_.empty()) {
        l1_.forEach([&](const Entry &e) { notifyRemove(e); });
        l2_.forEach([&](const Entry &e) { notifyRemove(e); });
        huge_.forEach([&](const Entry &e) { notifyRemove(e); });
    }
    l1_.clear();
    l2_.clear();
    huge_.clear();
}

} // namespace latr
