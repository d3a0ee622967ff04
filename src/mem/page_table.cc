#include "mem/page_table.hh"

#include "sim/logging.hh"

namespace latr
{

Pte *
PageTable::lookup(Vpn vpn, bool create)
{
    if (vpn >= (1ULL << (kBitsPerLevel * 4)))
        panic("vpn %llu beyond 4-level reach",
              static_cast<unsigned long long>(vpn));

    auto &l3slot = root_.children[index(vpn, 3)];
    if (!l3slot) {
        if (!create)
            return nullptr;
        l3slot = std::make_unique<L3>();
    }
    auto &l2slot = l3slot->children[index(vpn, 2)];
    if (!l2slot) {
        if (!create)
            return nullptr;
        l2slot = std::make_unique<L2>();
    }
    auto &leafslot = l2slot->children[index(vpn, 1)];
    if (!leafslot) {
        if (!create)
            return nullptr;
        leafslot = std::make_unique<Leaf>();
    }
    return &leafslot->ptes[index(vpn, 0)];
}

void
PageTable::map(Vpn vpn, Pfn pfn, std::uint8_t flags)
{
    Pte *pte = lookup(vpn, true);
    if (pte->present())
        panic("double map of vpn %llu",
              static_cast<unsigned long long>(vpn));
    pte->pfn = pfn;
    pte->flags = static_cast<std::uint8_t>(flags | kPtePresent);
    ++present_;
}

Pte
PageTable::unmap(Vpn vpn)
{
    Pte *pte = lookup(vpn, false);
    if (!pte || !pte->present())
        return Pte{};
    Pte old = *pte;
    *pte = Pte{};
    --present_;
    return old;
}

Pte *
PageTable::find(Vpn vpn)
{
    Pte *pte = lookup(vpn, false);
    if (!pte || !pte->present())
        return nullptr;
    return pte;
}

const Pte *
PageTable::find(Vpn vpn) const
{
    return const_cast<PageTable *>(this)->find(vpn);
}

Pte *
PageTable::walkHardware(Vpn vpn, bool is_write)
{
    Pte *pte = find(vpn);
    if (!pte)
        return nullptr;
    if (!pte->protNone()) {
        pte->flags |= kPteAccessed;
        if (is_write && pte->writable())
            pte->flags |= kPteDirty;
    }
    return pte;
}

void
PageTable::setFlags(Vpn vpn, std::uint8_t flags)
{
    Pte *pte = find(vpn);
    if (!pte)
        panic("setFlags on unmapped vpn %llu",
              static_cast<unsigned long long>(vpn));
    pte->flags |= flags;
}

void
PageTable::clearFlags(Vpn vpn, std::uint8_t flags)
{
    Pte *pte = find(vpn);
    if (!pte)
        panic("clearFlags on unmapped vpn %llu",
              static_cast<unsigned long long>(vpn));
    pte->flags &= static_cast<std::uint8_t>(~flags);
    if (!(pte->flags & kPtePresent))
        panic("clearFlags must not clear Present; use unmap()");
}

void
PageTable::mapHuge(Vpn base_vpn, Pfn base_pfn, std::uint8_t flags)
{
    if (base_vpn % kHugePageSpan != 0 ||
        base_pfn % kHugePageSpan != 0)
        panic("mapHuge with unaligned vpn/pfn");
    if (hugeEntries_.count(base_vpn))
        panic("double huge map of vpn %llu",
              static_cast<unsigned long long>(base_vpn));
    // A PMD mapping and base PTEs cannot coexist in one region.
    bool base_present = false;
    forEachPresent(base_vpn, base_vpn + kHugePageSpan - 1,
                   [&](Vpn, Pte &) { base_present = true; });
    if (base_present)
        panic("mapHuge over existing base mappings");
    Pte pte;
    pte.pfn = base_pfn;
    pte.flags =
        static_cast<std::uint8_t>(flags | kPtePresent | kPteHuge);
    hugeEntries_[base_vpn] = pte;
}

Pte
PageTable::unmapHuge(Vpn base_vpn)
{
    auto it = hugeEntries_.find(hugeBaseOf(base_vpn));
    if (it == hugeEntries_.end())
        return Pte{};
    Pte old = it->second;
    hugeEntries_.erase(it);
    return old;
}

Pte *
PageTable::findHuge(Vpn vpn)
{
    auto it = hugeEntries_.find(hugeBaseOf(vpn));
    return it == hugeEntries_.end() ? nullptr : &it->second;
}

const Pte *
PageTable::findHuge(Vpn vpn) const
{
    return const_cast<PageTable *>(this)->findHuge(vpn);
}

} // namespace latr
