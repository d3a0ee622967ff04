#include "vm/address_space.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace latr
{

AddressSpace::AddressSpace(MmId id, Pcid pcid, FrameAllocator &frames)
    : id_(id), pcid_(pcid), frames_(frames), cover_{CoverStep{0, 0}}
{
}

AddressSpace::~AddressSpace() = default;

const Vma *
AddressSpace::findVma(Addr addr) const
{
    auto it = vmas_.upper_bound(addr);
    if (it == vmas_.begin())
        return nullptr;
    --it;
    return it->second.contains(addr) ? &it->second : nullptr;
}

Addr
AddressSpace::findFreeRange(std::uint64_t len,
                            std::uint64_t alignment) const
{
    // An empty or wrapped-around length has no placement.
    if (len == 0 || len > kUserVaLimit)
        return kAddrInvalid;
    auto align_up = [&](Addr a) {
        return (a + alignment - 1) & ~(alignment - 1);
    };
    const Addr floor = align_up(kMmapBase);
    for (std::size_t i = coverStepOf(floor); i < cover_.size(); ++i) {
        if (cover_[i].count != 0)
            continue;
        const Addr candidate = align_up(std::max(cover_[i].start, floor));
        if (candidate + len > kUserVaLimit)
            return kAddrInvalid;
        if (i + 1 == cover_.size() ||
            candidate + len <= cover_[i + 1].start)
            return candidate;
    }
    return kAddrInvalid;
}

std::size_t
AddressSpace::coverStepOf(Addr addr) const
{
    const auto after = std::upper_bound(
        cover_.begin(), cover_.end(), addr,
        [](Addr a, const CoverStep &s) { return a < s.start; });
    return static_cast<std::size_t>(after - cover_.begin()) - 1;
}

void
AddressSpace::cover(Addr start, Addr end, int delta)
{
    if (start >= end)
        return;
    auto split = [&](Addr a) {
        const std::size_t i = coverStepOf(a);
        if (cover_[i].start == a)
            return i;
        cover_.insert(cover_.begin() + i + 1, CoverStep{a, cover_[i].count});
        return i + 1;
    };
    const std::size_t first = split(start);
    const std::size_t last = split(end);
    for (std::size_t i = first; i < last; ++i)
        cover_[i].count += delta;
    // The steps inside the range moved together, so only its two ends
    // can now equal their left neighbour. Erasing the later one first
    // keeps the earlier index valid.
    if (cover_[last - 1].count == cover_[last].count)
        cover_.erase(cover_.begin() + last);
    if (first > 0 && cover_[first - 1].count == cover_[first].count)
        cover_.erase(cover_.begin() + first);
}

Addr
AddressSpace::mmapRegion(std::uint64_t len, std::uint8_t prot,
                         bool file_backed)
{
    if (len == 0)
        return kAddrInvalid;
    len = pageAlignUp(len);
    Addr base = findFreeRange(len);
    if (base == kAddrInvalid)
        return kAddrInvalid;
    Vma vma;
    vma.start = base;
    vma.end = base + len;
    vma.prot = prot;
    vma.fileBacked = file_backed;
    vmas_[base] = vma;
    cover(vma.start, vma.end, +1);
    return base;
}

Addr
AddressSpace::mmapHugeRegion(std::uint64_t len, std::uint8_t prot)
{
    if (len == 0)
        return kAddrInvalid;
    len = (len + kHugePageSize - 1) & ~(kHugePageSize - 1);
    Addr base = findFreeRange(len, kHugePageSize);
    if (base == kAddrInvalid)
        return kAddrInvalid;
    Vma vma;
    vma.start = base;
    vma.end = base + len;
    vma.prot = prot;
    vma.huge = true;
    vmas_[base] = vma;
    cover(vma.start, vma.end, +1);
    return base;
}

void
AddressSpace::splitAt(Addr addr)
{
    auto it = vmas_.upper_bound(addr);
    if (it == vmas_.begin())
        return;
    --it;
    Vma &vma = it->second;
    if (!vma.contains(addr) || vma.start == addr)
        return;
    Vma tail = vma;
    tail.start = addr;
    vma.end = addr;
    vmas_[addr] = tail;
}

UnmapResult
AddressSpace::munmapRegion(Addr addr, std::uint64_t len)
{
    UnmapResult result;
    Addr lo = pageAlignDown(addr);
    Addr hi = pageAlignUp(addr + len);
    if (!vmaRangeValid(lo, hi))
        return result;
    result.ok = true;
    result.spanned = (hi - lo) >> kPageShift;

    splitAt(lo);
    splitAt(hi);

    auto it = vmas_.lower_bound(lo);
    while (it != vmas_.end() && it->second.start < hi) {
        const Vma &vma = it->second;
        pt_.forEachPresent(pageOf(vma.start), pageOf(vma.end) - 1,
                           [&](Vpn vpn, Pte &) {
                               result.pages.emplace_back(vpn, 0);
                           });
        // Collect PMD mappings too — whether the VMA was created
        // huge or a region was promoted (khugepaged) later.
        for (Vpn base = hugeBaseOf(pageOf(vma.start));
             base < pageOf(vma.end); base += kHugePageSpan) {
            Pte old = pt_.unmapHuge(base);
            if (old.present())
                result.hugePages.emplace_back(base, old.pfn);
        }
        cover(vma.start, vma.end, -1);
        it = vmas_.erase(it);
    }
    // Unmap outside the forEach to keep its "no map/unmap" contract.
    // Sharer info is NOT cleared here: the coherence policy (ABIS)
    // reads it to compute the shootdown target set; the kernel
    // clears it once the policy has run.
    for (auto &page : result.pages) {
        Pte old = pt_.unmap(page.first);
        page.second = old.pfn;
        contentTags_.erase(page.first);
    }
    return result;
}

UnmapResult
AddressSpace::madviseRegion(Addr addr, std::uint64_t len)
{
    UnmapResult result;
    Addr lo = pageAlignDown(addr);
    Addr hi = pageAlignUp(addr + len);
    if (!vmaRangeValid(lo, hi))
        return result;
    result.ok = true;
    result.spanned = (hi - lo) >> kPageShift;

    for (auto it = vmas_.upper_bound(hi - 1); it != vmas_.begin();) {
        --it;
        const Vma &vma = it->second;
        if (vma.end <= lo)
            break;
        if (!vma.overlaps(lo, hi))
            continue;
        Vpn first = pageOf(std::max(vma.start, lo));
        Vpn last = pageOf(std::min(vma.end, hi)) - 1;
        pt_.forEachPresent(first, last, [&](Vpn vpn, Pte &) {
            result.pages.emplace_back(vpn, 0);
        });
        // Only whole 2 MiB regions inside the advised range are
        // dropped (a real THP kernel would split; we keep the
        // mapping for partial advice). Applies to huge VMAs and to
        // khugepaged-promoted regions alike.
        for (Vpn base = hugeBaseOf(first);
             base + kHugePageSpan <= last + 1;
             base += kHugePageSpan) {
            if (base < first)
                continue;
            Pte old = pt_.unmapHuge(base);
            if (old.present())
                result.hugePages.emplace_back(base, old.pfn);
        }
    }
    for (auto &page : result.pages) {
        Pte old = pt_.unmap(page.first);
        page.second = old.pfn;
        contentTags_.erase(page.first);
    }
    return result;
}

UnmapResult
AddressSpace::mprotectRegion(Addr addr, std::uint64_t len,
                             std::uint8_t prot)
{
    UnmapResult result;
    Addr lo = pageAlignDown(addr);
    Addr hi = pageAlignUp(addr + len);
    if (!vmaRangeValid(lo, hi))
        return result;
    result.ok = true;
    result.spanned = (hi - lo) >> kPageShift;

    splitAt(lo);
    splitAt(hi);

    for (auto it = vmas_.lower_bound(lo);
         it != vmas_.end() && it->second.start < hi; ++it) {
        Vma &vma = it->second;
        vma.prot = prot;
        pt_.forEachPresent(
            pageOf(vma.start), pageOf(vma.end) - 1,
            [&](Vpn vpn, Pte &pte) {
                if (prot & kProtWrite)
                    pte.flags |= kPteWrite;
                else
                    pte.flags &= static_cast<std::uint8_t>(~kPteWrite);
                result.pages.emplace_back(vpn, pte.pfn);
            });
    }
    return result;
}

Addr
AddressSpace::mremapRegion(Addr old_addr, std::uint64_t old_len,
                           std::uint64_t new_len, UnmapResult *moved_out)
{
    Addr lo = pageAlignDown(old_addr);
    Addr hi = pageAlignUp(old_addr + old_len);
    if (!vmaRangeValid(lo, hi))
        return kAddrInvalid;
    new_len = pageAlignUp(new_len);

    const Vma *vma = findVma(lo);
    if (!vma || vma->end < hi)
        return kAddrInvalid; // must lie within one mapping

    std::uint8_t prot = vma->prot;
    bool file_backed = vma->fileBacked;

    Addr new_base = findFreeRange(new_len);
    if (new_base == kAddrInvalid)
        return kAddrInvalid;

    // Collect and move present pages that fit the new size.
    UnmapResult moved;
    moved.ok = true;
    moved.spanned = (hi - lo) >> kPageShift;
    pt_.forEachPresent(pageOf(lo), pageOf(hi) - 1,
                       [&](Vpn vpn, Pte &) {
                           moved.pages.emplace_back(vpn, 0);
                       });
    for (auto &page : moved.pages) {
        Pte old = pt_.unmap(page.first);
        page.second = old.pfn;
        clearSharers(page.first);
        std::uint64_t offset = page.first - pageOf(lo);
        if (offset < (new_len >> kPageShift)) {
            pt_.map(pageOf(new_base) + offset, old.pfn,
                    static_cast<std::uint8_t>(old.flags & ~kPtePresent));
        } else {
            // Shrunk away: Kernel::mremap releases the frame, found
            // in the moved-pages list, after the shootdown.
        }
    }

    // Replace the VMA range.
    splitAt(lo);
    splitAt(hi);
    for (auto it = vmas_.lower_bound(lo);
         it != vmas_.end() && it->second.start < hi;) {
        cover(it->second.start, it->second.end, -1);
        it = vmas_.erase(it);
    }
    Vma nv;
    nv.start = new_base;
    nv.end = new_base + new_len;
    nv.prot = prot;
    nv.fileBacked = file_backed;
    vmas_[new_base] = nv;
    cover(nv.start, nv.end, +1);

    if (moved_out)
        *moved_out = std::move(moved);
    return new_base;
}

UnmapResult
AddressSpace::markCowRegion(Addr addr, std::uint64_t len)
{
    UnmapResult result;
    Addr lo = pageAlignDown(addr);
    Addr hi = pageAlignUp(addr + len);
    if (!vmaRangeValid(lo, hi))
        return result;
    result.ok = true;
    result.spanned = (hi - lo) >> kPageShift;
    pt_.forEachPresent(pageOf(lo), pageOf(hi) - 1,
                       [&](Vpn vpn, Pte &pte) {
                           pte.flags |= kPteCow;
                           pte.flags &=
                               static_cast<std::uint8_t>(~kPteWrite);
                           result.pages.emplace_back(vpn, pte.pfn);
                       });
    return result;
}

void
AddressSpace::holdbackRange(Addr start, Addr end)
{
    if (start >= end)
        panic("holdback of empty range");
    auto it = holdback_.find(start);
    setHoldback(start,
                it == holdback_.end() ? end : std::max(it->second, end));
}

void
AddressSpace::releaseHoldback(Addr start, Addr end)
{
    auto it = holdback_.find(start);
    if (it == holdback_.end())
        return;
    // A partial release keeps the range's tail held back.
    if (it->second > end)
        setHoldback(end, it->second);
    eraseHoldback(start);
}

void
AddressSpace::setHoldback(Addr start, Addr end)
{
    auto [it, fresh] = holdback_.try_emplace(start, end);
    if (!fresh) {
        cover(start, it->second, -1);
        it->second = end;
    }
    cover(start, end, +1);
}

void
AddressSpace::eraseHoldback(Addr start)
{
    auto it = holdback_.find(start);
    cover(start, it->second, -1);
    holdback_.erase(it);
}

bool
AddressSpace::rangeHeldBack(Addr start, Addr end) const
{
    // Held-back ranges may nest, so one that ends before start says
    // nothing about those that begin below it.
    const auto last = holdback_.lower_bound(end);
    return std::any_of(holdback_.begin(), last,
                       [start](const auto &kv) {
                           return kv.second > start;
                       });
}

std::uint64_t
AddressSpace::heldBackBytes() const
{
    std::uint64_t total = 0;
    for (const auto &kv : holdback_)
        total += kv.second - kv.first;
    return total;
}

void
AddressSpace::setContentTag(Vpn vpn, std::uint64_t tag)
{
    if (tag == 0)
        contentTags_.erase(vpn);
    else
        contentTags_[vpn] = tag;
}

std::uint64_t
AddressSpace::contentTag(Vpn vpn) const
{
    const std::uint64_t *tag = contentTags_.find(vpn);
    return tag ? *tag : 0;
}

void
AddressSpace::clearContentTag(Vpn vpn)
{
    contentTags_.erase(vpn);
}

void
AddressSpace::noteAccess(Vpn vpn, CoreId core)
{
    sharers_[vpn].set(core);
}

CpuMask
AddressSpace::sharersOf(Vpn vpn) const
{
    const CpuMask *mask = sharers_.find(vpn);
    return mask ? *mask : CpuMask();
}

CpuMask
AddressSpace::sharersOf(const FreedFrames &frames) const
{
    CpuMask sharers;
    frames.forEachVpn(
        [&](Vpn vpn) { sharers.orWith(sharersOf(vpn)); });
    return sharers;
}

void
AddressSpace::clearSharers(Vpn vpn)
{
    sharers_.erase(vpn);
}

} // namespace latr
