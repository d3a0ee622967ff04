#include "numa/khugepaged.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace latr
{

Khugepaged::Khugepaged(Kernel &kernel, Duration scan_interval,
                       unsigned promotions_per_round)
    : kernel_(kernel), scanInterval_(scan_interval),
      promotionsPerRound_(promotions_per_round), scanEvent_(this)
{
}

Khugepaged::~Khugepaged()
{
    stop();
}

void
Khugepaged::track(Process *process)
{
    tracked_.push_back(process);
}

void
Khugepaged::start()
{
    if (running_)
        return;
    running_ = true;
    kernel_.queue().schedule(&scanEvent_,
                             kernel_.now() + scanInterval_);
}

void
Khugepaged::stop()
{
    if (!running_)
        return;
    running_ = false;
    if (scanEvent_.scheduled())
        kernel_.queue().deschedule(&scanEvent_);
}

Duration
Khugepaged::collapse(Process *process, Vpn base_vpn)
{
    AddressSpace &mm = process->mm();
    Task *context =
        process->tasks().empty() ? nullptr : process->tasks().front();
    if (!context)
        return 0;

    // Re-validate: every base page present, none sampled/CoW, no
    // existing PMD mapping.
    if (mm.pageTable().findHuge(base_vpn))
        return 0;
    FreedFrames old;
    std::uint8_t prot_flags = 0;
    for (Vpn v = base_vpn; v < base_vpn + kHugePageSpan; ++v) {
        const Pte *pte = mm.pageTable().find(v);
        if (!pte || pte->protNone() || pte->cow())
            return 0;
        old.pages.emplace_back(v, pte->pfn);
        prot_flags |= pte->flags & kPteWrite;
    }

    // A contiguous destination. Fragmentation may defeat this; the
    // compaction daemon is the remedy.
    const NodeId node = kernel_.topo().nodeOf(context->core());
    const Pfn huge = kernel_.frames().allocHuge(node);
    if (huge == kPfnInvalid)
        return 0;

    const CostModel &cost = kernel_.cost();
    const CoreId core = context->core();

    // Unmap the 512 base PTEs and shoot the range down — this remaps
    // physical addresses, so it is synchronous under every policy
    // (table 1's remap row). The old frames return to the pool once
    // the copy is done.
    for (Vpn v = base_vpn; v < base_vpn + kHugePageSpan; ++v)
        mm.pageTable().unmap(v);
    const Duration copy = cost.migrateCopyPerPage * (kHugePageSpan / 8);
    Duration spent = cost.pteClearPerPage * 8; // batched PMD-leaf clears
    spent += kernel_.syncInvalidate(
        mm, core, base_vpn, base_vpn + kHugePageSpan - 1, std::move(old),
        kernel_.now() + spent, "thp_collapse", /*release=*/true, copy);

    // Copy and install the PMD mapping.
    spent += copy;
    mm.pageTable().mapHuge(base_vpn, huge,
                           static_cast<std::uint8_t>(prot_flags |
                                                     kPteAccessed));

    ++stats_.promotions;
    kernel_.stats().counter("thp.promotions").inc();
    kernel_.scheduler().chargeStolen(core, spent);
    return spent;
}

void
Khugepaged::scan()
{
    unsigned promoted = 0;
    for (Process *process : tracked_) {
        if (promoted >= promotionsPerRound_)
            break;
        AddressSpace &mm = process->mm();

        // Candidate regions: aligned, fully-covered-by-one-VMA
        // 2 MiB spans with all base pages present.
        for (const auto &kv : mm.vmas()) {
            const Vma &vma = kv.second;
            if (vma.huge)
                continue; // already faulting hugely
            Vpn first = hugeBaseOf(pageOf(vma.start) +
                                   kHugePageSpan - 1);
            for (Vpn base = first;
                 base + kHugePageSpan <= pageOf(vma.end) &&
                 promoted < promotionsPerRound_;
                 base += kHugePageSpan) {
                ++stats_.regionsScanned;
                // Quick census before the expensive re-validation.
                std::uint64_t present = 0;
                mm.pageTable().forEachPresent(
                    base, base + kHugePageSpan - 1,
                    [&](Vpn, Pte &) { ++present; });
                if (present != kHugePageSpan)
                    continue;
                if (collapse(process, base) > 0)
                    ++promoted;
                else
                    ++stats_.aborts;
            }
            if (promoted >= promotionsPerRound_)
                break;
        }
    }
    kernel_.queue().schedule(&scanEvent_,
                             kernel_.now() + scanInterval_);
}

} // namespace latr
