#include "numa/ksm.hh"

#include <unordered_map>
#include <utility>
#include <vector>

namespace latr
{

KsmDaemon::KsmDaemon(Kernel &kernel, Duration scan_interval,
                     unsigned merges_per_round)
    : ScanDaemon(kernel, scan_interval, "ksm-scan"),
      mergesPerRound_(merges_per_round)
{
}

Duration
KsmDaemon::merge(Process *dup, Vpn dup_vpn, Process *survivor,
                 Vpn survivor_vpn, Pfn survivor_frame)
{
    AddressSpace &mm = dup->mm();
    Task *context = contextOf(dup);
    Task *s_context = contextOf(survivor);
    if (!context || !s_context)
        return 0;
    Pte *pte = mm.pageTable().find(dup_vpn);
    if (!pte || pte->protNone())
        return 0;
    const Pfn dup_frame = pte->pfn;
    if (dup_frame == survivor_frame)
        return 0;
    AddressSpace &s_mm = survivor->mm();
    Pte *s_pte = s_mm.pageTable().find(survivor_vpn);
    if (!s_pte || s_pte->pfn != survivor_frame)
        return 0; // survivor changed since it was recorded

    Duration spent = 0;
    const CoreId core = context->core();

    // 1. Revoke write access on BOTH mappings and mark them CoW —
    //    synchronously, under every policy (ownership change,
    //    table 1): after this no core can modify either copy, so
    //    the copies stay identical.
    pte->flags |= kPteCow;
    pte->flags &= static_cast<std::uint8_t>(~kPteWrite);
    spent += kernel_.syncInvalidate(mm, core, dup_vpn, dup_vpn,
                                    FreedFrames::page(dup_vpn, dup_frame),
                                    kernel_.now(), "ksm_merge");

    if (!s_pte->cow()) {
        s_pte->flags |= kPteCow;
        s_pte->flags &= static_cast<std::uint8_t>(~kPteWrite);
        spent += kernel_.syncInvalidate(
            s_mm, s_context->core(), survivor_vpn, survivor_vpn,
            FreedFrames::page(survivor_vpn, survivor_frame),
            kernel_.now() + spent, "ksm_merge");
    }

    // 2. Switch the duplicate's PTE to the survivor's frame.
    kernel_.frames().get(survivor_frame);
    pte->pfn = survivor_frame;

    // 3. Release the duplicate frame through the kernel's free path —
    //    lazy under LATR. Stale translations still reading the
    //    duplicate read identical bytes; the sweep (or IPI) retires
    //    them before the frame is reused.
    FreeOpContext ctx;
    ctx.mm = &mm;
    ctx.initiator = core;
    ctx.startVpn = dup_vpn;
    ctx.endVpn = dup_vpn;
    ctx.frames = FreedFrames::page(dup_vpn, dup_frame);
    // The virtual page stays mapped (new frame): no VA to release.
    spent += kernel_.freePages(std::move(ctx), kernel_.now() + spent,
                               "ksm_merge");

    ++stats_.merges;
    ++stats_.framesFreed;
    kernel_.stats().counter("ksm.merges").inc();
    return spent;
}

void
KsmDaemon::scan()
{
    // tag -> the surviving copy seen first this round.
    struct Survivor
    {
        Process *process;
        Vpn vpn;
        Pfn pfn;
    };
    std::unordered_map<std::uint64_t, Survivor> seen;

    unsigned merged = 0;
    Duration spent = 0;
    Task *context = nullptr;

    for (Process *process : tracked_) {
        if (merged >= mergesPerRound_)
            break;
        AddressSpace &mm = process->mm();
        if (Task *task = contextOf(process))
            context = task;

        // Collect (vpn, tag) candidates first; merging mutates the
        // page table, so it happens outside the walk.
        std::vector<std::pair<Vpn, std::uint64_t>> tagged;
        forEachPresentPage(mm, [&](Vpn vpn, const Pte &pte) {
            const std::uint64_t tag =
                pte.protNone() ? 0 : mm.contentTag(vpn);
            if (tag != 0)
                tagged.emplace_back(vpn, tag);
            return true;
        });

        for (const auto &[vpn, tag] : tagged) {
            if (merged >= mergesPerRound_)
                break;
            ++stats_.pagesScanned;
            spent += kernel_.cost().memAccess * 64; // checksum pass
            Pte *pte = mm.pageTable().find(vpn);
            if (!pte)
                continue;
            auto it = seen.find(tag);
            if (it == seen.end()) {
                seen.emplace(tag, Survivor{process, vpn, pte->pfn});
                continue;
            }
            if (it->second.pfn == pte->pfn)
                continue; // already sharing
            spent += merge(process, vpn, it->second.process,
                           it->second.vpn, it->second.pfn);
            ++merged;
        }
    }
    if (context)
        kernel_.scheduler().chargeStolen(context->core(), spent);
}

} // namespace latr
