#include "tlbcoh/linux_policy.hh"

#include "sim/logging.hh"

namespace latr
{

LinuxPolicy::LinuxPolicy(PolicyEnv env)
    : TlbCoherencePolicy(std::move(env))
{
}

PolicyCapabilities
LinuxPolicy::capabilities() const
{
    PolicyCapabilities caps;
    caps.asynchronous = false;
    caps.nonIpiBased = false;
    caps.noRemoteCoreInvolvement = false;
    caps.noHardwareChanges = true;
    caps.lazyFreeCapable = false;
    caps.lazyMigrationCapable = false;
    return caps;
}

Duration
LinuxPolicy::onFreePages(FreeOpContext ctx, Tick start)
{
    shootdownsCtr_.inc();

    const std::uint64_t npages =
        ctx.pages.size() + ctx.hugePages.size() * kHugePageSpan;
    CpuMask targets = remoteTargets(ctx.mm, ctx.initiator);

    Duration wait = 0;
    if (!targets.empty() && npages > 0) {
        wait = ipiShootdown(ctx.mm, ctx.initiator, targets,
                            ctx.startVpn, ctx.endVpn, npages, start);
    }

    // Pages return to the allocator once the shootdown completes;
    // the remote invalidations were scheduled before the last ACK,
    // so the reuse invariant holds by construction.
    const Tick free_at = start + wait;
    if (!ctx.pages.empty() || !ctx.hugePages.empty()) {
        AddressSpace *mm = ctx.mm;
        auto pages = std::move(ctx.pages);
        auto huge = std::move(ctx.hugePages);
        env_.queue->scheduleLambda(free_at, [mm, pages, huge]() {
            for (const auto &page : pages)
                mm->frames().put(page.second);
            for (const auto &page : huge)
                mm->frames().putHuge(page.second);
        });
    }
    // Virtual addresses are reusable immediately in Linux: the
    // munmap does not return before coherence is reached.
    return wait;
}

Duration
LinuxPolicy::onNumaSample(AddressSpace *mm, CoreId initiator, Vpn vpn,
                          Tick start)
{
    Pte *pte = mm->pageTable().find(vpn);
    if (!pte)
        return 0; // raced with an unmap; nothing to sample

    shootdownsCtr_.inc();
    numaSamplesCtr_.inc();

    // change_prot_numa: make the PTE prot-none, invalidate locally,
    // then shoot down everywhere — the cost the paper's figure 3a
    // shows on the AutoNUMA critical path.
    pte->flags |= kPteProtNone;
    Duration local = cost().pteClearPerPage + cost().invlpg;
    env_.cores->tlbOf(initiator).invalidatePage(vpn, mm->pcid());

    CpuMask targets = remoteTargets(mm, initiator);
    Duration wait = ipiShootdown(mm, initiator, targets, vpn, vpn, 1,
                                 start + local);
    return local + wait;
}

} // namespace latr
