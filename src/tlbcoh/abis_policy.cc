#include "tlbcoh/abis_policy.hh"

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace latr
{

AbisPolicy::AbisPolicy(PolicyEnv env)
    : TlbCoherencePolicy(std::move(env)),
      shootdownsAvoidedCtr_(
          env_.stats->counter("abis.shootdowns_avoided"))
{
}

PolicyCapabilities
AbisPolicy::capabilities() const
{
    PolicyCapabilities caps;
    caps.asynchronous = false;
    caps.nonIpiBased = false;
    // ABIS still interrupts the (reduced set of) sharing cores.
    caps.noRemoteCoreInvolvement = false;
    caps.noHardwareChanges = true;
    caps.lazyFreeCapable = false;
    caps.lazyMigrationCapable = false;
    return caps;
}

Duration
AbisPolicy::minorFaultOverhead() const
{
    // Maintaining the per-page sharing set (uncached access-bit
    // manipulation) costs extra on every fault — the overhead that
    // drags ABIS below Linux at low core counts.
    return cost().abisPerFault;
}

Duration
AbisPolicy::onFreePages(FreeOpContext ctx, Tick start)
{
    shootdownsCtr_.inc();

    // Harvest access bits: union of each page's sharer set, clipped
    // to the cores where the mm is still resident.
    CpuMask sharers;
    for (const auto &page : ctx.pages)
        sharers.orWith(ctx.mm->sharersOf(page.first));
    for (const auto &page : ctx.hugePages)
        sharers.orWith(ctx.mm->sharersOf(page.first));
    sharers.andWith(ctx.mm->residencyMask());
    sharers.clear(ctx.initiator);

    const std::uint64_t npages =
        ctx.pages.size() + ctx.hugePages.size() * kHugePageSpan;
    const Duration scan =
        cost().abisPerPageScan *
        static_cast<Duration>(ctx.pages.size() + ctx.hugePages.size());
    if (TraceRecorder *t = tracer()) {
        const SpanId span =
            t->beginSpan("abis", "abis.sharer_scan", start,
                         ctx.initiator, ctx.mm->id(), npages);
        t->endSpan(span, start + scan);
    }

    Duration wait = 0;
    if (!sharers.empty() && npages > 0) {
        wait = ipiShootdown(ctx.mm, ctx.initiator, sharers,
                            ctx.startVpn, ctx.endVpn, npages,
                            start + scan);
    } else {
        shootdownsAvoidedCtr_.inc();
        if (TraceRecorder *t = tracer())
            t->instant("abis", "abis.shootdown_avoided", start + scan,
                       ctx.initiator, ctx.mm->id(), npages);
    }

    const Tick free_at = start + scan + wait;
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
    return scan + wait;
}

Duration
AbisPolicy::onNumaSample(AddressSpace *mm, CoreId initiator, Vpn vpn,
                         Tick start)
{
    Pte *pte = mm->pageTable().find(vpn);
    if (!pte)
        return 0;

    shootdownsCtr_.inc();
    numaSamplesCtr_.inc();

    pte->flags |= kPteProtNone;
    Duration local = cost().pteClearPerPage + cost().invlpg +
                     cost().abisPerPageScan;
    env_.cores->tlbOf(initiator).invalidatePage(vpn, mm->pcid());

    CpuMask sharers = mm->sharersOf(vpn);
    sharers.andWith(mm->residencyMask());
    sharers.clear(initiator);
    Duration wait = 0;
    if (!sharers.empty()) {
        wait = ipiShootdown(mm, initiator, sharers, vpn, vpn, 1,
                            start + local);
    } else {
        shootdownsAvoidedCtr_.inc();
    }
    return local + wait;
}

} // namespace latr
