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
    CpuMask sharers = ctx.mm->sharersOf(ctx.frames);
    sharers.andWith(ctx.mm->residencyMask());
    sharers.clear(ctx.initiator);

    const std::uint64_t npages = ctx.frames.npages();
    const Duration scan =
        cost().abisPerPageScan *
        static_cast<Duration>(ctx.frames.pteCount());
    if (TraceRecorder *t = tracer()) {
        const SpanId span =
            t->beginSpan("abis", "abis.sharer_scan", start,
                         ctx.initiator, ctx.mm->id(), npages);
        t->endSpan(span, start + scan);
    }

    if (sharers.empty() || npages == 0) {
        shootdownsAvoidedCtr_.inc();
        if (TraceRecorder *t = tracer())
            t->instant("abis", "abis.shootdown_avoided", start + scan,
                       ctx.initiator, ctx.mm->id(), npages);
    }
    return scan + syncFree(ctx, sharers, start + scan);
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
    // Unlike Linux, no sharer means no shootdown at all.
    if (sharers.empty()) {
        shootdownsAvoidedCtr_.inc();
        return local;
    }
    return local + shootdown(mm, initiator, sharers, vpn, vpn, 1,
                             start + local);
}

} // namespace latr
