#include "tlbcoh/barrelfish_policy.hh"

#include <algorithm>

#include "trace/trace.hh"

namespace latr
{

BarrelfishPolicy::BarrelfishPolicy(PolicyEnv env)
    : TlbCoherencePolicy(std::move(env)), rng_(0xbf15)
{
}

PolicyCapabilities
BarrelfishPolicy::capabilities() const
{
    PolicyCapabilities caps;
    caps.asynchronous = false; // still waits for ACKs
    caps.nonIpiBased = true;
    caps.noRemoteCoreInvolvement = false; // remote cores still apply
    caps.noHardwareChanges = true;
    caps.lazyFreeCapable = false;
    caps.lazyMigrationCapable = false;
    return caps;
}

Duration
BarrelfishPolicy::messageShootdown(AddressSpace *mm, CoreId initiator,
                                   const CpuMask &targets, Vpn start_vpn,
                                   Vpn end_vpn, std::uint64_t npages,
                                   Tick start)
{
    env_.stats->counter("coh.msg_shootdowns").inc();

    const Pcid pcid = mm->pcid();
    const bool full_flush = npages >= cost().fullFlushThreshold;
    const Duration inval = cost().localInvalidateCost(npages);

    Tick send_clock = start;
    Tick all_acked = start;
    targets.forEach([&](CoreId target) {
        if (target == initiator)
            return;
        const unsigned hops = env_.topo->hops(initiator, target);
        // Writing the channel line is cheap; the line then migrates
        // to the target's cache.
        send_clock += cost().bfSendPerTarget;
        const Tick visible = send_clock + cost().cachelineCost(hops);
        // The target notices at its next kernel poll point.
        const Duration poll_delay =
            rng_.nextBounded(cost().bfPollWindow + 1);
        const Tick applied_at = visible + poll_delay;

        env_.queue->scheduleLambda(
            applied_at, [this, pcid, full_flush, start_vpn, end_vpn,
                         inval, target]() {
                Tlb &tlb = env_.cores->tlbOf(target);
                if (full_flush)
                    tlb.flushAll();
                else
                    tlb.invalidateRange(start_vpn, end_vpn, pcid);
                // No interrupt entry/exit — only the invalidation
                // itself steals time (the mechanism's selling point).
                env_.cores->chargeStolen(target, inval);
            });

        const Tick acked =
            applied_at + inval + cost().cachelineCost(hops);
        all_acked = std::max(all_acked, acked);

        if (TraceRecorder *t = tracer()) {
            // Channel write visible -> poll noticed -> invalidated.
            const SpanId span = t->beginSpan(
                "bf", "bf.msg_apply", visible, target, mm->id(),
                npages);
            t->endSpan(span, applied_at + inval);
        }
    });
    if (TraceRecorder *t = tracer()) {
        const SpanId span = t->beginSpan("bf", "bf.msg_shootdown",
                                         start, initiator, mm->id(),
                                         npages);
        t->endSpan(span, all_acked);
    }
    return all_acked - start;
}

Duration
BarrelfishPolicy::onFreePages(FreeOpContext ctx, Tick start)
{
    shootdownsCtr_.inc();

    CpuMask targets = remoteTargets(ctx.mm, ctx.initiator);
    const std::uint64_t npages =
        ctx.pages.size() + ctx.hugePages.size() * kHugePageSpan;
    Duration wait = 0;
    if (!targets.empty() && npages > 0) {
        wait = messageShootdown(ctx.mm, ctx.initiator, targets,
                                ctx.startVpn, ctx.endVpn, npages,
                                start);
    }
    if (!ctx.pages.empty() || !ctx.hugePages.empty()) {
        AddressSpace *mm = ctx.mm;
        auto pages = std::move(ctx.pages);
        auto huge = std::move(ctx.hugePages);
        env_.queue->scheduleLambda(start + wait, [mm, pages, huge]() {
            for (const auto &page : pages)
                mm->frames().put(page.second);
            for (const auto &page : huge)
                mm->frames().putHuge(page.second);
        });
    }
    return wait;
}

Duration
BarrelfishPolicy::onNumaSample(AddressSpace *mm, CoreId initiator,
                               Vpn vpn, Tick start)
{
    Pte *pte = mm->pageTable().find(vpn);
    if (!pte)
        return 0;

    shootdownsCtr_.inc();
    numaSamplesCtr_.inc();

    pte->flags |= kPteProtNone;
    Duration local = cost().pteClearPerPage + cost().invlpg;
    env_.cores->tlbOf(initiator).invalidatePage(vpn, mm->pcid());

    CpuMask targets = remoteTargets(mm, initiator);
    return local + messageShootdown(mm, initiator, targets, vpn, vpn, 1,
                                    start + local);
}

Duration
BarrelfishPolicy::onSyncShootdown(AddressSpace *mm, CoreId initiator,
                                  Vpn start_vpn, Vpn end_vpn,
                                  std::uint64_t npages, Tick start)
{
    syncOpsCtr_.inc();
    CpuMask targets = remoteTargets(mm, initiator);
    return messageShootdown(mm, initiator, targets, start_vpn, end_vpn,
                            npages, start);
}

} // namespace latr
