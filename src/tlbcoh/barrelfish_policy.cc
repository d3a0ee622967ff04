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
BarrelfishPolicy::shootdown(AddressSpace *mm, CoreId initiator,
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

} // namespace latr
