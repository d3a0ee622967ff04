#include "tlbcoh/policy.hh"

#include "sim/logging.hh"
#include "trace/trace.hh"
#include "tlbcoh/abis_policy.hh"
#include "tlbcoh/barrelfish_policy.hh"
#include "tlbcoh/latr_policy.hh"
#include "tlbcoh/linux_policy.hh"
#include "tlbcoh/predictive_policy.hh"

namespace latr
{

namespace
{
void
checkEnv(const PolicyEnv &env)
{
    if (!env.queue || !env.topo || !env.config || !env.frames ||
        !env.ipi || !env.cores || !env.stats)
        panic("PolicyEnv is missing a required service");
}
} // namespace

TlbCoherencePolicy::TlbCoherencePolicy(PolicyEnv env)
    : env_((checkEnv(env), std::move(env))),
      ipiShootdownsCtr_(env_.stats->counter("coh.ipi_shootdowns")),
      remoteInterruptsCtr_(env_.stats->counter("coh.remote_interrupts")),
      syncOpsCtr_(env_.stats->counter("coh.sync_ops")),
      shootdownsCtr_(env_.stats->counter("coh.shootdowns")),
      numaSamplesCtr_(env_.stats->counter("numa.samples"))
{
}

TraceRecorder *
TlbCoherencePolicy::tracer() const
{
    return env_.trace && env_.trace->enabled() ? env_.trace : nullptr;
}

Tick
TlbCoherencePolicy::numaSampleReadyAt(AddressSpace *, Vpn) const
{
    return 0;
}

void
TlbCoherencePolicy::onSchedulerTick(CoreId, Tick)
{
}

void
TlbCoherencePolicy::onContextSwitch(CoreId, Tick)
{
}

CpuMask
TlbCoherencePolicy::remoteTargets(AddressSpace *mm,
                                  CoreId initiator) const
{
    CpuMask targets = mm->residencyMask();
    targets.clear(initiator);
    return targets;
}

void
TlbCoherencePolicy::polluteLlc(CoreId core)
{
    const NodeId node = env_.topo->nodeOf(core);
    if (node >= env_.llcs.size() || env_.llcs[node] == nullptr)
        return;
    LlcCache *llc = env_.llcs[node];
    // The interrupt handler's instruction/data footprint displaces
    // some application lines. Most of the footprint (IDT path,
    // handler code, per-core stack) recurs across interrupts and
    // stays warm; a couple of lines (the flush target's PTE area,
    // the ack line) are cold each time.
    const unsigned lines = cost().ipiHandlerCacheLines;
    const std::uint64_t base =
        0xF000'0000'0000ULL + static_cast<std::uint64_t>(core) * 4096;
    for (unsigned i = 0; i < lines; ++i)
        llc->access(base + i, CacheAccessOrigin::Interrupt);
    // The occasional line is genuinely cold (a PTE cache line of
    // the flushed range that aged out, a fresh ack line); the vast
    // majority of handler lines recur and stay warm, which is why
    // the paper's table 4 differences are small.
    if ((pollutionCursor_++ & 63) == 0)
        llc->access(0xF800'0000'0000ULL + pollutionCursor_,
                    CacheAccessOrigin::Interrupt);
}

Duration
TlbCoherencePolicy::shootdown(AddressSpace *mm, CoreId initiator,
                              const CpuMask &targets, Vpn start_vpn,
                              Vpn end_vpn, std::uint64_t npages,
                              Tick start)
{
    ipiShootdownsCtr_.inc();

    const Pcid pcid = mm->pcid();
    const bool full_flush = npages >= cost().fullFlushThreshold;
    const Duration handler_body = cost().localInvalidateCost(npages);

    auto on_deliver = [this, mm, pcid, full_flush, start_vpn, end_vpn,
                       handler_body](CoreId target, Tick) {
        Tlb &tlb = env_.cores->tlbOf(target);
        if (full_flush) {
            tlb.flushAll();
            // A fully flushed core holds nothing of any mm; at
            // minimum it stops being resident for this one. (Other
            // mms' masks are reconciled lazily by the scheduler.)
            if (!env_.cores->tlbOf(target).size())
                mm->residencyMask().clear(target);
        } else {
            tlb.invalidateRange(start_vpn, end_vpn, pcid);
        }
        env_.cores->chargeStolen(
            target, cost().ipiHandlerFixed + handler_body);
        polluteLlc(target);
        remoteInterruptsCtr_.inc();
    };

    IpiBroadcastResult r = env_.ipi->broadcast(
        initiator, targets, start, handler_body, on_deliver);
    if (TraceRecorder *t = tracer()) {
        const SpanId span = t->beginSpan(
            "coh", "coh.ipi_shootdown", start, initiator, mm->id(),
            npages);
        t->endSpan(span, r.allAcked);
    }
    return r.allAcked - start;
}

void
TlbCoherencePolicy::releaseAt(Tick at, AddressSpace *mm,
                              FreedFrames frames, Addr va_start,
                              Addr va_end)
{
    if (frames.empty() && va_end <= va_start)
        return;
    env_.queue->scheduleLambda(
        at, [mm, frames = std::move(frames), va_start,
             va_end]() mutable {
            frames.releaseTo(mm->frames());
            if (va_end > va_start)
                mm->releaseHoldback(va_start, va_end);
        });
}

Duration
TlbCoherencePolicy::syncFree(FreeOpContext &ctx, const CpuMask &targets,
                             Tick start)
{
    const std::uint64_t npages = ctx.frames.npages();
    Duration wait = 0;
    if (!targets.empty() && npages > 0) {
        wait = shootdown(ctx.mm, ctx.initiator, targets, ctx.startVpn,
                         ctx.endVpn, npages, start);
    }
    // The remote invalidations were scheduled before the last ACK,
    // so freeing then keeps the reuse invariant by construction.
    releaseAt(start + wait, ctx.mm, std::move(ctx.frames));
    return wait;
}

Duration
TlbCoherencePolicy::onFreePages(FreeOpContext ctx, Tick start)
{
    shootdownsCtr_.inc();
    const CpuMask targets = remoteTargets(ctx.mm, ctx.initiator);
    return syncFree(ctx, targets, start);
}

Duration
TlbCoherencePolicy::onSyncShootdown(AddressSpace *mm, CoreId initiator,
                                    Vpn start_vpn, Vpn end_vpn,
                                    std::uint64_t npages, Tick start)
{
    syncOpsCtr_.inc();
    CpuMask targets = remoteTargets(mm, initiator);
    const Duration wait = shootdown(mm, initiator, targets, start_vpn,
                                    end_vpn, npages, start);
    if (TraceRecorder *t = tracer()) {
        const SpanId span = t->beginSpan("coh", "coh.sync_shootdown",
                                         start, initiator, mm->id(),
                                         npages);
        t->endSpan(span, start + wait);
    }
    return wait;
}

Duration
TlbCoherencePolicy::syncNumaSample(AddressSpace *mm, CoreId initiator,
                                   Pte *pte, Vpn vpn, Tick start)
{
    // change_prot_numa: make the PTE prot-none, invalidate locally,
    // then shoot down everywhere — the cost the paper's figure 3a
    // shows on the AutoNUMA critical path.
    pte->flags |= kPteProtNone;
    const Duration local = cost().pteClearPerPage + cost().invlpg;
    env_.cores->tlbOf(initiator).invalidatePage(vpn, mm->pcid());
    CpuMask targets = remoteTargets(mm, initiator);
    return local + shootdown(mm, initiator, targets, vpn, vpn, 1,
                             start + local);
}

Duration
TlbCoherencePolicy::onNumaSample(AddressSpace *mm, CoreId initiator,
                                 Vpn vpn, Tick start)
{
    Pte *pte = mm->pageTable().find(vpn);
    if (!pte)
        return 0; // raced with an unmap; nothing to sample
    shootdownsCtr_.inc();
    numaSamplesCtr_.inc();
    return syncNumaSample(mm, initiator, pte, vpn, start);
}

std::unique_ptr<TlbCoherencePolicy>
makePolicy(PolicyKind kind, PolicyEnv env)
{
    switch (kind) {
      case PolicyKind::LinuxSync:
        return std::make_unique<LinuxPolicy>(std::move(env));
      case PolicyKind::Latr:
        return std::make_unique<LatrPolicy>(std::move(env));
      case PolicyKind::Abis:
        return std::make_unique<AbisPolicy>(std::move(env));
      case PolicyKind::Barrelfish:
        return std::make_unique<BarrelfishPolicy>(std::move(env));
      case PolicyKind::Predictive:
        return std::make_unique<PredictivePolicy>(std::move(env));
    }
    panic("unknown policy kind");
}

const char *
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::LinuxSync:
        return "Linux";
      case PolicyKind::Latr:
        return "LATR";
      case PolicyKind::Abis:
        return "ABIS";
      case PolicyKind::Barrelfish:
        return "Barrelfish";
      case PolicyKind::Predictive:
        return "Predictive";
    }
    return "?";
}

const std::vector<std::pair<std::string, PolicyKind>> &
policyKindFlags()
{
    static const std::vector<std::pair<std::string, PolicyKind>> flags =
        {{"linux", PolicyKind::LinuxSync},
         {"latr", PolicyKind::Latr},
         {"abis", PolicyKind::Abis},
         {"barrelfish", PolicyKind::Barrelfish},
         {"pred", PolicyKind::Predictive}};
    return flags;
}

} // namespace latr
