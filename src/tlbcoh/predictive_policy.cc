#include "tlbcoh/predictive_policy.hh"

#include <utility>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace latr
{

PredictivePolicy::PredictivePolicy(PolicyEnv env)
    : TlbCoherencePolicy(std::move(env)),
      ipisSavedCtr_(env_.stats->counter("pred.ipis_saved")),
      mispredictsCtr_(env_.stats->counter("pred.mispredicts")),
      fallbackShootdownsCtr_(
          env_.stats->counter("pred.fallback_shootdowns")),
      verifiesCtr_(env_.stats->counter("pred.verifies"))
{
}

PolicyCapabilities
PredictivePolicy::capabilities() const
{
    PolicyCapabilities caps;
    caps.asynchronous = true; // frame release and full coherence defer
    caps.nonIpiBased = false;
    caps.noRemoteCoreInvolvement = false;
    caps.noHardwareChanges = true;
    caps.lazyFreeCapable = true;
    caps.lazyMigrationCapable = false;
    return caps;
}

Duration
PredictivePolicy::fallbackRoundTripBound() const
{
    // Worst-case full-mask shootdown issued by the verifier: ICR
    // writes serialize per target, then the farthest delivery, its
    // handler, and a full flush. Invalidation happens at delivery,
    // so handler + flush are pure margin.
    const unsigned hops = env_.topo->maxHops();
    const Duration sends = static_cast<Duration>(
                               env_.cores->coreCount()) *
                           cost().ipiSendCost(hops);
    return sends + cost().ipiDeliveryCost(hops) +
           cost().ipiHandlerFixed + cost().tlbFullFlush;
}

StalenessContract
PredictivePolicy::stalenessContract() const
{
    // A stale translation on an unpredicted core survives until the
    // verification pass one tick interval after the op completes,
    // plus the fallback shootdown that pass issues. The 5 µs slack
    // mirrors LatrPolicy's allowance for event-processing skew.
    return StalenessContract{
        cost().tickInterval + 5 * kUsec + fallbackRoundTripBound(),
        "predicted shootdowns are verified by TLB probes "
        "within one scheduler epoch; stale hits die in one full-mask "
        "fallback round-trip"};
}

bool
PredictivePolicy::coreHoldsStale(CoreId core,
                                 const VerifyEvent *ev) const
{
    // Read-only pfn-matched probes: a vpn re-mapped to a *different*
    // frame since the free is a live translation, not a stale one.
    // The freed frames are parked on the verify event, so no other
    // mapping can alias them while we probe.
    const Tlb &tlb = env_.cores->tlbOf(core);
    const Pcid pcid = ev->mm->pcid();
    Pfn pfn = 0;
    for (const auto &page : ev->frames.pages) {
        if (tlb.probePfn(page.first, pcid, &pfn) && pfn == page.second)
            return true;
    }
    for (const auto &page : ev->frames.hugePages) {
        if (tlb.probeHugePfn(page.first, pcid, &pfn) &&
            pfn == page.second)
            return true;
    }
    return false;
}

Duration
PredictivePolicy::onFreePages(FreeOpContext ctx, Tick start)
{
    shootdownsCtr_.inc();

    const std::uint64_t npages = ctx.frames.npages();
    CpuMask candidates = remoteTargets(ctx.mm, ctx.initiator);

    if (npages == 0)
        return 0; // nothing was mapped: no translations anywhere

    if (candidates.empty()) {
        // No remote core can hold an entry and the initiator already
        // invalidated: free immediately, Linux-style.
        releaseAt(start, ctx.mm, std::move(ctx.frames));
        return 0;
    }

    // Feature vector: mm, containing VMA (gone already for munmap —
    // the released base stands in), the recent-accessor union of the
    // freed pages (cheap access-bit reads, the feature COALESCE-style
    // hashing thrives on), and the initiating core.
    SharerFeatures f;
    f.mm = ctx.mm->id();
    f.vmaId = ctx.vaStart;
    if (const Vma *vma = ctx.mm->findVma(addrOf(ctx.startVpn)))
        f.vmaId = vma->start;
    f.initiator = ctx.initiator;
    const CpuMask accessors = ctx.mm->sharersOf(ctx.frames);
    accessors.forEachWord([&f](unsigned w, std::uint64_t v) {
        f.accessorWords[w] = v;
    });

    CpuMask predicted = predictor_.predict(f, candidates);
    if (env_.config->injectMispredictSharers)
        predicted.reset(); // maximally wrong: every sharer missed

    ipisSavedCtr_.inc(candidates.count() - predicted.count());
    if (TraceRecorder *t = tracer())
        t->instant("pred", "pred.predict", start, ctx.initiator,
                   ctx.mm->id(), predicted.count());

    // Probe the predicted cores *before* their IPIs land: the ack
    // carries whether the core actually held a translation, which is
    // the positive half of the training signal (the negative half —
    // unpredicted sharers — comes from the verification pass).
    VerifyEvent *ev = acquireVerifyEvent();
    ev->ackSharers.reset();
    ev->mm = ctx.mm;
    ev->startVpn = ctx.startVpn;
    ev->endVpn = ctx.endVpn;
    ev->npages = npages;
    ev->frames = std::move(ctx.frames);
    ev->vaStart = ctx.vaStart;
    ev->vaEnd = ctx.vaEnd;
    ev->candidates = candidates;
    ev->predicted = predicted;
    ev->features = f;
    ev->owner = ctx.initiator;
    predicted.forEach([&](CoreId c) {
        if (coreHoldsStale(c, ev))
            ev->ackSharers.set(c);
    });

    Duration wait = 0;
    if (!predicted.empty()) {
        wait = shootdown(ctx.mm, ctx.initiator, predicted,
                         ev->startVpn, ev->endVpn, npages, start);
    }

    // Park the virtual range until verification confirms coherence
    // (the reuse invariant, paper section 4.2).
    if (ev->vaEnd > ev->vaStart)
        ev->mm->holdbackRange(ev->vaStart, ev->vaEnd);

    scheduleVerify(ev, start + wait + cost().tickInterval);
    return wait;
}

void
PredictivePolicy::VerifyEvent::process()
{
    policy->runVerify(this);
}

PredictivePolicy::VerifyEvent *
PredictivePolicy::acquireVerifyEvent()
{
    VerifyEvent *ev;
    if (!freeVerifyEvents_.empty()) {
        ev = freeVerifyEvents_.back();
        freeVerifyEvents_.pop_back();
    } else {
        verifyEvents_.push_back(std::make_unique<VerifyEvent>());
        ev = verifyEvents_.back().get();
        ev->policy = this;
    }
    return ev;
}

void
PredictivePolicy::scheduleVerify(VerifyEvent *ev, Tick at)
{
    if (at < env_.queue->now())
        at = env_.queue->now();
    env_.queue->schedule(ev, at);
}

void
PredictivePolicy::runVerify(VerifyEvent *ev)
{
    const Tick now = env_.queue->now();
    verifiesCtr_.inc();

    CpuMask stale;
    ev->candidates.forEach([&](CoreId c) {
        if (coreHoldsStale(c, ev))
            stale.set(c);
    });

    // Train on the confirmed outcome: predicted cores reported via
    // their acks, unpredicted sharers just surfaced as stale hits.
    CpuMask actual = ev->ackSharers;
    actual.orWith(stale);
    predictor_.train(ev->features, ev->candidates, actual);

    Duration wait = 0;
    if (!stale.empty()) {
        // Misprediction: a sharer we skipped still holds a freed
        // translation. Full-mask fallback to the entire candidate
        // set, charged to the owning core's background time.
        mispredictsCtr_.inc(stale.count());
        fallbackShootdownsCtr_.inc();
        if (TraceRecorder *t = tracer())
            t->instant("pred", "pred.mispredict", now, ev->owner,
                       ev->mm->id(), stale.count());
        wait = shootdown(ev->mm, ev->owner, ev->candidates,
                         ev->startVpn, ev->endVpn, ev->npages, now);
        env_.cores->chargeStolen(
            ev->owner, static_cast<Duration>(ev->candidates.count()) *
                           cost().ipiSendBase);
    } else if (TraceRecorder *t = tracer()) {
        t->instant("pred", "pred.confirm", now, ev->owner,
                   ev->mm->id(), ev->predicted.count());
    }

    if (wait == 0) {
        // Clean (or empty) verification: coherence certain now.
        ev->frames.releaseTo(ev->mm->frames());
        if (ev->vaEnd > ev->vaStart)
            ev->mm->releaseHoldback(ev->vaStart, ev->vaEnd);
    } else {
        // Fallback in flight: release only when its last delivery
        // has invalidated everything.
        releaseAt(now + wait, ev->mm, std::move(ev->frames),
                  ev->vaStart, ev->vaEnd);
    }

    ev->mm = nullptr;
    freeVerifyEvents_.push_back(ev);
}

} // namespace latr
