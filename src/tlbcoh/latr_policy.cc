#include "tlbcoh/latr_policy.hh"

#include <algorithm>
#include <cassert>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace latr
{

LatrPolicy::LatrPolicy(PolicyEnv env)
    : TlbCoherencePolicy(std::move(env)),
      fastpath_(!env_.config->noFastpath),
      sweepsCtr_(env_.stats->counter("latr.sweeps")),
      sweepMatchesCtr_(env_.stats->counter("latr.sweep_matches")),
      statesSavedCtr_(env_.stats->counter("latr.states_saved")),
      fallbackIpisCtr_(env_.stats->counter("latr.fallback_ipis")),
      migrationUnmapsCtr_(
          env_.stats->counter("latr.migration_unmaps_completed")),
      reclaimedPagesCtr_(env_.stats->counter("latr.reclaimed_pages"))
{
    rings_.resize(env_.cores->coreCount());
    for (auto &ring : rings_)
        ring.resize(env_.config->latrStatesPerCore);
    allocCursor_.assign(rings_.size(), 0);
}

PolicyCapabilities
LatrPolicy::capabilities() const
{
    PolicyCapabilities caps;
    caps.asynchronous = true;
    caps.nonIpiBased = true;
    caps.noRemoteCoreInvolvement = true;
    caps.noHardwareChanges = true;
    caps.lazyFreeCapable = true;
    caps.lazyMigrationCapable = true;
    return caps;
}

LatrState *
LatrPolicy::allocSlot(CoreId core)
{
    std::vector<LatrState> &ring = rings_[core];
    unsigned &cursor = allocCursor_[core];
    for (std::size_t n = 0; n < ring.size(); ++n) {
        const std::size_t at = (cursor + n) % ring.size();
        if (ring[at].phase == LatrStatePhase::Empty) {
            cursor = static_cast<unsigned>((at + 1) % ring.size());
            return &ring[at];
        }
    }
    return nullptr;
}

const std::vector<LatrState> &
LatrPolicy::ringOf(CoreId core) const
{
    // Per-sweep hot path: unchecked indexing with a debug assert,
    // per the allocation-free hot-path rules. Core ids come from the
    // topology the rings were sized for.
    assert(core < rings_.size());
    return rings_[core];
}

std::uint64_t
LatrPolicy::lazyBytes() const
{
    std::uint64_t pages = 0;
    for (const LatrState *s : active_)
        pages += s->frames.npages();
    for (const LatrState *s : pending_)
        pages += s->frames.npages();
    return pages * kPageSize;
}

Duration
LatrPolicy::onFreePages(FreeOpContext ctx, Tick start)
{
    // The paper's section 7 override: callers that need immediate
    // reuse semantics (use-after-free detectors) get the IPI path.
    LatrState *slot =
        ctx.syncRequested ? nullptr : allocSlot(ctx.initiator);
    shootdownsCtr_.inc();

    if (!slot) {
        // Ring full (or sync requested): fall back to IPIs
        // (section 8), behaving exactly like the Linux baseline.
        if (!ctx.syncRequested) {
            fallbackIpisCtr_.inc();
            if (TraceRecorder *t = tracer())
                t->instant("latr", "latr.ring_full_fallback", start,
                           ctx.initiator, ctx.mm->id());
        }
        return syncFree(ctx, remoteTargets(ctx.mm, ctx.initiator),
                        start);
    }

    // Save the LATR state: one ring entry written with ordinary
    // stores — no IPI, no wait (figure 2b).
    slot->phase = LatrStatePhase::Active;
    slot->kind = LatrStateKind::Free;
    slot->mm = ctx.mm;
    slot->startVpn = ctx.startVpn;
    slot->endVpn = ctx.endVpn;
    slot->cpuMask = remoteTargets(ctx.mm, ctx.initiator);
    slot->savedAt = start;
    slot->owner = ctx.initiator;
    slot->pteCleared = true; // free ops clear PTEs synchronously
    slot->frames = std::move(ctx.frames);
    slot->vaStart = ctx.vaStart;
    slot->vaEnd = ctx.vaEnd;

    // Park the virtual range so mmap() cannot hand it out before
    // the TLB entries are gone (the reuse invariant, section 4.2).
    if (slot->vaEnd > slot->vaStart)
        ctx.mm->holdbackRange(slot->vaStart, slot->vaEnd);

    statesSavedCtr_.inc();
    if (TraceRecorder *t = tracer()) {
        const SpanId span = t->beginSpan(
            "latr", "latr.state_save", start, ctx.initiator,
            ctx.mm->id(), slot->frames.pteCount());
        t->endSpan(span, start + cost().latrStateSave);
    }

    if (slot->cpuMask.empty()) {
        // No remote core can hold an entry; skip straight to the
        // aging stage.
        deactivate(slot, start);
    } else {
        active_.push_back(slot);
        pendingSweepers_.orWith(slot->cpuMask);
    }
    scheduleReclaimPass(slot->savedAt + cost().latrReclaimDelay + 1);
    if (TraceRecorder *t = tracer())
        t->counter("latr", "latr.lazy_bytes", start,
                   static_cast<double>(lazyBytes()));

    return cost().latrStateSave;
}

Duration
LatrPolicy::onNumaSample(AddressSpace *mm, CoreId initiator, Vpn vpn,
                         Tick start)
{
    Pte *pte = mm->pageTable().find(vpn);
    if (!pte)
        return 0; // raced with an unmap

    LatrState *slot = allocSlot(initiator);
    if (!slot) {
        // Ring full: sample the Linux way. Unlike the ring-full free
        // path, this fallback counts neither coh.shootdowns nor
        // numa.samples.
        fallbackIpisCtr_.inc();
        return syncNumaSample(mm, initiator, pte, vpn, start);
    }

    shootdownsCtr_.inc();
    numaSamplesCtr_.inc();
    statesSavedCtr_.inc();
    if (TraceRecorder *t = tracer()) {
        const SpanId span = t->beginSpan(
            "latr", "latr.migration_state_save", start, initiator,
            mm->id(), vpn);
        t->endSpan(span, start + cost().latrStateSave);
    }

    slot->phase = LatrStatePhase::Active;
    slot->kind = LatrStateKind::Migration;
    slot->mm = mm;
    slot->startVpn = vpn;
    slot->endVpn = vpn;
    // Migration states include every resident core — the initiator
    // too, since the sampling daemon did not invalidate anything
    // (figure 3b).
    slot->cpuMask = mm->residencyMask();
    slot->savedAt = start;
    slot->owner = initiator;
    slot->pteCleared = false;
    slot->vaStart = 0;
    slot->vaEnd = 0;

    if (slot->cpuMask.empty()) {
        // Nothing resident anywhere: clear the PTE immediately.
        pte->flags |= kPteProtNone;
        slot->phase = LatrStatePhase::Empty;
    } else {
        active_.push_back(slot);
        pendingSweepers_.orWith(slot->cpuMask);
        // The migrating fault on this page is gated (via
        // numaSampleReadyAt) until every core swept; each masked
        // core sweeps at latest at its next tick, so
        // start + tickInterval (+ slack) is a sound upper bound
        // (section 4.4). Unrelated faults are NOT blocked — in
        // Linux both the scan and the fault path hold mmap_sem for
        // read, so they coexist.
    }
    return cost().latrStateSave;
}

Tick
LatrPolicy::numaSampleReadyAt(AddressSpace *mm, Vpn vpn) const
{
    Tick ready = 0;
    for (const LatrState *state : active_) {
        if (state->phase != LatrStatePhase::Active)
            continue;
        if (state->kind != LatrStateKind::Migration)
            continue;
        if (state->mm != mm || state->startVpn != vpn)
            continue;
        ready = std::max(ready, state->savedAt + cost().tickInterval +
                                    migrationBlockSlack());
    }
    return ready;
}

void
LatrPolicy::touchSweepLlc(CoreId core, unsigned matches)
{
    // The sweep reads every core's state block through the cache
    // hierarchy; the footprint is tiny and hot (table 4's point).
    // With the section 7 scratchpad, the states bypass the LLC
    // entirely. Even a matchless sweep touches the first line — the
    // ring heads must be read to discover there is nothing to do.
    const NodeId node = env_.topo->nodeOf(core);
    if (!env_.config->latrScratchpad && node < env_.llcs.size() &&
        env_.llcs[node]) {
        const std::uint64_t base = 0xE000'0000'0000ULL;
        for (unsigned i = 0; i <= matches; ++i)
            env_.llcs[node]->access(base + i,
                                    CacheAccessOrigin::LatrSweep);
    }
}

void
LatrPolicy::sweep(CoreId core, Tick now)
{
    sweepsCtr_.inc();

    if (fastpath_ && !pendingSweepers_.test(core)) {
        // Elided sweep: no active state addresses this core, so the
        // scan would match nothing. Charge and model exactly what
        // the naive matchless scan does — latrSweepFixed of stolen
        // time and one LLC line — and skip only the host-side walk
        // of active_.
        env_.cores->chargeStolen(core, cost().latrSweepFixed);
        touchSweepLlc(core, 0);
        return;
    }

    Duration spent = cost().latrSweepFixed;
    unsigned matches = 0;
    Tlb &tlb = env_.cores->tlbOf(core);

    for (LatrState *state : active_) {
        if (state->phase != LatrStatePhase::Active)
            continue;
        if (!state->cpuMask.test(core))
            continue;
        ++matches;

        if (state->kind == LatrStateKind::Migration &&
            !state->pteCleared) {
            // First sweeping core performs the deferred page-table
            // unmap (figure 3b's "Clear PTE").
            Pte *pte = state->mm->pageTable().find(state->startVpn);
            if (pte)
                pte->flags |= kPteProtNone;
            state->pteCleared = true;
            spent += cost().pteClearPerPage;
        }

        const std::uint64_t npages = state->endVpn - state->startVpn + 1;
        if (npages >= cost().fullFlushThreshold) {
            tlb.flushAll();
            // A fully flushed core holds nothing of this mm anymore;
            // keep the residency mask honest (as the IPI path does).
            if (tlb.size() == 0)
                state->mm->residencyMask().clear(core);
        } else {
            tlb.invalidateRange(state->startVpn, state->endVpn,
                                state->mm->pcid());
        }
        spent += cost().localInvalidateCost(npages);

        state->cpuMask.clear(core);
        if (state->cpuMask.empty())
            deactivate(state, now);
    }

    // Compact: deactivated states left the Active phase.
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [](LatrState *s) {
                                     return s->phase !=
                                            LatrStatePhase::Active;
                                 }),
                  active_.end());

    spent += matches * cost().latrSweepPerMatch;
    sweepMatchesCtr_.inc(matches);
    env_.cores->chargeStolen(core, spent);
    if (TraceRecorder *t = tracer()) {
        // The per-tick state sweep (figure 2b's remote half). Idle
        // sweeps (no matches) are elided to keep the trace readable.
        if (matches > 0) {
            const SpanId span = t->beginSpan("latr", "latr.sweep",
                                             now, core, kTraceNoMm,
                                             matches);
            t->endSpan(span, now + spent);
        }
    }

    touchSweepLlc(core, matches);

    // This sweep visited every active state addressing this core and
    // cleared the core's bit from each match, so nothing addresses
    // the core anymore: drop it from the summary mask until the next
    // publish.
    pendingSweepers_.clear(core);
}

void
LatrPolicy::deactivate(LatrState *state, Tick now)
{
    if (state->kind == LatrStateKind::Migration) {
        // Nothing to reclaim; the gating bound set at save time
        // already covers this tick. The slot is immediately
        // reusable.
        state->phase = LatrStatePhase::Empty;
        migrationUnmapsCtr_.inc();
        return;
    }
    state->phase = LatrStatePhase::PendingReclaim;
    pending_.push_back(state);
    // The save-time pass at savedAt + delay + 1 covers any state
    // that deactivates within the aging window: by that tick the
    // state is pending and old enough. Only a core that swept very
    // late — at or after the tick that pass runs, so it may already
    // have missed this state — needs a fresh pass.
    if (now > state->savedAt + cost().latrReclaimDelay)
        scheduleReclaimPass(now + 1);
}

void
LatrPolicy::ReclaimPassEvent::process()
{
    policy->runReclaimPass(this);
}

void
LatrPolicy::scheduleReclaimPass(Tick eligible_at)
{
    if (eligible_at < env_.queue->now())
        eligible_at = env_.queue->now();
    ReclaimPassEvent *ev;
    if (!freeReclaimEvents_.empty()) {
        ev = freeReclaimEvents_.back();
        freeReclaimEvents_.pop_back();
    } else {
        reclaimEvents_.push_back(
            std::make_unique<ReclaimPassEvent>());
        ev = reclaimEvents_.back().get();
        ev->policy = this;
    }
    ev->eligibleAt = eligible_at;
    env_.queue->schedule(ev, eligible_at);
}

void
LatrPolicy::reclaimState(LatrState *state)
{
    // Free the frames, release the virtual range, charge the
    // background thread's work to the ring owner.
    const std::uint64_t npages = state->frames.npages();
    const MmId mm_id = state->mm ? state->mm->id() : kTraceNoMm;
    const CoreId owner = state->owner;
    const Duration spent =
        cost().latrReclaimPerPage *
        static_cast<Duration>(state->frames.pteCount());
    state->frames.releaseTo(state->mm->frames());
    reclaimedPagesCtr_.inc(npages);
    if (state->vaEnd > state->vaStart)
        state->mm->releaseHoldback(state->vaStart, state->vaEnd);
    env_.cores->chargeStolen(state->owner, spent);
    state->mm = nullptr;
    state->phase = LatrStatePhase::Empty;
    if (TraceRecorder *t = tracer()) {
        // Background reclamation: the lazily freed pages finally
        // return to the allocator (~2 ms after the munmap).
        const Tick now = env_.queue->now();
        const SpanId span = t->beginSpan("latr", "latr.reclaim", now,
                                         owner, mm_id, npages);
        t->endSpan(span, now + spent);
    }
}

void
LatrPolicy::runReclaimPass(ReclaimPassEvent *ev)
{
    const Tick now = ev->eligibleAt;
    std::vector<LatrState *> &keep = reclaimScratch_;
    keep.clear();
    keep.reserve(pending_.size());
    for (LatrState *state : pending_) {
        // Eligible: every TLB entry died (the state deactivated) and
        // at least the aging window passed since the save.
        if (now < state->savedAt + cost().latrReclaimDelay) {
            keep.push_back(state);
            continue;
        }
        reclaimState(state);
    }
    pending_.swap(keep);

    if (env_.config->latrTimeOnlyReclaim) {
        // The paper's pure time-bound reclamation: age alone makes a
        // state eligible. Sound if (and only if) the delay covers
        // every core's sweep — which is exactly what
        // bench_ablation_reclaim demonstrates.
        bool any = false;
        for (LatrState *state : active_) {
            if (state->phase != LatrStatePhase::Active)
                continue;
            if (state->kind != LatrStateKind::Free)
                continue;
            if (now < state->savedAt + cost().latrReclaimDelay)
                continue;
            reclaimState(state);
            any = true;
        }
        if (any) {
            active_.erase(
                std::remove_if(active_.begin(), active_.end(),
                               [](LatrState *s) {
                                   return s->phase !=
                                          LatrStatePhase::Active;
                               }),
                active_.end());
        }
    }

    freeReclaimEvents_.push_back(ev);
}

void
LatrPolicy::onSchedulerTick(CoreId core, Tick now)
{
    if (env_.config->injectSkipLatrSweep)
        return;
    sweep(core, now);
}

void
LatrPolicy::onContextSwitch(CoreId core, Tick now)
{
    if (env_.config->injectSkipLatrSweep)
        return;
    if (env_.config->latrSweepAtContextSwitch)
        sweep(core, now);
}

StalenessContract
LatrPolicy::stalenessContract() const
{
    // Every core sweeps at latest at its next scheduler tick, so a
    // translation invalidated-in-page-tables dies within one tick
    // interval of the free operation returning. The slack mirrors
    // numaSampleReadyAt's allowance for sweep processing time.
    return StalenessContract{
        cost().tickInterval + migrationBlockSlack(),
        "remote cores sweep LATR states within one scheduler epoch"};
}

} // namespace latr
