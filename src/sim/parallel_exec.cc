#include "sim/parallel_exec.hh"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace latr
{

namespace
{
/**
 * Batch size cap. Bounds how far the dispatcher speculates past the
 * commit frontier (and therefore how much interloper scanning a
 * commit can owe); far above the handful of same-phase ticks a
 * machine produces, far below anything that would hurt — and well
 * under the executor's 2^16 claim-cursor field.
 */
constexpr std::size_t kMaxBatch = 128;

/** One polite spin-wait iteration. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/** Pin the calling thread to host CPU @p lane mod the CPU count. */
void
pinToHostCpu(unsigned lane)
{
#ifdef __linux__
    const unsigned ncpus = std::thread::hardware_concurrency();
    if (ncpus == 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(lane % ncpus, &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
#else
    (void)lane;
#endif
}
} // namespace

ParallelExecutor::ParallelExecutor(unsigned threads, bool pinWorkers,
                                   bool forceOffload)
    : threads_(threads == 0 ? 1 : threads), pinWorkers_(pinWorkers),
      spinIters_(std::thread::hardware_concurrency() >= threads_
                     ? kSpinIters
                     : 0),
      offload_(forceOffload ||
               std::thread::hardware_concurrency() >= 2)
{
    computedBy_.assign(threads_, 0);
    workers_.reserve(threads_ - 1);
    for (unsigned i = 1; i < threads_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ParallelExecutor::~ParallelExecutor()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_.store(true, std::memory_order_release);
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ParallelExecutor::drainBatch(unsigned lane, Event *const *events,
                             std::size_t count, std::uint64_t gen)
{
    const std::uint64_t tag = gen << kCursorBits;
    std::size_t local = 0;
    std::uint64_t t = ticket_.load(std::memory_order_acquire);
    for (;;) {
        if ((t & ~kCursorMask) != tag)
            break; // slept through a batch boundary: claim nothing
        const std::size_t idx =
            static_cast<std::size_t>(t & kCursorMask);
        if (idx >= count)
            break;
        if (!ticket_.compare_exchange_weak(t, t + 1,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire))
            continue; // lost the race; t reloaded by the CAS
        laneOf_[idx] = static_cast<std::uint8_t>(lane);
        events[idx]->compute();
        ++local;
        t = ticket_.load(std::memory_order_acquire);
    }
    if (local == 0)
        return; // claimed nothing: no completion to publish
    computedBy_[lane] += local;
    // A successful tag-guarded claim belongs to the live batch, and
    // the coordinator cannot retire that batch (completed_ == count)
    // until every claimant publishes — so this contribution can never
    // land on a later batch's completed_. The coordinator usually
    // spins the last computes out; the lock-then-notify only matters
    // when it gave up and went to sleep (taking mu_ here orders this
    // publish against its predicate check, so the wakeup cannot be
    // lost).
    const std::size_t done =
        completed_.fetch_add(local, std::memory_order_acq_rel) +
        local;
    if (done == count) {
        std::lock_guard<std::mutex> lock(mu_);
        done_.notify_one();
    }
}

void
ParallelExecutor::workerLoop(unsigned lane)
{
    if (pinWorkers_)
        pinToHostCpu(lane);
    // `seen` is the truncated generation tag of the last batch this
    // worker drained (the ticket's high bits).
    std::uint64_t seen = 0;
    for (;;) {
        std::uint64_t tag;
        unsigned spins = 0;
        for (;;) {
            if (stop_.load(std::memory_order_acquire))
                return;
            tag = ticket_.load(std::memory_order_acquire) >>
                  kCursorBits;
            if (tag != seen)
                break;
            if (++spins < spinIters_) {
                cpuRelax();
                continue;
            }
            // Idle phase: sleep until the next publish. The
            // predicate re-reads the ticket under mu_, which
            // computeBatch() publishes under, so the wakeup cannot
            // be lost between this check and the wait.
            std::unique_lock<std::mutex> lock(mu_);
            wake_.wait(lock, [this, seen] {
                return stop_.load(std::memory_order_relaxed) ||
                       (ticket_.load(std::memory_order_relaxed) >>
                        kCursorBits) != seen;
            });
            spins = 0;
        }
        seen = tag;
        // The descriptor may belong to a newer batch than `tag` by
        // the time these load (this thread can stall arbitrarily
        // long); drainBatch's generation-tag guard makes a stale or
        // mixed descriptor harmless — it claims nothing.
        Event *const *events =
            events_.load(std::memory_order_acquire);
        const std::size_t count =
            count_.load(std::memory_order_acquire);
        drainBatch(lane, events, count, tag);
    }
}

void
ParallelExecutor::computeBatch(Event *const *events, std::size_t n,
                               unsigned heavyCount)
{
    stats_.computed += n;
    laneOf_.assign(n, 0);
    if (threads_ == 1 || !offload_ || heavyCount < 2 || n < 2) {
        // Inline: the wakeup would cost more than the computes, or
        // there is nobody to share them with.
        for (std::size_t i = 0; i < n; ++i)
            events[i]->compute();
        computedBy_[0] += n;
        return;
    }
    ++stats_.parallelBatches;
    std::uint64_t gen;
    {
        // The lock only orders this publish against workers entering
        // their sleep fallback; spinning workers pick the batch up
        // straight from the ticket store.
        std::lock_guard<std::mutex> lock(mu_);
        // Saturate the finished batch's cursor first. A worker still
        // holding its tag can see the new descriptor before the new
        // ticket; without this, a longer new batch would let that
        // worker claim an index under the old tag, compute a new
        // event twice and push completed_ past n, which then never
        // equals n and strands this thread in done_.wait(). The
        // release stores order the saturation before any new
        // descriptor value a worker can load.
        ticket_.store((generation_ << kCursorBits) | kCursorMask,
                      std::memory_order_relaxed);
        events_.store(events, std::memory_order_release);
        count_.store(n, std::memory_order_release);
        completed_.store(0, std::memory_order_relaxed);
        gen = ++generation_;
        // Re-tagging the ticket retires every outstanding claim
        // ticket of the previous batch and publishes the new
        // descriptor in the same release store.
        ticket_.store(gen << kCursorBits, std::memory_order_release);
    }
    wake_.notify_all();
    drainBatch(0, events, n, gen);
    // The stragglers are lanes mid-compute; spin them out before
    // paying for a futex sleep.
    for (unsigned spins = 0;
         completed_.load(std::memory_order_acquire) != n; ++spins) {
        if (spins < spinIters_) {
            cpuRelax();
            continue;
        }
        std::unique_lock<std::mutex> lock(mu_);
        done_.wait(lock, [this, n] {
            return completed_.load(std::memory_order_relaxed) == n;
        });
        break;
    }
}

/*
 * The batched run loop. Structure per outer iteration:
 *
 *   1. Formation: pop the (tick, seq)-contiguous prefix of live
 *      events whose declared read sets are disjoint from the
 *      accumulated write union of the members admitted before them.
 *      An undeclared event at the front is a barrier, dispatched
 *      inline the classic way; behind admitted members it just ends
 *      the batch. Members stay logically scheduled — slots and
 *      livePending_ untouched — so a commit that deschedules a later
 *      member works through the ordinary (slot, gen) staleness check.
 *
 *   2. Compute: every member's compute() runs (worker pool or
 *      inline), strictly before any commit. Computes are read-only,
 *      so their order is irrelevant.
 *
 *   3. Commit: members' process() bodies replay in exact (tick, seq)
 *      order on this thread, exactly like dispatchTop(). Before each
 *      member, any event ordered ahead of it that a previous commit
 *      scheduled (an interloper — always a fresh, higher seq, so at
 *      a strictly earlier tick) is dispatched inline. After each
 *      commit the epochs of the globals the member declared written
 *      advance, invalidating plans speculated under older state; an
 *      interloper whose write set intersects the batch's read union
 *      (its writes were never admission-checked) advances every
 *      epoch, so no plan outlives state it changed.
 *
 * Every mutation of simulated state happens in step 3 (or in inline
 * barrier dispatches), in the same order the sequential engine would
 * produce — byte-identical results by construction.
 */
std::uint64_t
EventQueue::runBatched(Tick limit)
{
    std::uint64_t executed = 0;
    ParallelExecutor::Stats &stats = exec_->stats();
    // The driver may have touched anything between run() calls
    // (published LATR states, freed frames): invalidate all plans.
    bumpAllEpochs();
    for (;;) {
        popStale();
        if (heap_.empty())
            break;
        if (heap_.top().when > limit) {
            now_ = limit;
            break;
        }

        batch_.clear();
        batchEvents_.clear();
        // The members' write union gates admission; their read union
        // is what commit-phase interlopers are checked against.
        ConflictTracker writeUnion;
        ConflictTracker readUnion;
        writeUnion.clear();
        readUnion.clear();
        unsigned heavy = 0;
        for (;;) {
            popStale();
            if (heap_.empty() || heap_.top().when > limit)
                break;
            if (batch_.size() >= kMaxBatch)
                break;
            const Entry top = heap_.top();
            Event *ev = slots_[top.slot].event;
            scratchFp_.clear();
            if (!ev->footprint(scratchFp_)) {
                if (batch_.empty()) {
                    // Barrier at the front: classic inline dispatch.
                    dispatchInlineBatched(nullptr);
                    ++stats.barrierEvents;
                    ++executed;
                    continue;
                }
                break;
            }
            if (writeUnion.readsIntersect(scratchFp_))
                break;
            heap_.pop();
            writeUnion.addWrites(scratchFp_);
            readUnion.addReads(scratchFp_);
            batch_.push_back(BatchMember{
                top, ev, scratchFp_.globalsWritten()});
            batchEvents_.push_back(ev);
            if (ev->computeWeight() > 0)
                ++heavy;
        }
        if (batch_.empty())
            continue;

        ++stats.batches;
        stats.batchedEvents += batch_.size();
        exec_->computeBatch(batchEvents_.data(), batchEvents_.size(),
                            heavy);

        for (std::size_t i = 0; i < batch_.size(); ++i) {
            const BatchMember &m = batch_[i];
            for (;;) {
                popStale();
                if (heap_.empty())
                    break;
                const Entry &top = heap_.top();
                if (top.when > m.entry.when ||
                    (top.when == m.entry.when &&
                     top.seq > m.entry.seq))
                    break;
                dispatchInlineBatched(&readUnion);
                ++executed;
            }
            Slot &slot = slots_[m.entry.slot];
            if (slot.gen != m.entry.gen)
                continue; // descheduled by an earlier commit
            Event *ev = slot.event;
            const bool owned = slot.owned;
            ev->scheduled_ = false;
            releaseSlot(m.entry.slot);
            --livePending_;
            now_ = m.entry.when;
            ++executed_;
            ev->process();
            bumpEpochs(m.writtenGlobals);
            if (owned)
                recycleLambda(static_cast<LambdaEvent *>(ev),
                              exec_->laneOf(i));
            ++executed;
        }
    }
    if (limit != kTickNever && now_ < limit)
        now_ = limit;
    return executed;
}

void
EventQueue::dispatchInlineBatched(const ConflictTracker *batchReads)
{
    const Entry top = heap_.top();
    scratchFp_.clear();
    const bool declared =
        slots_[top.slot].event->footprint(scratchFp_);
    const std::uint32_t written = scratchFp_.globalsWritten();
    // An interloper was admitted to no batch, so its writes were
    // never conflict-checked against the members' read sets. If they
    // land in the batch's read union, a member's plan may have been
    // speculated over state this commit is about to change: advance
    // every epoch so no such plan survives. (Declared global writes
    // alone are covered by the ordinary per-resource bump.)
    const bool intoBatchReads =
        declared && batchReads &&
        batchReads->writesIntersect(scratchFp_);
    dispatchTop();
    if (!declared || intoBatchReads)
        bumpAllEpochs();
    else
        bumpEpochs(written);
}

} // namespace latr
