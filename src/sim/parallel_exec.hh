/**
 * @file
 * The optimistic parallel dispatch layer of the engine. Two pieces
 * live here:
 *
 *  - ConflictTracker: a footprint set. The dispatcher keeps two per
 *    batch: the members' write union (each candidate's declared read
 *    set is checked against it; disjoint candidates join the batch,
 *    the first overlap or undeclared event ends it) and the members'
 *    read union (a commit-phase interloper writing into it
 *    invalidates every cached plan).
 *
 *  - ParallelExecutor: a worker pool that runs the read-only
 *    compute() phases of one batch concurrently. Lanes claim batch
 *    members from a generation-tagged cursor; each claim is stamped
 *    with the claiming lane (laneOf()), which the queue uses to
 *    recycle pooled lambda events to that lane's freelist — the
 *    local-acquire/remote-release discipline NUMA-aware event pools
 *    use, so a wrapper's storage stays with the lane whose cache
 *    last touched it. Workers are optionally pinned to a host CPU
 *    (pinWorkers; off by default so concurrent machines don't stack
 *    on the same cores, and never applied to the coordinating
 *    thread, which belongs to the caller). On a single-CPU host the
 *    pool computes inline instead of offloading (see offload_): a
 *    wakeup there buys futex traffic, not parallelism.
 *
 *    Beyond batching, two per-event work sources move into compute():
 *    IPI deliveries pre-probe the target TLB's invalidation walk
 *    (Tlb::planInvalidateRange, validated by mutationSeq()), and the
 *    ABIS-harvesting lazycache pressure actor pre-harvests per-page
 *    sharer masks (offered to the policy, validated by the
 *    SharerDirectory resource epoch). Both follow DESIGN.md §8.4:
 *    a plan is applied only while its validator still matches, else
 *    the commit recomputes fresh — wrong-plan results are impossible,
 *    stale plans only cost the precompute.
 *
 * The batched run loop itself is EventQueue::runBatched(), defined in
 * parallel_exec.cc next to these helpers: it pops a contiguous
 * (tick, seq) prefix of conflict-disjoint events, runs every
 * compute(), then replays the process() commits strictly in
 * (tick, seq) order on the coordinator — interleaving any events that
 * earlier commits scheduled in between ("interlopers") and skipping
 * members an earlier commit descheduled. Because every simulated
 * mutation happens in commit order on one thread, digests, counters,
 * and traces are byte-identical to the sequential engine by
 * construction; footprints only decide how much runs in parallel.
 */

#ifndef LATR_SIM_PARALLEL_EXEC_HH_
#define LATR_SIM_PARALLEL_EXEC_HH_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace latr
{

/**
 * A set of cores, address spaces, and global resources accumulated
 * from event footprints. The dispatcher keeps two per batch:
 *
 *  - the members' *write* union, checked against each candidate's
 *    read set at admission. With all computes running before the
 *    first commit, a later member's compute observing state an
 *    earlier member's commit will change is the only ordering hazard
 *    the protocol leaves open — commit/commit overlap is serialized
 *    by the (tick, seq) replay and read/read overlap is harmless;
 *
 *  - the members' *read* union, checked against each commit-phase
 *    interloper's write set. Interlopers are dispatched after batch
 *    admission, so their writes were never conflict-checked; one
 *    that lands in the batch's read union forces every resource
 *    epoch forward so no cached plan survives it (see
 *    EventQueue::dispatchInlineBatched()).
 */
class ConflictTracker
{
  public:
    static constexpr unsigned kMaxSpaces = 16;

    void
    clear()
    {
        cores_.reset();
        globals_ = 0;
        nSpaces_ = 0;
        allSpaces_ = false;
    }

    /** Does @p fp's read set intersect the accumulated set? */
    bool
    readsIntersect(const EventFootprint &fp) const
    {
        if (globals_ & fp.globalsRead())
            return true;
        CpuMask overlap = cores_;
        overlap.andWith(fp.coresRead());
        if (!overlap.empty())
            return true;
        const bool readsAny =
            fp.allSpacesRead() || fp.spacesRead() > 0;
        if (allSpaces_ && readsAny)
            return true;
        if (fp.allSpacesRead() && nSpaces_ > 0)
            return true;
        for (unsigned i = 0; i < fp.spacesRead(); ++i)
            for (unsigned j = 0; j < nSpaces_; ++j)
                if (fp.spaceRead(i) == spaces_[j])
                    return true;
        return false;
    }

    /** Does @p fp's write set intersect the accumulated set? */
    bool
    writesIntersect(const EventFootprint &fp) const
    {
        if (globals_ & fp.globalsWritten())
            return true;
        CpuMask overlap = cores_;
        overlap.andWith(fp.coresWritten());
        if (!overlap.empty())
            return true;
        const bool writesAny =
            fp.allSpacesWritten() || fp.spacesWritten() > 0;
        if (allSpaces_ && writesAny)
            return true;
        if (fp.allSpacesWritten() && nSpaces_ > 0)
            return true;
        for (unsigned i = 0; i < fp.spacesWritten(); ++i)
            for (unsigned j = 0; j < nSpaces_; ++j)
                if (fp.spaceWritten(i) == spaces_[j])
                    return true;
        return false;
    }

    /** Fold @p fp's write set into the accumulated set. */
    void
    addWrites(const EventFootprint &fp)
    {
        cores_.orWith(fp.coresWritten());
        globals_ |= fp.globalsWritten();
        if (fp.allSpacesWritten())
            allSpaces_ = true;
        for (unsigned i = 0; !allSpaces_ && i < fp.spacesWritten();
             ++i)
            addSpace(fp.spaceWritten(i));
    }

    /** Fold @p fp's read set into the accumulated set. */
    void
    addReads(const EventFootprint &fp)
    {
        cores_.orWith(fp.coresRead());
        globals_ |= fp.globalsRead();
        if (fp.allSpacesRead())
            allSpaces_ = true;
        for (unsigned i = 0; !allSpaces_ && i < fp.spacesRead(); ++i)
            addSpace(fp.spaceRead(i));
    }

  private:
    void
    addSpace(const void *mm)
    {
        for (unsigned j = 0; j < nSpaces_; ++j)
            if (spaces_[j] == mm)
                return;
        if (nSpaces_ == kMaxSpaces) {
            allSpaces_ = true;
            return;
        }
        spaces_[nSpaces_++] = mm;
    }

    CpuMask cores_;
    std::uint32_t globals_ = 0;
    const void *spaces_[kMaxSpaces] = {};
    unsigned nSpaces_ = 0;
    bool allSpaces_ = false;
};

/**
 * The compute worker pool: @p threads total compute lanes, i.e. the
 * coordinating thread plus threads-1 workers. A pool of one
 * spawns no threads and runs every compute inline; larger pools
 * offload a batch only when it contains at least two nontrivial
 * computes (Event::computeWeight()), so machines whose batches are
 * cheap never pay wakeup latency.
 */
class ParallelExecutor
{
  public:
    struct Stats
    {
        std::uint64_t batches = 0;         ///< batches dispatched
        std::uint64_t parallelBatches = 0; ///< offloaded to workers
        std::uint64_t computed = 0;        ///< compute() calls, total
        std::uint64_t batchedEvents = 0;   ///< events committed via batches
        std::uint64_t barrierEvents = 0;   ///< undeclared inline dispatches
    };

    /**
     * @param threads total compute lanes.
     * @param pinWorkers pin worker lane k to host CPU k (mod the
     *   host's CPU count). Off by default: concurrent executors —
     *   `--jobs` sweeps, parallel test shards — would stack every
     *   machine's workers on the same low-numbered CPUs. The
     *   coordinator (lane 0) is never pinned; that thread belongs to
     *   the caller.
     * @param forceOffload offload eligible batches even on a host
     *   with a single CPU, where auto mode would run them inline
     *   (offloading there can only add futex round-trips, never
     *   parallelism). For tests that must observe worker-lane claims
     *   regardless of the machine they run on.
     */
    explicit ParallelExecutor(unsigned threads,
                              bool pinWorkers = false,
                              bool forceOffload = false);

    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /** Total compute lanes (coordinator included); always >= 1. */
    unsigned threads() const { return threads_; }

    /**
     * Run compute() of every event in @p events [0, n); returns when
     * all have finished. @p heavyCount is how many report nonzero
     * computeWeight(); fewer than two runs the batch inline.
     */
    void computeBatch(Event *const *events, std::size_t n,
                      unsigned heavyCount);

    /** Mutable dispatcher statistics (EventQueue updates these). */
    Stats &stats() { return stats_; }
    const Stats &stats() const { return stats_; }

    /** compute() calls executed by worker @p idx (0 = coordinator). */
    std::uint64_t
    computedBy(unsigned idx) const
    {
        return computedBy_.at(idx);
    }

    /**
     * The lane that computed member @p idx of the most recent
     * computeBatch() (0 for inline batches). Valid until the next
     * computeBatch(); the queue routes pooled events back to this
     * lane's freelist — the remote-release half of the NUMA
     * event-pool discipline.
     */
    unsigned
    laneOf(std::size_t idx) const
    {
        return laneOf_[idx];
    }

  private:
    /** Low bits of ticket_ holding the claim cursor. */
    static constexpr unsigned kCursorBits = 16;
    static constexpr std::uint64_t kCursorMask =
        (std::uint64_t{1} << kCursorBits) - 1;

    void workerLoop(unsigned idx);

    /**
     * Claim-and-compute until the cursor runs dry or the ticket's
     * generation tag stops matching @p gen (the batch this caller
     * was handed is over).
     */
    void drainBatch(unsigned lane, Event *const *events,
                    std::size_t count, std::uint64_t gen);

    const unsigned threads_;
    const bool pinWorkers_;
    Stats stats_;
    std::vector<std::uint64_t> computedBy_;
    /**
     * Per-member computing lane of the live batch, stamped by each
     * claimant right after its claim CAS. Writes land on distinct
     * indices (the cursor hands each index to exactly one lane) and
     * the coordinator only reads them after the batch's completion
     * barrier, so plain bytes suffice.
     */
    std::vector<std::uint8_t> laneOf_;

    /**
     * Iterations a lane spins on the ticket before falling back to a
     * futex sleep. Batches arrive every few microseconds while the
     * engine is hot, and one sleep/wake pair costs more than a whole
     * batch of plan computes — so lanes stay awake across the gaps
     * and the condition variables only catch genuinely idle phases
     * (sequential stretches, the end of the run).
     */
    static constexpr unsigned kSpinIters = 4096;

    /**
     * Effective spin budget: kSpinIters when the host has a CPU per
     * lane, 0 otherwise. On an oversubscribed host a spinning lane
     * does not wait for work — it *prevents* it, by burning the
     * timeslice the coordinator (or a straggler) needs; measured on
     * a 1-CPU container, spinning turned a 1.05x-overhead run into a
     * 3x slowdown. Sleep immediately there instead.
     */
    const unsigned spinIters_;

    /**
     * Whether eligible batches are offloaded at all. False on a
     * single-CPU host (unless forced): with nowhere for a worker to
     * run concurrently, every offload is a pure futex round-trip —
     * the coordinator computes inline faster than it can wake anyone.
     */
    const bool offload_;

    std::mutex mu_;
    std::condition_variable wake_;
    std::condition_variable done_;
    /**
     * Batch descriptor. Published before the ticket's release store
     * and read after its acquire load; they are atomic only because a
     * worker whose generation tag is already stale may load them
     * concurrently with the next batch's publish. It then claims
     * nothing: computeBatch() saturates the old cursor before storing
     * them (release), so a new descriptor is never paired with an
     * open old ticket.
     */
    std::atomic<Event *const *> events_{nullptr};
    std::atomic<std::size_t> count_{0};
    /**
     * Generation-tagged claim ticket: bits [kCursorBits, 64) are the
     * (truncated) batch generation, bits [0, kCursorBits) the next
     * unclaimed index. Claims go through a CAS that the tag guards,
     * so a worker that slept (or spun) through a batch boundary —
     * descriptor snapshot in hand, first claim not yet made — can
     * never claim indices, run computes, or grow completed_ against
     * a batch other than the one it was woken for. The tag doubles
     * as the batch-publish flag the spin loops watch.
     */
    std::atomic<std::uint64_t> ticket_{0};
    /** Computes finished in the live batch (claimants only). */
    std::atomic<std::size_t> completed_{0};
    std::atomic<bool> stop_{false};
    /** Coordinator-private batch counter behind the ticket tag. */
    std::uint64_t generation_ = 0;

    std::vector<std::thread> workers_;
};

} // namespace latr

#endif // LATR_SIM_PARALLEL_EXEC_HH_
