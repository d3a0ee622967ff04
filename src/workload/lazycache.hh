/**
 * @file
 * The MADV_FREE lazy-reclaim page-cache workload (modeled on
 * olegbbtr/lazyfree_cache): a 4 KB-page cache over discardable
 * memory. Writer threads fill pages, reader threads take optimistic
 * read locks — read the payload, then revalidate the page's
 * generation and discard flag, refilling on a miss — and a pressure
 * thread periodically MADV_FREEs bursts of cold pages whose frames
 * are later refaulted and reused. Each burst is larger than LATR's
 * per-core state ring, so this is the workload that drives ring
 * overflow → IPI fallback and the free-then-reuse reclaim window at
 * sustained rates.
 */

#ifndef LATR_WORKLOAD_LAZYCACHE_HH_
#define LATR_WORKLOAD_LAZYCACHE_HH_

#include <memory>
#include <vector>

#include "sim/rng.hh"
#include "workload/workload.hh"

namespace latr
{

/** Lazycache parameters. */
struct LazyCacheConfig
{
    /** Cached pages (4 KB each) in the one shared region. */
    std::uint64_t cachePages = 4096;
    /**
     * Fraction of the cache that is the hot core set. Hot pages are
     * never discarded by pressure, so reads biased there mostly
     * revalidate clean — the lazyfree_cache hit path.
     */
    double hotFraction = 0.125;
    /** Probability a read targets the hot set (else the full set). */
    double hotBias = 0.9;
    /** Reader threads, one per core from core 0. */
    unsigned readers = 10;
    /** Writer threads, on the cores after the readers. */
    unsigned writers = 2;
    /**
     * Pages MADV_FREEd per pressure burst, issued back-to-back from
     * one core. Anything above latrStatesPerCore (64) overflows the
     * ring mid-burst and forces fallback IPIs. 0 disables pressure
     * entirely (no pressure actor is spawned).
     */
    std::uint64_t burstPages = 160;
    /** Time between pressure bursts. */
    Duration pressureInterval = 2 * kMsec;
    /** Reader think time per optimistic read. */
    Duration readThink = 1 * kUsec;
    /** Writer think time per page fill. */
    Duration writeThink = 3 * kUsec;
    std::uint64_t seed = 1;
};

/** Measurement outcome. */
struct LazyCacheResult
{
    /** Reads + writes + discarded pages per simulated second. */
    double eventsPerSec = 0.0;
    double readsPerSec = 0.0;
    /** Optimistic reads that revalidated clean / all reads. */
    double hitRatio = 0.0;
    std::uint64_t reads = 0;
    std::uint64_t hits = 0;
    std::uint64_t revalidationFails = 0;
    std::uint64_t refills = 0;
    std::uint64_t writes = 0;
    std::uint64_t discardedPages = 0;
    std::uint64_t bursts = 0;
    /** Delta of latr.fallback_ipis over the measured window. */
    std::uint64_t fallbackIpis = 0;
    /** Delta of latr.reclaimed_pages over the measured window. */
    std::uint64_t reclaimedPages = 0;
    /** FNV-1a over counters + per-page cache state (see digest()). */
    std::uint64_t digest = 0;
};

/** The workload object; owns the reader/writer/pressure actors. */
class LazyCacheWorkload
{
  public:
    LazyCacheWorkload(Machine &machine, LazyCacheConfig config);

    /** Spawn tasks, map the region, prefill every page. */
    void start();

    /** Run @p warmup, snapshot, run @p measured, and report. */
    LazyCacheResult measure(Duration warmup, Duration measured);

    /**
     * FNV-1a64 over the workload counters, every page's generation
     * and filled flag, and per-actor iteration counts. Any
     * scheduling divergence between engine configurations changes
     * interleaving-visible state, so equal digests with and without
     * --no-fastpath certify the fast paths preserved the model
     * exactly.
     */
    std::uint64_t digest() const;

    std::uint64_t reads() const { return reads_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t revalidationFails() const { return revalFails_; }
    std::uint64_t refills() const { return refills_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t discardedPages() const { return discardedPages_; }
    std::uint64_t bursts() const { return bursts_; }

  private:
    class Reader;
    class Writer;
    class Pressure;

    Addr pageAddr(std::uint64_t page) const
    {
        return base_ + page * kPageSize;
    }

    Machine &machine_;
    LazyCacheConfig config_;
    std::vector<std::unique_ptr<CoreActor>> actors_;
    bool started_ = false;

    Addr base_ = kAddrInvalid;
    std::uint64_t hotPages_ = 0;

    /**
     * Cache-directory state, the sim-level stand-in for
     * lazyfree_cache's per-page generation + last-byte lock check:
     * a page's generation bumps on every fill/refill/discard, and
     * filled_ is cleared the instant MADV_FREE succeeds (the
     * conservative reading of MADV_FREE: contents may be gone as
     * soon as the kernel accepts the hint).
     */
    std::vector<std::uint32_t> generation_;
    std::vector<std::uint8_t> filled_;

    std::uint64_t reads_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t revalFails_ = 0;
    std::uint64_t refills_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t discardedPages_ = 0;
    std::uint64_t bursts_ = 0;
};

} // namespace latr

#endif // LATR_WORKLOAD_LAZYCACHE_HH_
