/**
 * @file
 * Same-page merging (the KSM analogue) — the "deduplication" row of
 * the paper's table 1, and one of its lazy-capable migration-class
 * operations. The daemon scans content-tagged pages of tracked
 * processes; when two stable pages carry the same tag it merges
 * them: both mappings are write-protected and marked CoW with a
 * synchronous shootdown (revoking write access is an ownership
 * change — it can never be lazy), the duplicate's PTE is switched to
 * the survivor's frame, and the duplicate frame is released through
 * the coherence policy's *free* path. Under LATR that release is
 * lazy, and soundly so: any core still reading through a stale
 * translation of the duplicate reads a page with identical content
 * (the reason table 1 marks deduplication lazy-capable), and writes
 * are impossible because the write bits were revoked synchronously
 * first.
 */

#ifndef LATR_NUMA_KSM_HH_
#define LATR_NUMA_KSM_HH_

#include "numa/scan_daemon.hh"

namespace latr
{

/** Same-page-merging statistics. */
struct KsmStats
{
    std::uint64_t merges = 0;
    std::uint64_t pagesScanned = 0;
    /** Frames returned to the pool by merging. */
    std::uint64_t framesFreed = 0;
};

/** Background same-page-merging daemon. */
class KsmDaemon : public ScanDaemon
{
  public:
    /**
     * @param kernel the kernel.
     * @param scan_interval period between merge scans.
     * @param merges_per_round merge batch bound per scan.
     */
    KsmDaemon(Kernel &kernel, Duration scan_interval,
              unsigned merges_per_round);

    const KsmStats &stats() const { return stats_; }

  private:
    void scan() override;

    /**
     * Merge @p dup_vpn of @p dup (currently backed by its own
     * frame) onto the survivor's frame. Both mappings end up
     * CoW-protected.
     * @return CPU time spent.
     */
    Duration merge(Process *dup, Vpn dup_vpn, Process *survivor,
                   Vpn survivor_vpn, Pfn survivor_frame);

    unsigned mergesPerRound_;
    KsmStats stats_;
};

} // namespace latr

#endif // LATR_NUMA_KSM_HH_
