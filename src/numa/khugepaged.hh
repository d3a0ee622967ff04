/**
 * @file
 * Transparent huge-page promotion (the khugepaged analogue),
 * completing the section 7 huge-page extension. The daemon scans
 * tracked processes for 2 MiB-aligned regions whose 512 base pages
 * are all present and unencumbered (no prot-none samples, no CoW),
 * copies them into a freshly allocated contiguous huge frame, and
 * replaces the 512 PTEs with one PMD mapping. The collapse changes
 * physical addresses, so its shootdown is synchronous under every
 * policy (the remap row of table 1) — what LATR buys is downstream:
 * once the region is huge, its eventual free is one lazy state
 * instead of 512 pages of work.
 */

#ifndef LATR_NUMA_KHUGEPAGED_HH_
#define LATR_NUMA_KHUGEPAGED_HH_

#include "numa/scan_daemon.hh"

namespace latr
{

/** Promotion statistics. */
struct KhugepagedStats
{
    std::uint64_t promotions = 0;
    std::uint64_t regionsScanned = 0;
    /** Candidates dropped (holes, CoW/sampled pages, no huge frame). */
    std::uint64_t aborts = 0;
};

/** Background transparent-huge-page promotion daemon. */
class Khugepaged : public ScanDaemon
{
  public:
    /**
     * @param kernel the kernel.
     * @param scan_interval period between promotion scans.
     * @param promotions_per_round collapse batch bound.
     */
    Khugepaged(Kernel &kernel, Duration scan_interval,
               unsigned promotions_per_round);

    const KhugepagedStats &stats() const { return stats_; }

  private:
    void scan() override;

    /**
     * Collapse [base_vpn, base_vpn + 512) of @p process into a huge
     * mapping. @return CPU time spent, 0 on abort.
     */
    Duration collapse(Process *process, Vpn base_vpn);

    unsigned promotionsPerRound_;
    KhugepagedStats stats_;
};

} // namespace latr

#endif // LATR_NUMA_KHUGEPAGED_HH_
