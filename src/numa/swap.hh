/**
 * @file
 * A page-swap daemon exercising the other "migration-class" lazy
 * operation of the paper's table 1: swapping cold pages out. The
 * daemon harvests PTE accessed bits on a period (a one-hand clock
 * approximation of the kernel's LRU), and evicts pages that stayed
 * cold for a full period. The unmap goes through the coherence
 * policy's free path, so under LATR the shootdown and the frame
 * release are lazy (section 3: "with an LRU-based page swapping
 * algorithm, the page table unmap and swap operation can be
 * performed lazily after the last core has invalidated the TLB
 * entry").
 */

#ifndef LATR_NUMA_SWAP_HH_
#define LATR_NUMA_SWAP_HH_

#include "numa/scan_daemon.hh"

namespace latr
{

/** Clock-style page-out daemon. */
class SwapDaemon : public ScanDaemon
{
  public:
    /**
     * @param kernel the kernel.
     * @param scan_interval period between eviction scans.
     * @param max_evictions_per_scan eviction batch bound.
     */
    SwapDaemon(Kernel &kernel, Duration scan_interval,
               unsigned max_evictions_per_scan);

    std::uint64_t evictions() const { return evictions_; }

  private:
    void scan() override;

    unsigned maxEvictions_;
    std::uint64_t evictions_ = 0;
};

} // namespace latr

#endif // LATR_NUMA_SWAP_HH_
