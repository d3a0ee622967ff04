/**
 * @file
 * AutoNUMA: Linux's automatic NUMA balancing (paper sections 2.1 and
 * 4.3). A background scan periodically samples pages of tracked
 * processes by making their PTEs prot-none — through the attached
 * coherence policy, so Linux pays a synchronous shootdown per sample
 * while LATR defers the unmap to the first sweeping core. The next
 * touch takes a NUMA-hint fault; a page faulted twice in a row from
 * the same remote node migrates there.
 */

#ifndef LATR_NUMA_AUTONUMA_HH_
#define LATR_NUMA_AUTONUMA_HH_

#include <unordered_map>

#include "numa/migration.hh"
#include "numa/scan_daemon.hh"

namespace latr
{

/** Linux-style automatic NUMA page balancing. */
class AutoNuma : public ScanDaemon
{
  public:
    /**
     * @param kernel the kernel (the fault hook installs itself).
     * @param scan_interval period of the background scan.
     * @param pages_per_scan PTEs sampled per scan round.
     */
    AutoNuma(Kernel &kernel, Duration scan_interval,
             unsigned pages_per_scan);

    /** Stops first: the base destructor cannot remove the hook. */
    ~AutoNuma();

    /**
     * Migration trigger: with two-touch (the default, Linux-like) a
     * page migrates on its second consecutive hint fault from the
     * same remote node; one-touch migrates on the first remote
     * fault — appropriate when the scan period is long relative to
     * the run, as in the figure 11 benchmarks.
     */
    void setTwoTouch(bool two_touch) { twoTouch_ = two_touch; }

    /**
     * Sampling stride: 1 (default) samples pages sequentially from
     * the cursor, like Linux's task_numa_work; a stride of N picks
     * every Nth present page with a rotating phase, covering a large
     * address space sparsely each round — appropriate when the run
     * is short relative to a full sequential sweep.
     */
    void setScanStride(std::uint64_t stride);

    /** Begin scanning (installs the NUMA-hint fault hook). */
    void start();

    /** Stop scanning (removes the hook). */
    void stop();

    std::uint64_t migrations() const { return migrator_.migrations(); }
    std::uint64_t samples() const { return samples_; }
    std::uint64_t hintFaults() const { return hintFaults_; }

  private:
    /** One scan round: sample the next batch of pages. */
    void scan() override;

    /** The NUMA-hint fault handler (kernel hook). */
    Duration onHintFault(Vpn vpn, CoreId core);

    unsigned pagesPerScan_;
    PageMigrator migrator_;

    std::size_t nextProcess_ = 0;
    /** Resume cursor within the current process's address space. */
    Vpn scanCursor_ = 0;
    std::uint64_t scanStride_ = 1;
    std::uint64_t stridePhase_ = 0;

    bool twoTouch_ = true;

    /** Last remote node that hint-faulted each page. */
    std::unordered_map<Vpn, NodeId> lastRemoteFault_;

    std::uint64_t samples_ = 0;
    std::uint64_t hintFaults_ = 0;
};

} // namespace latr

#endif // LATR_NUMA_AUTONUMA_HH_
