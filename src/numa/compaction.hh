/**
 * @file
 * Memory compaction (the kcompactd analogue) — another row of the
 * paper's table 1 that admits a lazy shootdown. The daemon
 * defragments a NUMA node by migrating in-use pages out of the
 * node's high frame region into free frames in the low region, so
 * contiguous high-frame runs open up (for huge pages / DMA in a
 * real kernel). Each move follows the migration recipe: sample the
 * page through the coherence policy (lazy under LATR — no IPI; the
 * first sweeping core performs the prot-none unmap), wait out the
 * policy's gate, then migrate with the unmap-copy-remap sequence.
 * The paper's section 7 points out compaction "performs similar
 * mechanism as AutoNUMA's page migration" and benefits the same way.
 */

#ifndef LATR_NUMA_COMPACTION_HH_
#define LATR_NUMA_COMPACTION_HH_

#include <vector>

#include "numa/scan_daemon.hh"

namespace latr
{

/** Defragmentation statistics for one node. */
struct CompactionStats
{
    /** Pages moved low so far. */
    std::uint64_t pagesMoved = 0;
    /** Samples issued (each costs a shootdown — lazy under LATR). */
    std::uint64_t samples = 0;
    /** Moves that aborted (page vanished, no low frame free). */
    std::uint64_t aborts = 0;
};

/**
 * Background compaction daemon. Tracks one or more processes (like
 * the swap daemon) and, each period, picks pages of a target node
 * whose frames lie in the node's upper half and migrates them into
 * lower free frames.
 */
class CompactionDaemon : public ScanDaemon
{
  public:
    /**
     * @param kernel the kernel.
     * @param node node to defragment.
     * @param scan_interval period between compaction rounds.
     * @param moves_per_round migration batch bound.
     */
    CompactionDaemon(Kernel &kernel, NodeId node,
                     Duration scan_interval, unsigned moves_per_round);

    const CompactionStats &stats() const { return stats_; }

    /**
     * Fragmentation metric of the node: fraction of allocated
     * frames that sit in the node's upper half. 0 = fully
     * compacted.
     */
    double highFrameFraction() const;

  private:
    /** One candidate mid-move: sampled, waiting for the gate. */
    struct PendingMove
    {
        Process *process;
        Vpn vpn;
    };

    /** Phase 1: sample a batch of high-frame pages. */
    void scan() override;

    /** Phase 2 (event): complete the sampled moves. */
    void completeMoves(std::vector<PendingMove> moves);

    /** First frame of the node's upper half. */
    Pfn highWatermark() const;

    NodeId node_;
    unsigned movesPerRound_;
    CompactionStats stats_;
};

} // namespace latr

#endif // LATR_NUMA_COMPACTION_HH_
