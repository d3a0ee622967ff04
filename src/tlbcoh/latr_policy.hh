/**
 * @file
 * LATR: lazy TLB coherence — the paper's contribution (sections 3-4).
 *
 * Free operations (munmap/madvise) record a *LATR state* in the
 * initiating core's ring of 64 states instead of sending IPIs: the
 * unmapped pages and (for munmap) the virtual range are parked on
 * lazy-reclamation lists. Every core sweeps all rings at its
 * scheduler tick and at context switches, invalidates the matching
 * local TLB entries via plain memory reads of the states (no
 * interrupts), and clears its CPU-mask bit; the core clearing the
 * last bit deactivates the state. A background pass frees pages and
 * releases virtual ranges once a state has been inactive and at
 * least two tick periods (2 ms) old — ticks are unsynchronized, so
 * one period is not enough. When a ring is full, LATR falls back to
 * the IPI mechanism (section 8).
 *
 * AutoNUMA sampling (section 4.3) saves a migration state without
 * touching the PTE; the first sweeping core makes the PTE prot-none,
 * the rest only invalidate, and mmap_sem stays blocked until every
 * bit clears so the migrating fault cannot race lagging cores
 * (section 4.4).
 */

#ifndef LATR_TLBCOH_LATR_POLICY_HH_
#define LATR_TLBCOH_LATR_POLICY_HH_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "tlbcoh/policy.hh"

namespace latr
{

/** Lifecycle of a LATR state slot. */
enum class LatrStatePhase : std::uint8_t
{
    Empty,           ///< slot free
    Active,          ///< cores still need to invalidate
    PendingReclaim,  ///< all cores invalidated; pages await the 2 ms age
};

/** Why a state exists (the paper's flags field). */
enum class LatrStateKind : std::uint8_t
{
    Free,       ///< munmap/madvise
    Migration,  ///< AutoNUMA sample
};

/**
 * One entry of a per-core LATR ring: the paper's
 * {start; end; mm; flags; CPU list; active} record (68 B on the real
 * implementation), plus the lazy-reclamation payload that the kernel
 * patch keeps on mm_struct lists.
 */
struct LatrState
{
    LatrStatePhase phase = LatrStatePhase::Empty;
    LatrStateKind kind = LatrStateKind::Free;
    AddressSpace *mm = nullptr;
    Vpn startVpn = 0;
    Vpn endVpn = 0;
    CpuMask cpuMask;
    Tick savedAt = 0;
    CoreId owner = 0;
    /** Migration only: first sweeper already made the PTE prot-none. */
    bool pteCleared = false;
    /**
     * Free only: frames to release at reclamation, 2 MiB mappings
     * included (the huge-flag extension of the paper's section 7).
     */
    FreedFrames frames;
    /** Free only: virtual range to release (munmap). */
    Addr vaStart = 0;
    Addr vaEnd = 0;
};

/** The paper's lazy TLB-coherence mechanism. */
class LatrPolicy : public TlbCoherencePolicy
{
  public:
    explicit LatrPolicy(PolicyEnv env);

    const char *name() const override { return "LATR"; }
    PolicyKind kind() const override { return PolicyKind::Latr; }
    PolicyCapabilities capabilities() const override;
    StalenessContract stalenessContract() const override;

    Duration onFreePages(FreeOpContext ctx, Tick start) override;

    Duration onNumaSample(AddressSpace *mm, CoreId initiator, Vpn vpn,
                          Tick start) override;

    Tick numaSampleReadyAt(AddressSpace *mm, Vpn vpn) const override;

    void onSchedulerTick(CoreId core, Tick now) override;
    void onContextSwitch(CoreId core, Tick now) override;

    /// @name Introspection (tests, benches, memory accounting)
    /// @{

    /** States currently active across all rings. */
    std::size_t activeStates() const { return active_.size(); }

    /** States awaiting reclamation. */
    std::size_t pendingReclaim() const { return pending_.size(); }

    /** Bytes of physical memory currently parked on lazy lists. */
    std::uint64_t lazyBytes() const;

    /** Direct ring access for white-box tests. */
    const std::vector<LatrState> &ringOf(CoreId core) const;

    /**
     * The sweep-elision summary mask. Invariant: a superset of the
     * union of every active state's cpuMask, so a clear bit proves
     * the core's sweep would match nothing.
     */
    const CpuMask &pendingSweepers() const { return pendingSweepers_; }

    /// @}

  private:
    /**
     * One scheduled background reclamation pass, pooled by the
     * policy (acquire on schedule, recycle after it runs).
     */
    class ReclaimPassEvent final : public Event
    {
      public:
        void process() override;
        const char *name() const override { return "latr-reclaim"; }

      private:
        friend class LatrPolicy;

        LatrPolicy *policy = nullptr;
        /** The pass's reclamation cutoff. */
        Tick eligibleAt = 0;
    };

    /** Find an Empty slot in @p core's ring, or nullptr. */
    LatrState *allocSlot(CoreId core);

    /** The per-core sweep shared by ticks and context switches. */
    void sweep(CoreId core, Tick now);

    /** Deactivate @p state (last CPU bit cleared) at @p now. */
    void deactivate(LatrState *state, Tick now);

    /** Schedule a one-shot reclamation pass for @p state's age. */
    void scheduleReclaimPass(Tick eligible_at);

    /**
     * ReclaimPassEvent::process(): free everything eligible at the
     * pass cutoff, then recycle @p ev.
     */
    void runReclaimPass(ReclaimPassEvent *ev);

    /** Release one state's pages/VA and empty the slot. */
    void reclaimState(LatrState *state);

    /** Sweep slack: see onNumaSample's mmap_sem blocking. */
    Duration migrationBlockSlack() const { return 5 * kUsec; }

    /** The sweep's LLC state-block walk (matches + 1 lines). */
    void touchSweepLlc(CoreId core, unsigned matches);

    std::vector<std::vector<LatrState>> rings_; // per core
    std::vector<LatrState *> active_;
    std::vector<LatrState *> pending_;

    /** Pooled pass events (owners) and the recycled free list. */
    std::vector<std::unique_ptr<ReclaimPassEvent>> reclaimEvents_;
    std::vector<ReclaimPassEvent *> freeReclaimEvents_;
    /** Scratch for the new pending_ (reused pass to pass). */
    std::vector<LatrState *> reclaimScratch_;

    /**
     * Cores some active state may still address: set (ORed) whenever
     * a state publishes its cpuMask, cleared for a core only right
     * after that core's full sweep scanned every active state. Never
     * cleared on deactivation, so the mask can over-approximate —
     * which only costs one redundant full scan, never correctness.
     * On 120-core runs where most cores' sweeps match nothing, a
     * clear bit lets sweep() skip the O(active_) scan while charging
     * exactly what a matchless scan charges.
     */
    CpuMask pendingSweepers_;
    Counter &sweepsCtr_;
    Counter &sweepMatchesCtr_;
    Counter &statesSavedCtr_;
    Counter &fallbackIpisCtr_;
    Counter &migrationUnmapsCtr_;
    Counter &reclaimedPagesCtr_;
    /**
     * Per-core ring-allocation cursors. States deactivate roughly in
     * publication order, so resuming the Empty-slot search where the
     * last allocation left off makes allocSlot() amortized O(1)
     * instead of a scan over every in-flight slot.
     */
    std::vector<unsigned> allocCursor_;
};

} // namespace latr

#endif // LATR_TLBCOH_LATR_POLICY_HH_
