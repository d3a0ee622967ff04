/**
 * @file
 * The TLB-coherence policy interface — the axis of the paper. A
 * policy owns everything that happens *after* the kernel has changed
 * page-table entries and invalidated the initiating core's TLB:
 * how remote cores learn about the change (IPIs, LATR states,
 * messages), when their TLB entries die, and when freed pages become
 * reusable. Five policies implement it:
 *
 *  - LinuxPolicy: synchronous IPI shootdown (the baseline);
 *  - LatrPolicy: the paper's lazy mechanism;
 *  - AbisPolicy: access-bit sharing tracking (state of the art);
 *  - BarrelfishPolicy: synchronous message passing;
 *  - PredictivePolicy: hashed-perceptron sharer prediction with a
 *    TLB-probe-verified full-mask fallback.
 */

#ifndef LATR_TLBCOH_POLICY_HH_
#define LATR_TLBCOH_POLICY_HH_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/cache.hh"
#include "hw/ipi.hh"
#include "mem/frame_allocator.hh"
#include "os/core_service.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "topo/machine_config.hh"
#include "topo/topology.hh"
#include "vm/address_space.hh"

namespace latr
{

class TraceRecorder;

/** Selects a TLB-coherence policy implementation. */
enum class PolicyKind
{
    LinuxSync,   ///< stock Linux 4.10: synchronous IPIs
    Latr,        ///< the paper's lazy mechanism
    Abis,        ///< access-bit tracking (Amit, ATC'17)
    Barrelfish,  ///< message passing, still synchronous
    Predictive,  ///< perceptron-predicted sharers, verified fallback
};

/** Everything a policy may touch, bundled at construction. */
struct PolicyEnv
{
    EventQueue *queue = nullptr;
    const NumaTopology *topo = nullptr;
    const MachineConfig *config = nullptr;
    FrameAllocator *frames = nullptr;
    IpiFabric *ipi = nullptr;
    CoreService *cores = nullptr;
    StatRegistry *stats = nullptr;
    /** Event tracing; optional (policies must tolerate nullptr). */
    TraceRecorder *trace = nullptr;
    /** Per-socket LLCs for pollution modeling; may be empty. */
    std::vector<LlcCache *> llcs;
};

/** A free operation (munmap / madvise) handed to the policy. */
struct FreeOpContext
{
    AddressSpace *mm = nullptr;
    CoreId initiator = 0;
    /** Inclusive page range of the operation. */
    Vpn startVpn = 0;
    Vpn endVpn = 0;
    /**
     * Unmapped frames the policy frees. The LATR state covering a
     * 2 MiB mapping carries the paper's proposed huge flag (section
     * 7) implicitly: its vpn range spans the whole region, so sweeps
     * invalidate the huge TLB entries.
     */
    FreedFrames frames;
    /**
     * Virtual range to return to the allocator once coherence is
     * reached; vaEnd == 0 for madvise (the VMA stays).
     */
    Addr vaStart = 0;
    Addr vaEnd = 0;
    /**
     * Caller demanded synchronous semantics (the per-call override
     * the paper's section 7 proposes for use-after-free detectors).
     */
    bool syncRequested = false;
};

/**
 * A policy's bounded-staleness contract (paper sections 3 and 4.2):
 * the longest a remote TLB entry may outlive its page-table mapping
 * once the triggering kernel operation has returned. Synchronous
 * policies promise zero; LATR promises one scheduler epoch. The
 * coherence checker in src/check/ enforces this bound at runtime.
 */
struct StalenessContract
{
    /**
     * Upper bound on how long after the operation's sync point a
     * stale translation may survive in any TLB. 0 means the policy
     * is synchronous: coherence is reached before the op returns.
     */
    Duration epochBound = 0;
};

/** Static properties of a policy (rows of the paper's table 2). */
struct PolicyCapabilities
{
    bool asynchronous = false;
    bool nonIpiBased = false;
    bool noRemoteCoreInvolvement = false;
    bool noHardwareChanges = true; // every software policy here
    bool lazyFreeCapable = false;
    bool lazyMigrationCapable = false;
};

/**
 * Base class of all TLB-coherence policies. Its hooks default to
 * Linux's synchronous behaviour, which every policy needs for
 * operations that cannot be lazy (mprotect, mremap, CoW — table 1)
 * or as a fallback. They reach remote cores through one transport,
 * shootdown(): IPIs unless a policy overrides it.
 */
class TlbCoherencePolicy
{
  public:
    explicit TlbCoherencePolicy(PolicyEnv env);

    virtual ~TlbCoherencePolicy() = default;

    TlbCoherencePolicy(const TlbCoherencePolicy &) = delete;
    TlbCoherencePolicy &operator=(const TlbCoherencePolicy &) = delete;

    virtual const char *name() const = 0;
    virtual PolicyKind kind() const = 0;
    virtual PolicyCapabilities capabilities() const = 0;

    /**
     * The policy's bounded-staleness promise. The default contract
     * (0: coherent before the op returns) fits every synchronous
     * policy; lazy policies override with their epoch bound.
     */
    virtual StalenessContract stalenessContract() const
    {
        return StalenessContract{};
    }

    /**
     * A free operation unmapped @p ctx.frames. PTEs are already
     * cleared and the initiator's TLB already invalidated; the
     * policy owns remote invalidation, frame release, and VA
     * release. The default is Linux's: shoot down every resident
     * core and free the frames when the last ACK lands (the VA is
     * reusable at once, since the call does not return earlier).
     *
     * @param start tick the policy's work begins (lock-adjusted).
     * @return time consumed on the initiating core beyond @p start.
     */
    virtual Duration onFreePages(FreeOpContext ctx, Tick start);

    /**
     * A page-table change that must be visible system-wide before
     * the operation returns (Kernel::syncInvalidate()). PTEs are
     * already updated; nothing is freed here. Every policy shoots
     * down every resident core, over its own shootdown().
     */
    Duration onSyncShootdown(AddressSpace *mm, CoreId initiator,
                             Vpn start_vpn, Vpn end_vpn,
                             std::uint64_t npages, Tick start);

    /**
     * Free @p frames, and release [va_start, va_end) from @p mm's
     * holdback when non-empty, at tick @p at.
     */
    void releaseAt(Tick at, AddressSpace *mm, FreedFrames frames,
                   Addr va_start = 0, Addr va_end = 0);

    /**
     * AutoNUMA sampled @p vpn: make it prot-none and invalidate it
     * everywhere. Lazy policies may defer the PTE change (paper
     * section 4.3); they must block the mm's mmap_sem until every
     * core has invalidated. The default is Linux's
     * change_prot_numa; see syncNumaSample().
     */
    virtual Duration onNumaSample(AddressSpace *mm, CoreId initiator,
                                  Vpn vpn, Tick start);

    /**
     * Earliest tick at which a NUMA-hint fault on @p vpn may proceed
     * to migrate: lazy policies must hold the fault until every core
     * has invalidated the sampled translation (paper section 4.4).
     * Synchronous policies return 0 (no wait).
     */
    virtual Tick numaSampleReadyAt(AddressSpace *mm, Vpn vpn) const;

    /** Scheduler tick on @p core (LATR sweeps here). */
    virtual void onSchedulerTick(CoreId core, Tick now);

    /** Context switch on @p core (LATR sweeps here too). */
    virtual void onContextSwitch(CoreId core, Tick now);

    /** Extra cost this policy adds to every minor fault (ABIS). */
    virtual Duration minorFaultOverhead() const { return 0; }

  protected:
    /**
     * The synchronous transport: invalidate [start_vpn, end_vpn] on
     * every core in @p targets (minus the initiator) and wait for
     * every acknowledgment. The default sends IPIs: serialized ICR
     * writes, invalidation at interrupt delivery, handler time
     * charged to the targets and their LLCs polluted.
     *
     * @return time from @p start until the last ACK.
     */
    virtual Duration shootdown(AddressSpace *mm, CoreId initiator,
                               const CpuMask &targets, Vpn start_vpn,
                               Vpn end_vpn, std::uint64_t npages,
                               Tick start);

    /**
     * Linux's free path past the choice of @p targets: shoot them
     * down if any page was mapped, then free @p ctx.frames when the
     * last ACK lands. Counts nothing.
     *
     * @return the shootdown wait.
     */
    Duration syncFree(FreeOpContext &ctx, const CpuMask &targets,
                      Tick start);

    /**
     * Linux's change_prot_numa for the mapped @p pte of @p vpn,
     * without its counters: make it prot-none, invalidate it
     * locally, shoot down every resident core.
     *
     * @return the local work plus the shootdown wait.
     */
    Duration syncNumaSample(AddressSpace *mm, CoreId initiator,
                            Pte *pte, Vpn vpn, Tick start);

    /** Remote targets for @p mm: cores whose TLBs may hold entries. */
    CpuMask remoteTargets(AddressSpace *mm, CoreId initiator) const;

    /** Pollute the LLC of @p core's socket with handler lines. */
    void polluteLlc(CoreId core);

    const CostModel &cost() const { return env_.config->cost; }

    /** The recorder, or nullptr when tracing is not wired/enabled. */
    TraceRecorder *tracer() const;

    PolicyEnv env_;

    /**
     * Registry references resolved once at construction: the IPI
     * path increments these per delivered interrupt, and a by-name
     * registry lookup there is measurable in the figure benches.
     */
    Counter &ipiShootdownsCtr_;
    Counter &remoteInterruptsCtr_;
    Counter &syncOpsCtr_;
    Counter &shootdownsCtr_;
    Counter &numaSamplesCtr_;

  private:
    std::uint64_t pollutionCursor_ = 0;
};

/** Construct the policy selected by @p kind. */
std::unique_ptr<TlbCoherencePolicy> makePolicy(PolicyKind kind,
                                               PolicyEnv env);

/** Human-readable policy name without constructing one. */
const char *policyKindName(PolicyKind kind);

/**
 * Every kind under its command-line name (`--policy=linux|latr|abis|
 * barrelfish|pred`), in PolicyKind order.
 */
const std::vector<std::pair<std::string, PolicyKind>> &policyKindFlags();

} // namespace latr

#endif // LATR_TLBCOH_POLICY_HH_
