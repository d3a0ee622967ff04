/**
 * @file
 * The kernel facade: the system-call layer workloads drive. Each
 * call performs the real bookkeeping (VMAs, page tables, TLBs),
 * models the cost and the mmap_sem reservation, and hands the
 * coherence-sensitive tail of the operation — remote invalidation
 * and page freeing — to the attached TlbCoherencePolicy, exactly at
 * the hook points the paper's kernel patch modifies
 * (native_flush_tlb_others, the munmap/madvise handlers, and
 * change_prot_numa).
 */

#ifndef LATR_OS_KERNEL_HH_
#define LATR_OS_KERNEL_HH_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mem/frame_allocator.hh"
#include "os/process.hh"
#include "os/scheduler.hh"
#include "os/task.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "tlbcoh/policy.hh"
#include "topo/machine_config.hh"
#include "topo/topology.hh"
#include "vm/fault.hh"

namespace latr
{

class CoherenceChecker;
class TraceRecorder;

/** Result of a simulated system call. */
struct SyscallResult
{
    /** Wall time the call occupied the calling core. */
    Duration latency = 0;
    /** Of which, time attributable to TLB coherence. */
    Duration shootdown = 0;
    /** mmap/mremap: resulting address. */
    Addr addr = kAddrInvalid;
    bool ok = false;
};

/** The simulated kernel. */
class Kernel
{
  public:
    Kernel(EventQueue &queue, const NumaTopology &topo,
           const MachineConfig &config, FrameAllocator &frames,
           Scheduler &sched, StatRegistry &stats);

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Attach the coherence policy (also wired into the scheduler). */
    void setPolicy(TlbCoherencePolicy *policy);

    /** Attach the trace recorder (null or disabled: zero overhead). */
    void setTracer(TraceRecorder *trace) { trace_ = trace; }

    /**
     * Attach the coherence checker (src/check/): every call that
     * changes translations reports the (vpn, pfn) pairs it changed
     * and their contract deadline. nullptr (the default) costs
     * nothing.
     */
    void setChecker(CoherenceChecker *checker) { checker_ = checker; }

    TraceRecorder *tracer() const { return trace_; }

    TlbCoherencePolicy *policy() const { return policy_; }

    /// @name Process / task lifecycle
    /// @{

    Process *createProcess(std::string name);

    /** Create a task of @p process pinned to @p core and schedule it. */
    Task *spawnTask(Process *process, CoreId core);

    /** Unschedule and retire @p task. */
    void exitTask(Task *task);

    /**
     * Tear down @p process: unschedule its tasks, flush its TLB
     * residue, release every frame. Kernel-level teardown — no
     * policy involvement, as at real process exit.
     */
    void exitProcess(Process *process);

    /// @}

    /// @name Serving subsystem hooks (src/serve/)
    /// @{

    /**
     * Directed context switch to @p task on its pinned core: the
     * serving subsystem runs each request on the addressed tenant's
     * task. Pays the full switch cost (LATR's context-switch sweep,
     * the PCID-less flush) unless @p task is already current.
     * @return CPU cost of the switch.
     */
    Duration switchToTask(Task *task);

    /**
     * Request-completion hook: counts the request, samples its
     * arrival-to-completion latency into the stat registry
     * ("serve.request_ns", so dumps report request percentiles next
     * to the kernel counters), and emits a trace instant.
     */
    void noteRequestComplete(CoreId core, MmId mm, Duration latency);

    /// @}

    /// @name System calls
    /// @{

    SyscallResult mmap(Task *task, std::uint64_t len, std::uint8_t prot,
                       bool file_backed = false);

    /**
     * Map @p len bytes (rounded to 2 MiB) backed by huge pages —
     * the section 7 extension: faults populate 2 MiB at a time, and
     * frees travel through the policies with the huge flag.
     */
    SyscallResult mmapHuge(Task *task, std::uint64_t len,
                           std::uint8_t prot);

    /**
     * @param sync request synchronous semantics even under LATR
     *        (the paper's section 7 opt-out flag).
     */
    SyscallResult munmap(Task *task, Addr addr, std::uint64_t len,
                         bool sync = false);

    /** madvise(MADV_DONTNEED / MADV_FREE). */
    SyscallResult madvise(Task *task, Addr addr, std::uint64_t len);

    /**
     * madvise(MADV_FREE): lazily discard [addr, addr+len). The
     * kernel bookkeeping is identical to madvise() — PTEs cleared,
     * VMA survives, frames travel through the policy's free-based
     * shootdown path into the FrameAllocator's free lists — but it
     * is counted and traced separately ("sys.madvise_free") because
     * it is *the* free-then-reuse traffic source: the discarded
     * frames come back out of the allocator while remote TLBs may
     * still hold translations to them, which is exactly the window
     * LATR's reclaim delay and the §4.2 staleness invariant bound.
     */
    SyscallResult madviseFree(Task *task, Addr addr,
                              std::uint64_t len);

    SyscallResult mprotect(Task *task, Addr addr, std::uint64_t len,
                           std::uint8_t prot);

    SyscallResult mremap(Task *task, Addr old_addr,
                         std::uint64_t old_len, std::uint64_t new_len);

    /** Mark a range CoW (the ownership-change row of table 1). */
    SyscallResult markCow(Task *task, Addr addr, std::uint64_t len);

    /** One memory access, through TLB / page table / fault paths. */
    TouchResult touch(Task *task, Addr addr, bool is_write);

    /**
     * AutoNUMA sampling entry point (called by the scan task):
     * delegate the prot-none transition to the policy.
     */
    Duration numaSample(Task *task, Vpn vpn);

    /// @}

    /**
     * The path of every free a policy may finish lazily (munmap,
     * madvise, KSM's duplicate frame): hand it to the policy, then
     * forget the freed pages' sharer info (ABIS and Predictive read
     * it first) and mark the pages for the checker as @p op.
     */
    Duration freePages(FreeOpContext ctx, Tick start, const char *op);

    /**
     * The path of every translation change no policy may defer
     * (table 1: mprotect, mremap, CoW marking and breaking,
     * migration, KSM's write-protects, THP collapse). The caller has
     * edited the entries of @p changed, in [s, e]. From @p start,
     * invalidate [s, e] on @p core, shoot down the other resident
     * cores, and mark @p changed for the checker as @p op, due by the
     * last ACK. With @p release, the change replaced the frames of
     * @p changed (or the caller's references to them): they are
     * released @p copy after the last ACK.
     * @return the local invalidation plus the shootdown wait.
     */
    Duration syncInvalidate(AddressSpace &mm, CoreId core, Vpn s, Vpn e,
                            FreedFrames changed, Tick start,
                            const char *op, bool release = false,
                            Duration copy = 0);

    /**
     * Install the NUMA-hint fault handler (the AutoNUMA subsystem
     * registers itself here).
     */
    void setNumaFaultHook(std::function<Duration(Vpn, CoreId)> hook);

    StatRegistry &stats() { return stats_; }
    const CostModel &cost() const { return config_.cost; }
    const MachineConfig &config() const { return config_; }
    const NumaTopology &topo() const { return topo_; }
    EventQueue &queue() { return queue_; }
    FrameAllocator &frames() { return frames_; }
    Scheduler &scheduler() { return sched_; }
    Tick now() const { return queue_.now(); }

  private:
    /** Invalidate [s,e] on the initiator's TLB, honoring batching. */
    Duration localInvalidate(CoreId core, AddressSpace &mm, Vpn s,
                             Vpn e, std::uint64_t npages);

    /** CoW write-fault resolution (used via TouchHooks). */
    Duration breakCow(Task *task, Vpn vpn);

    /**
     * Shared body of madvise() / madviseFree(), counted in the stat
     * @p counter (cached in @p counter_cache).
     */
    SyscallResult madviseCommon(Task *task, Addr addr,
                                std::uint64_t len,
                                Counter *&counter_cache,
                                const char *counter, const char *op);

    /**
     * Shared body of mprotect() / mremap() / markCow(): @p ur holds
     * the pages of [addr, addr + len) whose entries the call already
     * changed, at a page-table cost of vmaFixed + @p pt_work, then
     * syncInvalidate(), all under mmap_sem held for write. Counted and
     * traced as @p counter, reported to the checker as @p op.
     */
    SyscallResult syncSyscall(Task *task, Addr addr, std::uint64_t len,
                              UnmapResult ur, Duration pt_work,
                              Counter *&counter_cache,
                              const char *counter, const char *op);

    /**
     * The stat named @p name, looked up on first use and then kept in
     * @p cache: per call it costs a pointer test, and a dump still
     * lists only the stats of calls that ran.
     */
    Counter &counterOnce(Counter *&cache, const char *name);
    Distribution &distributionOnce(Distribution *&cache,
                                   const char *name);

    /** Emit a [now, now+latency] span for a completed syscall. */
    void traceSyscall(const char *name, Tick begin,
                      const SyscallResult &res, CoreId core, MmId mm,
                      std::uint64_t npages);

    /**
     * Tell the attached checker that every TLB copy of the @p changed
     * translations must be gone by @p done, plus the policy's
     * contract epoch bound when @p lazy (free ops and NUMA samples,
     * which a lazy policy may finish after the call returns). Called
     * after the policy call, so translations the policy already
     * killed synchronously are exempt.
     */
    void noteInvalidation(AddressSpace &mm,
                          std::span<const std::pair<Vpn, Pfn>> changed,
                          Tick done, const char *op, bool lazy);

    EventQueue &queue_;
    const NumaTopology &topo_;
    const MachineConfig &config_;
    FrameAllocator &frames_;
    Scheduler &sched_;
    StatRegistry &stats_;
    TlbCoherencePolicy *policy_ = nullptr;
    TraceRecorder *trace_ = nullptr;
    CoherenceChecker *checker_ = nullptr;

    std::function<Duration(Vpn, CoreId)> numaFaultHook_;

    /**
     * Hooks handed to touchPage(), built once in the constructor:
     * touch() is the hottest kernel entry point and constructing
     * three std::functions per call is measurable. The lambdas
     * capture only `this`; the per-call task is stashed in
     * touchTask_ and policy/NUMA-hook indirection resolves at call
     * time, so the setters keep working.
     */
    TouchHooks touchHooks_;
    Task *touchTask_ = nullptr;

    /**
     * Syscall and serving stats, resolved on first use
     * (counterOnce()), so machines that never make a call keep its
     * stats out of their dumps.
     */
    Counter *serveRequestsCtr_ = nullptr;
    Distribution *serveLatencyDist_ = nullptr;
    Counter *mmapCtr_ = nullptr;
    Counter *mmapHugeCtr_ = nullptr;
    Counter *munmapCtr_ = nullptr;
    Distribution *munmapLatencyDist_ = nullptr;
    Distribution *munmapShootdownDist_ = nullptr;
    Counter *madviseCtr_ = nullptr;
    Counter *madviseFreeCtr_ = nullptr;
    Counter *mprotectCtr_ = nullptr;
    Counter *mremapCtr_ = nullptr;
    Counter *markCowCtr_ = nullptr;

    /** Fault-path counters resolved once (touch() is per-access). */
    Counter &minorFaultsCtr_;
    Counter &numaFaultsCtr_;
    Counter &segFaultsCtr_;
    Counter &cowBreaksCtr_;

    std::vector<std::unique_ptr<Process>> processes_;
    std::vector<std::unique_ptr<Task>> tasks_;
    MmId nextMm_ = 1;
    TaskId nextTask_ = 1;
};

} // namespace latr

#endif // LATR_OS_KERNEL_HH_
