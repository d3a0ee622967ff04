/**
 * @file
 * The Machine: the top-level object a user of this library builds.
 * Wires a MachineConfig into topology, event queue, frame allocator,
 * per-socket LLCs, IPI fabric, scheduler (cores + TLBs), kernel, a
 * TLB-coherence policy, and the coherence checker, which holds every
 * run to the reuse invariant and the policy's staleness contract
 * unless the caller turns it off. See examples/quickstart.cc for the
 * canonical usage.
 */

#ifndef LATR_MACHINE_MACHINE_HH_
#define LATR_MACHINE_MACHINE_HH_

#include <memory>
#include <vector>

#include "check/checker.hh"
#include "hw/cache.hh"
#include "hw/ipi.hh"
#include "mem/frame_allocator.hh"
#include "os/kernel.hh"
#include "os/scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "tlbcoh/policy.hh"
#include "topo/machine_config.hh"
#include "topo/topology.hh"
#include "trace/trace.hh"

namespace latr
{

/** A complete simulated machine. */
class Machine
{
  public:
    /**
     * @param config static machine description (see the presets in
     *        MachineConfig).
     * @param policy_kind which TLB-coherence policy to run.
     * @param check_invariants attach the coherence checker to every
     *        TLB, the frame allocator and the kernel (small overhead;
     *        recommended).
     */
    Machine(MachineConfig config, PolicyKind policy_kind,
            bool check_invariants = true);

    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /// @name Components
    /// @{
    const MachineConfig &config() const { return config_; }
    const NumaTopology &topo() const { return topo_; }
    EventQueue &queue() { return queue_; }
    StatRegistry &stats() { return stats_; }
    /** Event tracing; disabled by default (trace().setEnabled()). */
    TraceRecorder &trace() { return trace_; }
    FrameAllocator &frames() { return frames_; }
    IpiFabric &ipi() { return ipi_; }
    Scheduler &scheduler() { return sched_; }
    Kernel &kernel() { return kernel_; }
    TlbCoherencePolicy &policy() { return *policy_; }
    LlcCache &llcOf(NodeId node) { return *llcs_.at(node); }
    /** The coherence checker; nullptr when check_invariants was false. */
    CoherenceChecker *checker() { return checker_.get(); }
    /**
     * Always nullptr: checker() covers the staleness contract too.
     * Kept for latrbench/probe.cc, which adds both counts.
     */
    CoherenceChecker *staleness() { return nullptr; }
    /// @}

    /** Current simulated time. */
    Tick now() const { return queue_.now(); }

    /**
     * Advance the simulation by @p sim_time. Starts the scheduler
     * ticks on first use.
     */
    void run(Duration sim_time);

    /**
     * Advance until the event queue drains (scheduler ticks are
     * stopped first) or @p limit is reached.
     */
    void drain(Tick limit = kTickNever);

  private:
    MachineConfig config_;
    NumaTopology topo_;
    EventQueue queue_;
    StatRegistry stats_;
    TraceRecorder trace_;
    FrameAllocator frames_;
    std::vector<std::unique_ptr<LlcCache>> llcs_;
    IpiFabric ipi_;
    Scheduler sched_;
    Kernel kernel_;
    std::unique_ptr<CoherenceChecker> checker_;
    std::unique_ptr<TlbCoherencePolicy> policy_;
};

} // namespace latr

#endif // LATR_MACHINE_MACHINE_HH_
