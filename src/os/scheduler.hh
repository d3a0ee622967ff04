/**
 * @file
 * The per-core scheduler. Owns the cores (and their TLBs), fires the
 * 1 ms scheduler ticks — deliberately phase-shifted across cores, as
 * on real machines — rotates runqueues at tick boundaries, performs
 * context switches (full TLB flush when PCIDs are off), models
 * Linux's lazy-TLB idle behaviour (a core entering idle flushes and
 * drops out of every residency mask, so it receives no shootdowns,
 * and with tickless kernels takes no ticks either), and accounts
 * *stolen time*: CPU consumed on a core by asynchronous activity
 * (IPI handlers, LATR sweeps), which stretches the next operation
 * the core's workload runs.
 */

#ifndef LATR_OS_SCHEDULER_HH_
#define LATR_OS_SCHEDULER_HH_

#include <memory>
#include <unordered_set>
#include <vector>

#include "hw/tlb.hh"
#include "os/core_service.hh"
#include "os/task.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "topo/machine_config.hh"
#include "topo/topology.hh"

namespace latr
{

class TlbCoherencePolicy;
class TraceRecorder;

/** The machine's scheduler; also the CoreService policies see. */
class Scheduler : public CoreService
{
  public:
    Scheduler(EventQueue &queue, const NumaTopology &topo,
              const MachineConfig &config);

    ~Scheduler() override;

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Attach the coherence policy whose hooks ticks invoke. */
    void setPolicy(TlbCoherencePolicy *policy) { policy_ = policy; }

    /** Attach the trace recorder (propagated to every core's TLB). */
    void setTracer(TraceRecorder *trace);

    /** Begin firing scheduler ticks. Idempotent. */
    void start();

    /** Stop firing ticks (lets the event queue drain). */
    void stop();

    /// @name CoreService
    /// @{
    unsigned coreCount() const override;
    Tlb &tlbOf(CoreId core) override;
    void chargeStolen(CoreId core, Duration ns) override;
    bool coreIdle(CoreId core) const override;
    NodeId nodeOfCore(CoreId core) const override;
    /// @}

    /**
     * Place @p task on its pinned core's runqueue; becomes the
     * running task if the core was idle.
     */
    void addTask(Task *task);

    /** Remove @p task; the core may become idle (lazy-TLB flush). */
    void removeTask(Task *task);

    /**
     * Explicit context switch (workload-driven, e.g. the canneal
     * profile's frequent switches): rotates the runqueue.
     * @return CPU cost of the switch on that core.
     */
    Duration contextSwitch(CoreId core);

    /**
     * Directed context switch: make @p task the running task of its
     * pinned core. The serving subsystem dispatches the addressed
     * tenant's task per request instead of rotating the runqueue.
     * The task must be runnable (on its core's runqueue).
     * @return CPU cost of the switch on that core; 0 if @p task was
     *         already current.
     */
    Duration switchToTask(Task *task);

    /**
     * Drain the stolen-time accumulator of @p core. Workload
     * drivers add the returned amount to their next operation.
     */
    Duration takeStolen(CoreId core);

    /** The task currently running on @p core (nullptr if idle). */
    Task *currentTask(CoreId core) const;

    /** Next scheduler tick of @p core. */
    Tick nextTickAt(CoreId core) const;

    /** Total ticks processed (excludes skipped tickless-idle ones). */
    std::uint64_t ticksProcessed() const { return ticksProcessed_; }

  private:
    struct CoreState;

    /** Recurring per-core tick (naive --no-fastpath path). */
    class TickEvent : public Event
    {
      public:
        TickEvent(Scheduler *sched, CoreId core)
            : sched_(sched), core_(core)
        {}

        void process() override { sched_->tick(core_); }

        const char *name() const override { return "sched-tick"; }

      private:
        Scheduler *sched_;
        CoreId core_;
    };

    /**
     * Recurring tick-wheel bucket: one event per distinct phase
     * offset, ticking every core parked in that slot. With the
     * standard phase formula every core gets its own slot, so the
     * wheel fires the same events at the same ticks as the per-core
     * path — but the engine keeps N fewer events in the queue and
     * pays one virtual dispatch per slot instead of per core.
     */
    class WheelEvent : public Event
    {
      public:
        WheelEvent(Scheduler *sched, unsigned slot)
            : sched_(sched), slot_(slot)
        {}

        void process() override { sched_->wheelTick(slot_); }

        const char *name() const override { return "sched-tick"; }

      private:
        Scheduler *sched_;
        unsigned slot_;
    };

    struct WheelSlot
    {
        Tick phase = 0;
        std::vector<CoreId> cores;
        std::unique_ptr<WheelEvent> event;
    };

    void tick(CoreId core);
    void wheelTick(unsigned slot);

    /** One core's tick body, sans rescheduling. */
    void tickCore(CoreId core);

    /** Flush @p core's TLB and drop it from every residency mask. */
    void flushCore(CoreState &cs);

    /** Perform the mechanics of switching @p core to @p next. */
    Duration switchTo(CoreState &cs, Task *next);

    EventQueue &queue_;
    const NumaTopology &topo_;
    const MachineConfig &config_;
    TlbCoherencePolicy *policy_ = nullptr;
    TraceRecorder *trace_ = nullptr;

    struct CoreState
    {
        CoreId id = 0;
        std::unique_ptr<Tlb> tlb;
        std::vector<Task *> runqueue;
        Task *current = nullptr;
        Duration stolen = 0;
        std::unique_ptr<TickEvent> tickEvent;
        /** mms whose entries this core's TLB may hold. */
        std::unordered_set<AddressSpace *> residents;
    };

    std::vector<CoreState> cores_;
    /** Tick-wheel slots, ascending phase (empty under noFastpath). */
    std::vector<WheelSlot> wheel_;
    /** Core id -> wheel slot index (empty under noFastpath). */
    std::vector<unsigned> slotOf_;
    bool started_ = false;
    std::uint64_t ticksProcessed_ = 0;
};

} // namespace latr

#endif // LATR_OS_SCHEDULER_HH_
