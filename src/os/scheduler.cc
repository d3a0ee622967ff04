#include "os/scheduler.hh"

#include <algorithm>

#include "os/process.hh"
#include "sim/logging.hh"
#include "tlbcoh/policy.hh"
#include "trace/trace.hh"
#include "vm/address_space.hh"

namespace latr
{

Scheduler::Scheduler(EventQueue &queue, const NumaTopology &topo,
                     const MachineConfig &config)
    : queue_(queue), topo_(topo), config_(config)
{
    cores_.resize(topo.totalCores());
    for (unsigned i = 0; i < cores_.size(); ++i) {
        CoreState &cs = cores_[i];
        cs.id = static_cast<CoreId>(i);
        cs.tlb = std::make_unique<Tlb>(cs.id, config.l1TlbEntries,
                                       config.l2TlbEntries);
    }
    // Build the tick wheel: cores sharing a phase offset share a
    // bucket event. Phase-shift ticks across cores: real machines'
    // ticks are not synchronized, which is why LATR must age states
    // two full periods before reclaiming. Every core's first tick
    // still lands within one interval, preserving the paper's upper
    // bound on lazy-shootdown completion. Phases are nondecreasing
    // in core id, so a single in-order scan groups them.
    const Duration interval = config.cost.tickInterval;
    slotOf_.resize(cores_.size());
    for (unsigned i = 0; i < cores_.size(); ++i) {
        const Tick phase = (interval * (i + 1)) / cores_.size();
        if (wheel_.empty() || wheel_.back().phase != phase) {
            wheel_.push_back(WheelSlot{phase, {}, nullptr});
            wheel_.back().event = std::make_unique<WheelEvent>(
                this, static_cast<unsigned>(wheel_.size() - 1));
        }
        wheel_.back().cores.push_back(static_cast<CoreId>(i));
        slotOf_[i] = static_cast<unsigned>(wheel_.size() - 1);
    }
}

Scheduler::~Scheduler()
{
    stop();
}

void
Scheduler::setTracer(TraceRecorder *trace)
{
    trace_ = trace;
    for (auto &cs : cores_)
        cs.tlb->setTracer(trace);
}

void
Scheduler::start()
{
    if (started_)
        return;
    started_ = true;
    // Slots are in ascending phase == ascending core order, so the
    // schedule-time sequence numbers (and thus same-tick FIFO order)
    // follow core ids.
    for (WheelSlot &slot : wheel_)
        queue_.schedule(slot.event.get(), queue_.now() + slot.phase);
}

void
Scheduler::stop()
{
    if (!started_)
        return;
    started_ = false;
    for (WheelSlot &slot : wheel_)
        if (slot.event->scheduled())
            queue_.deschedule(slot.event.get());
}

unsigned
Scheduler::coreCount() const
{
    return static_cast<unsigned>(cores_.size());
}

Tlb &
Scheduler::tlbOf(CoreId core)
{
    return *cores_.at(core).tlb;
}

void
Scheduler::chargeStolen(CoreId core, Duration ns)
{
    cores_.at(core).stolen += ns;
}

bool
Scheduler::coreIdle(CoreId core) const
{
    return cores_.at(core).runqueue.empty();
}

NodeId
Scheduler::nodeOfCore(CoreId core) const
{
    return topo_.nodeOf(core);
}

Duration
Scheduler::takeStolen(CoreId core)
{
    CoreState &cs = cores_.at(core);
    Duration s = cs.stolen;
    cs.stolen = 0;
    return s;
}

Task *
Scheduler::currentTask(CoreId core) const
{
    return cores_.at(core).current;
}

Tick
Scheduler::nextTickAt(CoreId core) const
{
    const WheelSlot &slot = wheel_[slotOf_.at(core)];
    return slot.event->scheduled() ? slot.event->when() : kTickNever;
}

void
Scheduler::flushCore(CoreState &cs)
{
    cs.tlb->flushAll();
    for (AddressSpace *mm : cs.residents)
        mm->residencyMask().clear(cs.id);
    cs.residents.clear();
}

Duration
Scheduler::switchTo(CoreState &cs, Task *next)
{
    Duration spent = config_.cost.ctxSwitch;
    if (trace_)
        trace_->instant("os", "sched.ctxswitch", queue_.now(), cs.id);
    // The coherence policy observes every switch (LATR sweeps here)
    // before any flush, mirroring the patch's hook in __schedule.
    if (policy_)
        policy_->onContextSwitch(cs.id, queue_.now());
    // Switching between threads of one process keeps CR3; only a
    // different mm forces the (PCID-less) full flush.
    const bool same_mm =
        cs.current && next && &cs.current->mm() == &next->mm();
    if (!config_.pcidEnabled && !same_mm) {
        flushCore(cs);
        spent += config_.cost.tlbFullFlush;
    }
    cs.current = next;
    if (next) {
        AddressSpace &mm = next->mm();
        mm.residencyMask().set(cs.id);
        cs.residents.insert(&mm);
    }
    return spent;
}

void
Scheduler::addTask(Task *task)
{
    CoreState &cs = cores_.at(task->core());
    const bool was_idle = cs.runqueue.empty();
    cs.runqueue.push_back(task);
    task->mm().scheduledMask().set(cs.id);
    if (was_idle) {
        // Idle-to-running transition flushes the stale TLB
        // (tickless-kernel behaviour, paper section 7). The flush
        // only matters with PCIDs; without them the switch flushes
        // anyway.
        flushCore(cs);
        chargeStolen(cs.id, switchTo(cs, task));
    }
}

void
Scheduler::removeTask(Task *task)
{
    CoreState &cs = cores_.at(task->core());
    auto it = std::find(cs.runqueue.begin(), cs.runqueue.end(), task);
    if (it == cs.runqueue.end())
        panic("removeTask: task %llu not on core %u",
              static_cast<unsigned long long>(task->id()), cs.id);
    cs.runqueue.erase(it);

    // Another task of the same process may remain on this core.
    bool mm_still_here = false;
    for (Task *t : cs.runqueue)
        if (&t->mm() == &task->mm())
            mm_still_here = true;
    if (!mm_still_here)
        task->mm().scheduledMask().clear(cs.id);

    if (cs.current == task) {
        Task *next = cs.runqueue.empty() ? nullptr : cs.runqueue.front();
        chargeStolen(cs.id, switchTo(cs, next));
    }
    if (cs.runqueue.empty()) {
        // Entering idle: Linux's lazy-TLB mode flushes once and
        // tells everyone not to IPI this core anymore — modeled by
        // dropping out of all residency masks.
        flushCore(cs);
        cs.current = nullptr;
    }
}

Duration
Scheduler::contextSwitch(CoreId core)
{
    CoreState &cs = cores_.at(core);
    if (cs.runqueue.empty())
        return 0;
    // Rotate: current goes to the back, next comes up front.
    Task *next = cs.current;
    if (cs.runqueue.size() > 1) {
        auto it =
            std::find(cs.runqueue.begin(), cs.runqueue.end(), cs.current);
        std::size_t idx =
            it == cs.runqueue.end()
                ? 0
                : (static_cast<std::size_t>(it - cs.runqueue.begin()) +
                   1) % cs.runqueue.size();
        next = cs.runqueue[idx];
    }
    return switchTo(cs, next);
}

Duration
Scheduler::switchToTask(Task *task)
{
    CoreState &cs = cores_.at(task->core());
    if (cs.current == task)
        return 0;
    if (std::find(cs.runqueue.begin(), cs.runqueue.end(), task) ==
        cs.runqueue.end())
        panic("switchToTask: task %llu not runnable on core %u",
              static_cast<unsigned long long>(task->id()),
              task->core());
    return switchTo(cs, task);
}

void
Scheduler::tickCore(CoreId core)
{
    CoreState &cs = cores_[core];
    const bool idle = cs.runqueue.empty();
    if (idle && config_.ticklessIdle)
        return;
    ++ticksProcessed_;
    chargeStolen(core, config_.cost.schedTickFixed);
    if (trace_)
        trace_->instant("os", "sched.tick", queue_.now(), core);
    if (policy_)
        policy_->onSchedulerTick(core, queue_.now());
    // Timeslice rotation when the core is oversubscribed.
    if (cs.runqueue.size() > 1)
        chargeStolen(core, contextSwitch(core));
}

void
Scheduler::wheelTick(unsigned slot)
{
    WheelSlot &ws = wheel_[slot];
    for (CoreId core : ws.cores)
        tickCore(core);
    queue_.schedule(ws.event.get(),
                    queue_.now() + config_.cost.tickInterval);
}

} // namespace latr
