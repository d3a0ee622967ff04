/**
 * @file
 * The workload framework: a CoreActor is a self-rescheduling loop
 * pinned to one task/core — each step() performs one unit of
 * application work through the kernel's syscall and memory paths,
 * returns the simulated time it consumed, and the actor reschedules
 * itself after that duration *plus* whatever time asynchronous
 * activity (IPI handlers, LATR sweeps) stole from the core in the
 * meantime. That is how coherence overhead becomes application
 * slowdown in every benchmark.
 */

#ifndef LATR_WORKLOAD_WORKLOAD_HH_
#define LATR_WORKLOAD_WORKLOAD_HH_

#include <memory>
#include <vector>

#include "machine/machine.hh"
#include "os/task.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace latr
{

/** A self-rescheduling per-core workload loop. */
class CoreActor
{
  public:
    /** Sentinel step() return meaning "this actor is finished". */
    static constexpr Duration kActorDone = kTickNever;

    /**
     * @param machine the machine the actor runs on.
     * @param task the (already scheduled) task it embodies.
     */
    CoreActor(Machine &machine, Task *task);

    virtual ~CoreActor();

    CoreActor(const CoreActor &) = delete;
    CoreActor &operator=(const CoreActor &) = delete;

    /** Schedule the first step at @p at. */
    void start(Tick at);

    /** Cancel any pending step. */
    void stop();

    Task *task() const { return task_; }
    std::uint64_t iterations() const { return iterations_; }
    bool done() const { return done_; }

    /** Tick the final step completed (valid when done()). */
    Tick finishedAt() const { return finishedAt_; }

  protected:
    /**
     * Perform one unit of work; return its simulated duration, or
     * kActorDone to finish the actor.
     */
    virtual Duration step() = 0;

    Machine &machine() { return machine_; }
    Kernel &kernel() { return machine_.kernel(); }
    CoreId core() const { return task_->core(); }

  private:
    class StepEvent : public Event
    {
      public:
        explicit StepEvent(CoreActor *actor) : actor_(actor) {}
        void process() override { actor_->doStep(); }
        const char *name() const override { return "actor-step"; }

      private:
        CoreActor *actor_;
    };

    void doStep();

    Machine &machine_;
    Task *task_;
    StepEvent event_;
    std::uint64_t iterations_ = 0;
    bool done_ = false;
    Tick finishedAt_ = 0;
};

/**
 * Run @p machine until every actor reports done (or @p limit).
 * @return the tick the last actor finished (the workload's
 *         completion time).
 */
Tick runToCompletion(Machine &machine,
                     const std::vector<std::unique_ptr<CoreActor>> &actors,
                     Tick limit);

} // namespace latr

#endif // LATR_WORKLOAD_WORKLOAD_HH_
