/**
 * @file
 * The discrete-event kernel. All asynchronous activity in the
 * simulated machine — IPI deliveries, scheduler ticks, background
 * reclamation, workload steps — is an Event scheduled on the single
 * global EventQueue and executed in nondecreasing tick order. Events
 * scheduled for the same tick run in FIFO order of scheduling, which
 * keeps the simulation deterministic.
 *
 * The queue is allocation-free in steady state: liveness of heap
 * entries is tracked by a generation counter in a queue-owned slot
 * array (no hash map, and stale entries never dereference the event,
 * whose owner may already have destroyed it), and the lambda wrappers
 * scheduleLambda() hands out are recycled through a free-list pool.
 */

#ifndef LATR_SIM_EVENT_QUEUE_HH_
#define LATR_SIM_EVENT_QUEUE_HH_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace latr
{

/**
 * A schedulable unit of work. Subclass and implement process(), or use
 * scheduleLambda() for one-off callbacks. Events do not own
 * themselves; the creator controls lifetime, except for lambda events
 * which the queue recycles after they run.
 */
class Event
{
  public:
    virtual ~Event() = default;

    /** Execute the event; called by the queue at the scheduled tick. */
    virtual void process() = 0;

    /** Human-readable name for tracing. */
    virtual const char *name() const { return "event"; }

    /** True while the event sits in a queue. */
    bool scheduled() const { return scheduled_; }

    /** Tick this event is scheduled for (valid while scheduled). */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    bool scheduled_ = false;
    bool autoDelete_ = false;
    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    /** Index of the queue slot tracking this event while scheduled. */
    std::uint32_t slot_ = 0;
};

/**
 * The global event queue: a priority queue ordered by (tick, sequence
 * number). Drives simulated time; now() only advances when events run.
 * deschedule() uses lazy deletion: stale heap entries are skipped when
 * they surface, detected by a (slot, generation) compare against the
 * slot array — never by dereferencing the event pointer, since an
 * owner may destroy a descheduled event at any time.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p event at absolute tick @p when. Scheduling in the
     * past (before now()) or double-scheduling is a simulator bug.
     */
    void schedule(Event *event, Tick when);

    /**
     * Reschedule @p event to @p when, whether or not it is currently
     * scheduled.
     */
    void reschedule(Event *event, Tick when);

    /** Remove @p event from the queue; no-op if not scheduled. */
    void deschedule(Event *event);

    /**
     * Schedule a one-off callback at @p when. The queue owns the
     * wrapper; after it runs (or at destruction) it is recycled into
     * a pool for the next scheduleLambda().
     */
    void scheduleLambda(Tick when, std::function<void()> fn);

    /** Number of live (non-stale) events currently scheduled. */
    std::size_t pending() const { return livePending_; }

    /** True when no live events remain. */
    bool empty() const { return livePending_ == 0; }

    /** Total events dispatched over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Run events until the queue empties or the next event lies
     * beyond @p limit. When the run stops because of @p limit, now()
     * is advanced to @p limit.
     * @return number of events executed.
     */
    std::uint64_t run(Tick limit = kTickNever);

    /** Execute exactly one event if any is pending. @return true if so. */
    bool step();

  private:
    /** A lambda-wrapping event owned (and pooled) by the queue. */
    class LambdaEvent : public Event
    {
      public:
        explicit LambdaEvent(std::function<void()> fn)
            : fn_(std::move(fn))
        {}

        void process() override { fn_(); }

        const char *name() const override { return "lambda"; }

      private:
        friend class EventQueue;

        std::function<void()> fn_;
    };

    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /**
     * One tracking slot per scheduled event. The generation counter
     * advances every time the slot is released (deschedule or
     * dispatch), so heap entries carrying an older generation are
     * recognized as stale without touching the event they name. The
     * auto-delete flag is captured here at schedule time because the
     * destructor may only dereference queue-owned events — an owner
     * may destroy even a still-scheduled event right before the
     * queue itself dies.
     */
    struct Slot
    {
        Event *event;
        std::uint32_t gen;
        bool owned;
    };

    /** Claim a slot for @p event (reusing the free list). */
    std::uint32_t acquireSlot(Event *event);

    /** Release @p slot, aging its generation. */
    void releaseSlot(std::uint32_t slot);

    /** Return a finished lambda wrapper to the pool. */
    void recycleLambda(LambdaEvent *ev);

    /** Drop heap entries whose event was descheduled or rescheduled. */
    void popStale();

    /** Run the event at the top of the heap (caller checked liveness). */
    void dispatchTop();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t livePending_ = 0;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    /** Finished lambda wrappers kept for reuse. */
    std::vector<LambdaEvent *> lambdaPool_;
    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
};

} // namespace latr

#endif // LATR_SIM_EVENT_QUEUE_HH_
