#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace latr
{

namespace
{
/** Lambda wrappers kept for reuse; beyond, deleted. */
constexpr std::size_t kLambdaPoolCap = 1024;
} // namespace

EventQueue::~EventQueue()
{
    // Delete any queue-owned lambda events that never ran. Only
    // live, owned slots may be dereferenced; stale heap entries and
    // non-owned events may point at storage their owner already
    // reclaimed.
    for (const Slot &slot : slots_) {
        if (!slot.event || !slot.owned)
            continue;
        slot.event->scheduled_ = false;
        delete slot.event;
    }
    for (LambdaEvent *ev : lambdaPool_)
        delete ev;
}

std::uint32_t
EventQueue::acquireSlot(Event *event)
{
    std::uint32_t idx;
    if (!freeSlots_.empty()) {
        idx = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{nullptr, 0, false});
    }
    Slot &slot = slots_[idx];
    slot.event = event;
    slot.owned = event->autoDelete_;
    return idx;
}

void
EventQueue::releaseSlot(std::uint32_t idx)
{
    Slot &slot = slots_[idx];
    slot.event = nullptr;
    slot.owned = false;
    ++slot.gen; // ages every heap entry naming this slot
    freeSlots_.push_back(idx);
}

void
EventQueue::schedule(Event *event, Tick when)
{
    if (event->scheduled_)
        panic("event '%s' scheduled twice", event->name());
    if (when < now_)
        panic("event '%s' scheduled in the past (%llu < %llu)",
              event->name(), static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    event->scheduled_ = true;
    event->when_ = when;
    event->seq_ = nextSeq_++;
    event->slot_ = acquireSlot(event);
    heap_.push(Entry{when, event->seq_, event->slot_,
                     slots_[event->slot_].gen});
    ++livePending_;
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    if (event->scheduled_)
        deschedule(event);
    schedule(event, when);
}

void
EventQueue::deschedule(Event *event)
{
    if (!event->scheduled_)
        return;
    // Lazy deletion: the heap entry stays; it is skipped when it
    // surfaces because its generation no longer matches the slot's.
    event->scheduled_ = false;
    releaseSlot(event->slot_);
    --livePending_;
}

void
EventQueue::scheduleLambda(Tick when, std::function<void()> fn)
{
    LambdaEvent *ev;
    if (!lambdaPool_.empty()) {
        ev = lambdaPool_.back();
        lambdaPool_.pop_back();
        ev->fn_ = std::move(fn);
    } else {
        ev = new LambdaEvent(std::move(fn));
        ev->autoDelete_ = true;
    }
    schedule(ev, when);
}

void
EventQueue::recycleLambda(LambdaEvent *ev)
{
    // Drop the captured state now — it may hold resources whose
    // owners expect release as soon as the callback has run.
    ev->fn_ = nullptr;
    if (lambdaPool_.size() < kLambdaPoolCap)
        lambdaPool_.push_back(ev);
    else
        delete ev;
}

void
EventQueue::popStale()
{
    while (!heap_.empty()) {
        const Entry &top = heap_.top();
        if (slots_[top.slot].gen == top.gen)
            return;
        heap_.pop();
    }
}

void
EventQueue::dispatchTop()
{
    const Entry top = heap_.top();
    heap_.pop();
    Slot &slot = slots_[top.slot];
    Event *ev = slot.event;
    const bool owned = slot.owned;
    ev->scheduled_ = false;
    releaseSlot(top.slot);
    --livePending_;
    now_ = top.when;
    ++executed_;
    ev->process();
    if (owned)
        recycleLambda(static_cast<LambdaEvent *>(ev));
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t executed = 0;
    for (;;) {
        popStale();
        if (heap_.empty())
            break;
        if (heap_.top().when > limit) {
            now_ = limit;
            break;
        }
        dispatchTop();
        ++executed;
    }
    if (limit != kTickNever && now_ < limit)
        now_ = limit;
    return executed;
}

bool
EventQueue::step()
{
    popStale();
    if (heap_.empty())
        return false;
    dispatchTop();
    return true;
}

} // namespace latr
