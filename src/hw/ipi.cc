#include "hw/ipi.hh"

#include <algorithm>

#include "trace/trace.hh"

namespace latr
{

IpiFabric::IpiFabric(EventQueue &queue, const NumaTopology &topo,
                     const CostModel &cost)
    : queue_(queue), topo_(topo), cost_(cost)
{
}

void
IpiFabric::DeliveryEvent::process()
{
    fabric->runDelivery(this);
}

IpiFabric::DeliveryEvent *
IpiFabric::acquireDelivery()
{
    if (!free_.empty()) {
        DeliveryEvent *ev = free_.back();
        free_.pop_back();
        return ev;
    }
    events_.push_back(std::make_unique<DeliveryEvent>());
    DeliveryEvent *ev = events_.back().get();
    ev->fabric = this;
    return ev;
}

void
IpiFabric::runDelivery(DeliveryEvent *ev)
{
    ev->deliver(ev->target, ev->at);
    // The queue released the event before calling process(), so it
    // can go straight back on the free list. The deliver closure
    // stays assigned until the next acquire overwrites it; dropping
    // it here would free (and later reallocate) its capture storage
    // on every delivery.
    free_.push_back(ev);
}

IpiBroadcastResult
IpiFabric::broadcast(CoreId initiator, const CpuMask &targets,
                     Tick start, Duration handler_cost,
                     DeliverFn on_deliver)
{
    if (start < queue_.now())
        start = queue_.now();
    IpiBroadcastResult result;
    result.allAcked = start;
    result.sendsDone = start;

    const bool tracing = trace_ && trace_->enabled();
    const Duration handler = cost_.ipiHandlerFixed + handler_cost;

    // Walk the mask a 64-bit word at a time: a 119-target broadcast
    // on the large machine pays two word loads up front instead of a
    // per-core callback through forEach's per-bit loop control.
    Tick send_clock = start;
    targets.forEachWord([&](unsigned word, std::uint64_t bits) {
      while (bits) {
        const unsigned bit =
            static_cast<unsigned>(__builtin_ctzll(bits));
        bits &= bits - 1;
        const CoreId target = static_cast<CoreId>(word * 64 + bit);
        if (target == initiator)
            continue;
        const unsigned hops = topo_.hops(initiator, target);

        // ICR writes serialize on the initiating core.
        const Tick send_begin = send_clock;
        send_clock += cost_.ipiSendCost(hops);

        const Tick delivered = send_clock + cost_.ipiDeliveryCost(hops);
        const Tick handler_done = delivered + handler;
        const Tick acked = handler_done + cost_.cachelineCost(hops);

        if (tracing) {
            // The ICR write on the initiator, the handler on the
            // target, and the ACK's arrival back home — the three
            // legs the paper's figure 2a timeline is built from.
            const SpanId send = trace_->beginSpan(
                "ipi", "ipi.send", send_begin, initiator,
                kTraceNoMm, target);
            trace_->endSpan(send, send_clock);
            const SpanId h = trace_->beginSpan(
                "ipi", "ipi.handler", delivered, target, kTraceNoMm,
                initiator);
            trace_->endSpan(h, handler_done);
            const SpanId ack = trace_->beginSpan(
                "ipi", "ipi.ack", handler_done, target, kTraceNoMm,
                initiator);
            trace_->endSpan(ack, acked);
        }

        if (on_deliver) {
            DeliveryEvent *ev = acquireDelivery();
            ev->target = target;
            ev->at = delivered;
            ev->deliver = on_deliver;
            queue_.schedule(ev, delivered);
        }

        result.allAcked = std::max(result.allAcked, acked);
        ++result.ipis;
        ++ipisSent_;
      }
    });

    result.sendsDone = send_clock;
    if (result.ipis > 0)
        ++broadcasts_;
    return result;
}

} // namespace latr
