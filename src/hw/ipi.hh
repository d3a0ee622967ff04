/**
 * @file
 * The inter-processor-interrupt fabric (the simulated APIC). The
 * APIC has no flexible multicast, so a broadcast serializes one ICR
 * write per destination on the initiating core; each interrupt then
 * flies across the interconnect (latency grows with socket hops), the
 * destination runs a handler, and an ACK cache line travels back.
 * This reproduces the two properties the paper builds on: shootdown
 * cost grows with core count, and the initiator stalls until the
 * last ACK.
 */

#ifndef LATR_HW_IPI_HH_
#define LATR_HW_IPI_HH_

#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "topo/cost_model.hh"
#include "topo/topology.hh"

namespace latr
{

class TraceRecorder;

/**
 * Outcome of an IPI broadcast, computed at send time (the cost model
 * makes handler durations known up front, so the completion tick is
 * deterministic).
 */
struct IpiBroadcastResult
{
    /** Tick at which the last ACK reaches the initiator. */
    Tick allAcked = 0;
    /** Tick at which the initiator finishes writing all ICRs. */
    Tick sendsDone = 0;
    /** Number of IPIs sent. */
    unsigned ipis = 0;
};

/** Delivers IPIs between cores and tracks fabric statistics. */
class IpiFabric
{
  public:
    /**
     * @param queue global event queue.
     * @param topo machine topology (hop distances).
     * @param cost latency constants.
     */
    IpiFabric(EventQueue &queue, const NumaTopology &topo,
              const CostModel &cost);

    IpiFabric(const IpiFabric &) = delete;
    IpiFabric &operator=(const IpiFabric &) = delete;

    /** Attach the trace recorder (nullptr to detach). */
    void setTracer(TraceRecorder *trace) { trace_ = trace; }

    /** Handler side effects, invoked at the handler-start tick. */
    using DeliverFn = std::function<void(CoreId, Tick)>;

    /**
     * Broadcast an IPI from @p initiator to every core in
     * @p targets (the initiator, if present, is skipped: local work
     * is the caller's business).
     *
     * @param start tick the initiator begins writing ICRs; must be
     *        at or after the queue's current time (operations that
     *        waited on a lock start late).
     * @param handler_cost cost of the handler body on every target,
     *        beyond the fixed interrupt entry/exit cost.
     * @param on_deliver side effects to apply when the interrupt is
     *        handled on a target (TLB invalidation, stolen-time
     *        charging); invoked at the handler-start tick.
     * @return completion information, including the tick the last
     *         ACK arrives (the initiator blocks until then).
     */
    IpiBroadcastResult broadcast(CoreId initiator,
                                 const CpuMask &targets, Tick start,
                                 Duration handler_cost,
                                 DeliverFn on_deliver);

    /// @name Stats
    /// @{
    std::uint64_t ipisSent() const { return ipisSent_; }
    std::uint64_t broadcasts() const { return broadcasts_; }
    void resetStats() { ipisSent_ = 0; broadcasts_ = 0; }
    /// @}

  private:
    /**
     * One in-flight interrupt delivery, pooled by the fabric
     * (acquire at broadcast, recycle after the handler runs), so
     * sustained IPI fallback storms allocate no events.
     */
    class DeliveryEvent final : public Event
    {
      public:
        void process() override;
        const char *name() const override { return "ipi-delivery"; }

      private:
        friend class IpiFabric;

        IpiFabric *fabric = nullptr;
        CoreId target = 0;
        /** Handler-start tick (on_deliver's Tick argument). */
        Tick at = 0;
        DeliverFn deliver;
    };

    /** Pop a recycled delivery event or grow the pool. */
    DeliveryEvent *acquireDelivery();

    /** DeliveryEvent::process(): run the handler, recycle the event. */
    void runDelivery(DeliveryEvent *ev);

    EventQueue &queue_;
    const NumaTopology &topo_;
    const CostModel &cost_;
    TraceRecorder *trace_ = nullptr;

    std::uint64_t ipisSent_ = 0;
    std::uint64_t broadcasts_ = 0;

    /** Pooled delivery events (owners) and the recycled free list. */
    std::vector<std::unique_ptr<DeliveryEvent>> events_;
    std::vector<DeliveryEvent *> free_;
};

} // namespace latr

#endif // LATR_HW_IPI_HH_
