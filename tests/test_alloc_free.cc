// Proves the PR's allocation-free claim: after warmup, the engine's
// hottest paths — EventQueue::schedule/dispatch (including pooled
// lambdas) and Tlb insert/lookup/invalidateRange/invalidatePcid/
// flushAll —
// perform zero heap allocations. A replaced global operator new
// counts every allocation in the process; each test snapshots the
// counter around a steady-state loop and requires a delta of zero.
//
// This is a separate binary from latr_tests so the replaced
// operator new cannot perturb (or be perturbed by) the main suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "hw/tlb.hh"
#include "machine/machine.hh"
#include "serve/histogram.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "workload/lazycache.hh"

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace latr
{
namespace
{

std::uint64_t
allocsNow()
{
    return g_allocs.load(std::memory_order_relaxed);
}

class TickEvent : public Event
{
  public:
    TickEvent(EventQueue *q, Duration period) : q_(q), period_(period)
    {}

    void process() override { q_->schedule(this, q_->now() + period_); }

  private:
    EventQueue *q_;
    Duration period_;
};

TEST(AllocFree, EventQueueScheduleDispatchSteadyState)
{
    EventQueue q;
    TickEvent a(&q, 3);
    TickEvent b(&q, 5);
    TickEvent c(&q, 7);
    q.schedule(&a, 1);
    q.schedule(&b, 1);
    q.schedule(&c, 2);
    // Warmup grows the slot array, heap storage, and lambda pool to
    // their steady-state footprint.
    for (int i = 0; i < 2000; ++i)
        q.scheduleLambda(q.now() + 1 + (i % 13), []() {});
    q.run(q.now() + 10000);

    const std::uint64_t before = allocsNow();
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 50; ++i)
            q.scheduleLambda(q.now() + 1 + (i % 13), []() {});
        q.run(q.now() + 100);
        q.reschedule(&a, q.now() + 2);
    }
    EXPECT_EQ(allocsNow() - before, 0u)
        << "EventQueue schedule/dispatch allocated in steady state";

    q.deschedule(&a);
    q.deschedule(&b);
    q.deschedule(&c);
}

TEST(AllocFree, TlbInsertLookupInvalidateSteadyState)
{
    Tlb tlb(0, 64, 512, 32);
    Rng rng(0xa110c);
    const Vpn working_set = 2048;

    // Warmup: fill both levels and the huge array past capacity.
    for (Vpn v = 0; v < working_set; ++v)
        tlb.insert(v, 0x1000 + v, 1);
    for (Vpn b = 0; b < 64 * kHugePageSpan; b += kHugePageSpan)
        tlb.insertHuge(b, 0x100000 + b, 1);

    const std::uint64_t before = allocsNow();
    for (int i = 0; i < 100000; ++i) {
        const Vpn vpn = rng.nextBounded(working_set);
        Pfn pfn;
        if (tlb.lookup(vpn, 1, &pfn) == TlbResult::Miss)
            tlb.insert(vpn, 0x1000 + vpn, 1);
        if ((i & 0xff) == 0) {
            const Vpn base = rng.nextBounded(working_set);
            tlb.invalidateRange(base, base + 7, 1);
        }
        if ((i & 0xfff) == 0)
            tlb.invalidatePcid(2);
        if ((i & 0x3ff) == 0)
            tlb.flushAll();
    }
    tlb.flushAll();
    EXPECT_EQ(allocsNow() - before, 0u)
        << "Tlb hot paths allocated in steady state";
}

TEST(AllocFree, LazyCacheSteadyStateReadWriteLoop)
{
    // The lazycache hot loop — optimistic reads revalidating
    // generations, writers bumping them, pooled step events
    // rescheduling — must not touch the heap once warm. Pressure is
    // disabled (burstPages = 0): MADV_FREE's unmap bookkeeping is
    // allowed to allocate, the read/write cache loop is not.
    LazyCacheConfig cfg;
    cfg.cachePages = 512;
    cfg.hotFraction = 0.25;
    cfg.readers = 4;
    cfg.writers = 2;
    cfg.burstPages = 0;
    Machine machine(MachineConfig::commodity2S16C(),
                    PolicyKind::Latr);
    LazyCacheWorkload cache(machine, cfg);
    cache.start();
    machine.run(5 * kMsec); // warmup: faults in every page, fills TLBs

    const std::uint64_t before = allocsNow();
    const std::uint64_t readsBefore = cache.reads();
    machine.run(20 * kMsec);
    EXPECT_EQ(allocsNow() - before, 0u)
        << "lazycache steady-state loop allocated";
    EXPECT_GT(cache.reads(), readsBefore);
    EXPECT_GT(cache.writes(), 0u);
}

TEST(AllocFree, LatencyHistogramRecordAndQueryAreAllocFree)
{
    // The serve subsystem records every request completion into this
    // histogram on the hot path, so record() — and the percentile
    // queries the SLO report makes — must never touch the heap. The
    // buckets are a fixed-size member array; no warmup needed.
    LatencyHistogram h;
    Rng rng(0x5e21e);

    const std::uint64_t before = allocsNow();
    for (int i = 0; i < 100000; ++i)
        h.record(rng.nextBounded(50'000'000) + 1);
    const std::uint64_t sum = h.percentile(0.50) + h.percentile(0.99) +
                              h.percentile(0.999) + h.digest();
    EXPECT_EQ(allocsNow() - before, 0u)
        << "LatencyHistogram hot paths allocated";
    EXPECT_EQ(h.count(), 100000u);
    EXPECT_GT(sum, 0u);
}

} // namespace
} // namespace latr
