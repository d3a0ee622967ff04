#include "workload/lazycache.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace latr
{

/**
 * One reader thread: pick a page (hot-biased), take the optimistic
 * read lock — remember the generation, read the payload, revalidate
 * — and refill the page on a discard, as lazyfree_cache's
 * LAZYFREE_LOCK_CHECK path does when the kernel reclaimed the page
 * under the reader.
 */
class LazyCacheWorkload::Reader : public CoreActor
{
  public:
    Reader(Machine &machine, Task *task, LazyCacheWorkload &cache,
           std::uint64_t seed)
        : CoreActor(machine, task), cache_(cache), rng_(seed)
    {
    }

  protected:
    Duration
    step() override
    {
        LazyCacheWorkload &c = cache_;
        Duration d = c.config_.readThink;

        std::uint64_t page;
        if (rng_.nextDouble() < c.config_.hotBias || c.hotPages_ == c.config_.cachePages)
            page = rng_.nextBounded(c.hotPages_);
        else
            page = c.hotPages_ +
                   rng_.nextBounded(c.config_.cachePages - c.hotPages_);

        // Optimistic read lock: note the generation, read, revalidate.
        const std::uint32_t gen = c.generation_[page];
        TouchResult t =
            kernel().touch(task(), c.pageAddr(page), false);
        d += t.latency;
        ++c.reads_;

        if (!c.filled_[page] || c.generation_[page] != gen) {
            // Revalidation failed — the page was discarded (the read
            // refaulted a zero frame, or will the next time its
            // stale translation drops). Refill and bump the
            // generation so in-flight optimistic readers notice.
            ++c.revalFails_;
            TouchResult w =
                kernel().touch(task(), c.pageAddr(page), true);
            d += w.latency;
            c.filled_[page] = 1;
            ++c.generation_[page];
            ++c.refills_;
        } else {
            ++c.hits_;
        }
        return d;
    }

  private:
    LazyCacheWorkload &cache_;
    Rng rng_;
};

/** One writer thread: fill pages across the full set. */
class LazyCacheWorkload::Writer : public CoreActor
{
  public:
    Writer(Machine &machine, Task *task, LazyCacheWorkload &cache,
           std::uint64_t seed)
        : CoreActor(machine, task), cache_(cache), rng_(seed)
    {
    }

  protected:
    Duration
    step() override
    {
        LazyCacheWorkload &c = cache_;
        Duration d = c.config_.writeThink;

        const std::uint64_t page =
            rng_.nextBounded(c.config_.cachePages);
        TouchResult t =
            kernel().touch(task(), c.pageAddr(page), true);
        d += t.latency;
        c.filled_[page] = 1;
        ++c.generation_[page];
        ++c.writes_;
        return d;
    }

  private:
    LazyCacheWorkload &cache_;
    Rng rng_;
};

/**
 * The memory-pressure thread: every pressureInterval it MADV_FREEs
 * a burst of cold filled pages back-to-back. Under LATR each
 * single-page free saves one ring state; a burst larger than
 * latrStatesPerCore overflows the ring mid-burst (states persist
 * for the 2 ms reclaim delay, far longer than the burst), forcing
 * the fallback-IPI path — the overflow regime the paper's
 * benchmarks never reach.
 */
class LazyCacheWorkload::Pressure : public CoreActor
{
  public:
    Pressure(Machine &machine, Task *task, LazyCacheWorkload &cache,
             std::uint64_t seed)
        : CoreActor(machine, task), cache_(cache), rng_(seed)
    {
    }

  protected:
    Duration
    step() override
    {
        LazyCacheWorkload &c = cache_;
        const std::uint64_t cold = c.config_.cachePages - c.hotPages_;
        if (cold == 0 || c.config_.burstPages == 0)
            return c.config_.pressureInterval;

        ++c.bursts_;
        Duration d = 0;
        std::uint64_t discarded = 0;
        // Bounded scan: cold unfilled pages are skipped, so late in
        // a burst most probes miss; 4x attempts keeps bursts near
        // their nominal size without risking an unbounded loop.
        for (std::uint64_t n = 0;
             n < c.config_.burstPages * 4 &&
             discarded < c.config_.burstPages;
             ++n) {
            const std::uint64_t page =
                c.hotPages_ + rng_.nextBounded(cold);
            if (!c.filled_[page])
                continue;
            SyscallResult r = kernel().madviseFree(
                task(), c.pageAddr(page), kPageSize);
            d += r.latency;
            if (!r.ok)
                continue;
            c.filled_[page] = 0;
            ++c.generation_[page];
            ++discarded;
            ++c.discardedPages_;
        }
        return d + c.config_.pressureInterval;
    }

  private:
    LazyCacheWorkload &cache_;
    Rng rng_;
};

LazyCacheWorkload::LazyCacheWorkload(Machine &machine,
                                     LazyCacheConfig config)
    : machine_(machine), config_(config)
{
    if (config_.cachePages == 0)
        fatal("lazycache needs at least one page");
    if (config_.readers == 0)
        fatal("lazycache needs at least one reader");
    const unsigned cores = machine.topo().totalCores();
    const unsigned pressure = config_.burstPages > 0 ? 1 : 0;
    // Fit readers + writers + the pressure thread on the topology.
    if (config_.readers + config_.writers + pressure > cores) {
        config_.readers = std::min(
            config_.readers, cores > pressure ? cores - pressure : 1);
        config_.writers =
            std::min(config_.writers,
                     cores - pressure - std::min(config_.readers,
                                                 cores - pressure));
    }
    config_.hotFraction = std::clamp(config_.hotFraction, 0.0, 1.0);
    hotPages_ = static_cast<std::uint64_t>(
        static_cast<double>(config_.cachePages) * config_.hotFraction);
    hotPages_ = std::clamp<std::uint64_t>(hotPages_, 1,
                                          config_.cachePages);
    generation_.assign(config_.cachePages, 0);
    filled_.assign(config_.cachePages, 0);
}

void
LazyCacheWorkload::start()
{
    if (started_)
        return;
    started_ = true;

    Kernel &kernel = machine_.kernel();
    Process *proc = kernel.createProcess("lazycache");

    CoreId next = 0;
    std::vector<Task *> tasks;
    const unsigned pressure = config_.burstPages > 0 ? 1 : 0;
    for (unsigned i = 0; i < config_.readers + config_.writers + pressure;
         ++i)
        tasks.push_back(kernel.spawnTask(proc, next++));

    // Map the cache region once and prefill every page from the
    // first task — lazyfree_cache warms its arena the same way —
    // so steady state starts from an all-filled directory.
    SyscallResult m =
        kernel.mmap(tasks[0], config_.cachePages * kPageSize,
                    kProtRead | kProtWrite);
    if (!m.ok)
        fatal("lazycache mmap failed");
    base_ = m.addr;
    for (std::uint64_t p = 0; p < config_.cachePages; ++p) {
        kernel.touch(tasks[0], pageAddr(p), true);
        generation_[p] = 1;
        filled_[p] = 1;
    }

    unsigned t = 0;
    for (unsigned r = 0; r < config_.readers; ++r, ++t) {
        auto actor = std::make_unique<Reader>(
            machine_, tasks[t], *this, config_.seed * 1000 + t);
        actor->start(machine_.now() + t * 3 * kUsec + 1);
        actors_.push_back(std::move(actor));
    }
    for (unsigned w = 0; w < config_.writers; ++w, ++t) {
        auto actor = std::make_unique<Writer>(
            machine_, tasks[t], *this, config_.seed * 1000 + t);
        actor->start(machine_.now() + t * 3 * kUsec + 1);
        actors_.push_back(std::move(actor));
    }
    if (pressure) {
        auto actor = std::make_unique<Pressure>(
            machine_, tasks[t], *this, config_.seed * 1000 + t);
        // First burst lands after the readers found their rhythm.
        actor->start(machine_.now() + config_.pressureInterval / 2 + 1);
        actors_.push_back(std::move(actor));
    }
}

std::uint64_t
LazyCacheWorkload::digest() const
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    mix(reads_);
    mix(hits_);
    mix(revalFails_);
    mix(refills_);
    mix(writes_);
    mix(discardedPages_);
    mix(bursts_);
    for (std::uint64_t p = 0; p < config_.cachePages; ++p)
        mix((static_cast<std::uint64_t>(generation_[p]) << 1) |
            filled_[p]);
    for (const auto &actor : actors_)
        mix(actor->iterations());
    return h;
}

LazyCacheResult
LazyCacheWorkload::measure(Duration warmup, Duration measured)
{
    start();
    machine_.run(warmup);

    const std::uint64_t reads0 = reads_;
    const std::uint64_t hits0 = hits_;
    const std::uint64_t reval0 = revalFails_;
    const std::uint64_t refills0 = refills_;
    const std::uint64_t writes0 = writes_;
    const std::uint64_t discards0 = discardedPages_;
    const std::uint64_t bursts0 = bursts_;
    const std::uint64_t fb0 =
        machine_.stats().counterValue("latr.fallback_ipis");
    const std::uint64_t rp0 =
        machine_.stats().counterValue("latr.reclaimed_pages");

    machine_.run(measured);

    LazyCacheResult result;
    result.reads = reads_ - reads0;
    result.hits = hits_ - hits0;
    result.revalidationFails = revalFails_ - reval0;
    result.refills = refills_ - refills0;
    result.writes = writes_ - writes0;
    result.discardedPages = discardedPages_ - discards0;
    result.bursts = bursts_ - bursts0;
    result.fallbackIpis =
        machine_.stats().counterValue("latr.fallback_ipis") - fb0;
    result.reclaimedPages =
        machine_.stats().counterValue("latr.reclaimed_pages") - rp0;
    result.readsPerSec = ratePerSecond(result.reads, measured);
    result.eventsPerSec = ratePerSecond(
        result.reads + result.writes + result.discardedPages,
        measured);
    if (result.reads > 0)
        result.hitRatio = static_cast<double>(result.hits) /
                          static_cast<double>(result.reads);
    result.digest = digest();
    return result;
}

} // namespace latr
