#include "serve/serve.hh"

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "vm/address_space.hh"
#include "vm/vma.hh"

namespace latr
{

namespace
{

/** Pages each tenant keeps resident for its lifetime (heap, code). */
constexpr std::uint64_t kTenantBasePages = 16;

/** Simulation slice while waiting for the queues to drain. */
constexpr Duration kDrainSlice = 1 * kMsec;

/** Post-drain grace so LATR's lazy reclamation epochs complete. */
constexpr Duration kReclaimGrace = 8 * kMsec;

/**
 * splitmix64 finalizer: per-request execution-time jitter is a hash
 * of fields already in the trace record, not an RNG draw, so replay
 * consumes no random state and reproduces recording exactly.
 */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Diurnal load shape in [-1, 1]: a triangle wave (peak at half
 * period). Piecewise-linear on purpose — no libm transcendentals, so
 * the generated arrival stream is bit-stable across platforms.
 */
double
diurnal(Tick t, Duration period)
{
    const double x = static_cast<double>(t % period) /
                     static_cast<double>(period);
    return x < 0.5 ? 4.0 * x - 1.0 : 3.0 - 4.0 * x;
}

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; ++b) {
        h ^= (v >> (b * 8)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
fnvString(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Replays a .latrace stream through a machine, open-loop. */
class OpenLoopServer
{
  public:
    OpenLoopServer(Machine &machine, const Latrace &trace,
                   const ServeOptions &options)
        : machine_(machine), trace_(trace), options_(options),
          workers_(std::min<unsigned>(trace.workers,
                                      machine.topo().totalCores())),
          tenantCount_(trace.tenants)
    {
        if (workers_ == 0 || tenantCount_ == 0)
            fatal("serve: trace needs >= 1 worker and >= 1 tenant "
                  "(got %u workers, %u tenants)",
                  trace.workers, trace.tenants);
    }

    ServeResult run();

  private:
    struct PendingRequest
    {
        Tick arrival = 0;
        std::uint32_t user = 0;
        std::uint32_t tenant = 0;
        /** Tenant generation at enqueue; churn drops stale entries. */
        std::uint32_t generation = 0;
        std::uint16_t pages = 1;
    };

    struct Worker
    {
        CoreId core = 0;
        std::deque<PendingRequest> queue;
        bool busy = false;
        PendingRequest active{};
        /** mm the active request ran on (survives tenant churn). */
        MmId activeMm = 0;
    };

    struct TenantSlot
    {
        Process *process = nullptr;
        /** Bumped at every exit; queued requests carry the value. */
        std::uint32_t generation = 0;
        /** One task per worker core. */
        std::vector<Task *> tasks;
    };

    void spawnTenant(std::uint32_t slot);
    void exitTenant(std::uint32_t slot);
    void applyRecord(const LatraceRecord &rec);
    void pumpFeeder();
    void startNext(unsigned w);
    Duration serveActive(unsigned w);
    void complete(unsigned w);
    bool drained() const;

    Machine &machine_;
    const Latrace &trace_;
    ServeOptions options_;
    unsigned workers_;
    unsigned tenantCount_;
    std::size_t cursor_ = 0;
    /** Round-robin dispatch position. */
    std::uint64_t arrivalSeq_ = 0;
    bool feederDone_ = false;
    std::vector<Worker> workerState_;
    std::vector<TenantSlot> tenants_;
    ServeResult result_;
};

void
OpenLoopServer::spawnTenant(std::uint32_t slot)
{
    TenantSlot &ts = tenants_[slot];
    Kernel &kernel = machine_.kernel();
    ts.process =
        kernel.createProcess("tenant" + std::to_string(slot));
    ts.tasks.assign(workers_, nullptr);
    for (unsigned w = 0; w < workers_; ++w)
        ts.tasks[w] = kernel.spawnTask(ts.process, workerState_[w].core);
    // The tenant's resident working set: touched from every worker
    // core so exitProcess() later has cross-core TLB residue and
    // frames to tear down — the churn lifecycle LATR's sweeps must
    // absorb.
    SyscallResult base =
        kernel.mmap(ts.tasks[0], kTenantBasePages * kPageSize,
                    kProtRead | kProtWrite, false);
    for (std::uint64_t p = 0; p < kTenantBasePages; ++p) {
        Task *toucher = ts.tasks[p % workers_];
        kernel.touch(toucher, base.addr + p * kPageSize, true);
    }
}

void
OpenLoopServer::exitTenant(std::uint32_t slot)
{
    TenantSlot &ts = tenants_[slot];
    if (!ts.process)
        return;
    // An in-flight request of this tenant already issued its
    // syscalls; its completion event only records latency, so the
    // teardown does not touch it. Queued requests die by generation.
    machine_.kernel().exitProcess(ts.process);
    ts.process = nullptr;
    ts.tasks.clear();
    ++ts.generation;
    ++result_.tenantChurns;
}

void
OpenLoopServer::applyRecord(const LatraceRecord &rec)
{
    const std::uint32_t slot = rec.tenant % tenantCount_;
    switch (rec.op) {
    case LatraceOp::Request: {
        ++result_.arrivals;
        const unsigned w =
            static_cast<unsigned>(arrivalSeq_++ % workers_);
        Worker &wk = workerState_[w];
        PendingRequest req;
        req.arrival = rec.tick;
        req.user = rec.user;
        req.tenant = slot;
        req.generation = tenants_[slot].generation;
        req.pages = std::max<std::uint16_t>(rec.pages, 1);
        wk.queue.push_back(req);
        result_.maxQueueDepth = std::max<std::uint64_t>(
            result_.maxQueueDepth, wk.queue.size());
        if (!wk.busy)
            startNext(w);
        break;
    }
    case LatraceOp::TenantExit:
        exitTenant(slot);
        break;
    case LatraceOp::TenantSpawn:
        exitTenant(slot); // defensive: spawn into an occupied slot
        spawnTenant(slot);
        break;
    }
}

void
OpenLoopServer::pumpFeeder()
{
    EventQueue &queue = machine_.queue();
    const Tick now = queue.now();
    while (cursor_ < trace_.records.size() &&
           trace_.records[cursor_].tick <= now)
        applyRecord(trace_.records[cursor_++]);
    if (cursor_ < trace_.records.size()) {
        queue.scheduleLambda(trace_.records[cursor_].tick,
                             [this] { pumpFeeder(); });
    } else {
        feederDone_ = true;
    }
}

void
OpenLoopServer::startNext(unsigned w)
{
    Worker &wk = workerState_[w];
    while (!wk.queue.empty()) {
        PendingRequest req = wk.queue.front();
        wk.queue.pop_front();
        TenantSlot &ts = tenants_[req.tenant];
        if (req.generation != ts.generation || !ts.process) {
            ++result_.droppedChurn;
            continue;
        }
        wk.busy = true;
        wk.active = req;
        const Duration d = serveActive(w);
        machine_.queue().scheduleLambda(machine_.now() + d,
                                        [this, w] { complete(w); });
        return;
    }
    wk.busy = false;
}

Duration
OpenLoopServer::serveActive(unsigned w)
{
    Worker &wk = workerState_[w];
    Kernel &kernel = machine_.kernel();
    TenantSlot &ts = tenants_[wk.active.tenant];
    Task *task = ts.tasks[w];
    wk.activeMm = task->mm().id();

    // Stolen time accrued while this worker sat idle is discarded
    // (drained but not charged): the IPI handlers and sweeps it
    // covers delayed nobody. Steal landing *during* service is
    // charged by the completion loop below.
    machine_.scheduler().takeStolen(wk.core);

    Duration d = kernel.switchToTask(task);

    const std::uint64_t pages = wk.active.pages;
    SyscallResult m = kernel.mmap(task, pages * kPageSize,
                                  kProtRead | kProtWrite, true);
    d += m.latency;
    for (std::uint64_t p = 0; p < pages; ++p)
        d += kernel.touch(task, m.addr + p * kPageSize, false).latency;

    // Body generation: the trace's service CPU plus deterministic
    // per-request jitter hashed from record fields (no RNG draw, so
    // replay is exact).
    const Duration cpu = trace_.serviceCpuNs;
    d += cpu + mix64(wk.active.user ^ wk.active.arrival) %
                   (cpu / 8 + 1);

    SyscallResult u = kernel.munmap(task, m.addr, pages * kPageSize);
    d += u.latency;
    return d;
}

void
OpenLoopServer::complete(unsigned w)
{
    Worker &wk = workerState_[w];
    // Coherence work that landed on this core mid-service (IPI
    // handlers, LATR sweeps) pushes the response out; keep
    // postponing until a quiet interval. This is the open-loop
    // analogue of CoreActor::doStep()'s takeStolen() charge — and
    // the mechanism by which shootdown interference becomes tail
    // latency.
    const Duration stolen = machine_.scheduler().takeStolen(wk.core);
    if (stolen > 0) {
        machine_.queue().scheduleLambda(machine_.now() + stolen,
                                        [this, w] { complete(w); });
        return;
    }
    const Duration latency = machine_.now() - wk.active.arrival;
    result_.latency.record(latency);
    if (!result_.tenantLatency.empty())
        result_.tenantLatency[wk.active.tenant].record(latency);
    ++result_.completed;
    machine_.kernel().noteRequestComplete(wk.core, wk.activeMm,
                                          latency);
    wk.busy = false;
    startNext(w);
}

bool
OpenLoopServer::drained() const
{
    if (!feederDone_)
        return false;
    for (const Worker &wk : workerState_)
        if (wk.busy || !wk.queue.empty())
            return false;
    return true;
}

ServeResult
OpenLoopServer::run()
{
    workerState_.assign(workers_, Worker{});
    for (unsigned w = 0; w < workers_; ++w)
        workerState_[w].core = static_cast<CoreId>(w);
    if (options_.perTenantLatency)
        result_.tenantLatency.assign(tenantCount_,
                                     LatencyHistogram{});
    tenants_.assign(tenantCount_, TenantSlot{});
    for (std::uint32_t s = 0; s < tenantCount_; ++s)
        spawnTenant(s);

    if (trace_.records.empty())
        feederDone_ = true;
    else
        machine_.queue().scheduleLambda(
            std::max(trace_.records.front().tick, machine_.now()),
            [this] { pumpFeeder(); });

    const Duration horizon =
        trace_.durationTicks ? trace_.durationTicks : kDrainSlice;
    machine_.run(horizon);
    // Open-loop: arrivals have stopped, but queues may still hold
    // the backlog of the last diurnal peak. Give the drain ten more
    // horizons before declaring the scenario divergent (offered load
    // persistently above capacity).
    const Tick limit = machine_.now() + 10 * horizon;
    while (!drained() && machine_.now() < limit)
        machine_.run(kDrainSlice);
    if (!drained())
        warn("serve: queues still backed up after 10x the horizon — "
             "offered load exceeds capacity; results cover %llu of "
             "%llu arrivals",
             static_cast<unsigned long long>(result_.completed),
             static_cast<unsigned long long>(result_.arrivals));
    machine_.run(kReclaimGrace);

    const Tick elapsed = machine_.now();
    result_.requestsPerSec = ratePerSecond(result_.completed, elapsed);
    result_.shootdownsPerSec = ratePerSecond(
        machine_.stats().counterValue("coh.shootdowns"), elapsed);

    std::uint64_t h = 1469598103934665603ULL;
    h = fnvMix(h, result_.arrivals);
    h = fnvMix(h, result_.completed);
    h = fnvMix(h, result_.droppedChurn);
    h = fnvMix(h, result_.tenantChurns);
    h = fnvMix(h, result_.latency.digest());
    h = fnvString(h, machine_.stats().dump());
    result_.digest = h;
    return result_;
}

} // namespace

Latrace
generateServeTrace(const ServeConfig &config)
{
    if (config.workers == 0 || config.tenants == 0)
        fatal("serve: config needs >= 1 worker and >= 1 tenant");
    if (config.diurnalAmplitude < 0.0 || config.diurnalAmplitude >= 1.0)
        fatal("serve: diurnal amplitude must be in [0, 1)");

    Latrace trace;
    trace.seed = config.seed;
    trace.durationTicks = config.duration;
    trace.workers = config.workers;
    trace.tenants = config.tenants;
    trace.serviceCpuNs = config.serviceCpu;

    // Inhomogeneous Poisson arrivals by thinning: draw from the peak
    // rate, keep each with probability rate(t)/peak.
    std::vector<LatraceRecord> arrivals;
    Rng rng(config.seed);
    const double peak =
        config.arrivalRatePerSec * (1.0 + config.diurnalAmplitude);
    if (peak > 0.0 && config.duration > 0) {
        const double meanGapNs = 1e9 / peak;
        const double horizon = static_cast<double>(config.duration);
        const std::uint64_t users = std::max<std::uint64_t>(
            config.users, 1);
        double t = 0.0;
        for (;;) {
            t += rng.nextExponential(meanGapNs);
            if (t >= horizon)
                break;
            const Tick tick = static_cast<Tick>(t);
            const double rate =
                config.arrivalRatePerSec *
                (1.0 + config.diurnalAmplitude *
                           diurnal(tick, std::max<Duration>(
                                             config.diurnalPeriod, 1)));
            if (rng.nextDouble() * peak > rate)
                continue; // thinned away
            LatraceRecord rec;
            rec.tick = tick;
            rec.user = static_cast<std::uint32_t>(
                rng.nextBounded(users));
            rec.tenant = rec.user % config.tenants;
            rec.pages =
                rng.nextBounded(1000) < config.heavyPermille
                    ? config.heavyPages
                    : config.filePages;
            rec.pages = std::max<std::uint16_t>(rec.pages, 1);
            rec.op = LatraceOp::Request;
            arrivals.push_back(rec);
        }
    }

    // Churn schedule: every interval, the next slot round-robin
    // exits and respawns.
    std::vector<LatraceRecord> churn;
    if (config.churnInterval > 0) {
        unsigned k = 0;
        for (Tick at = config.churnInterval; at < config.duration;
             at += config.churnInterval, ++k) {
            LatraceRecord rec;
            rec.tick = at;
            rec.tenant = k % config.tenants;
            rec.op = LatraceOp::TenantExit;
            churn.push_back(rec);
            rec.op = LatraceOp::TenantSpawn;
            churn.push_back(rec);
        }
    }

    // Merge by tick; on ties churn lands first, so a same-tick
    // request already sees the fresh tenant.
    trace.records.reserve(arrivals.size() + churn.size());
    std::merge(churn.begin(), churn.end(), arrivals.begin(),
               arrivals.end(), std::back_inserter(trace.records),
               [](const LatraceRecord &a, const LatraceRecord &b) {
                   return a.tick < b.tick;
               });
    return trace;
}

ServeResult
runServeTrace(Machine &machine, const Latrace &trace,
              const ServeOptions &options)
{
    OpenLoopServer server(machine, trace, options);
    return server.run();
}

} // namespace latr
