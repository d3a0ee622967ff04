#include "workload/webserver.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace latr
{

/** One serving thread: a closed loop of requests. */
class WebServerWorkload::Worker : public CoreActor
{
  public:
    Worker(Machine &machine, Task *task, const WebServerConfig &config,
           std::uint64_t seed)
        : CoreActor(machine, task), config_(config), rng_(seed),
          llcBase_(0x100'0000ULL * (task->core() + 1))
    {
    }

    std::uint64_t requests() const { return requests_; }

  protected:
    Duration
    step() override
    {
        Duration d = 0;

        if (config_.mmapPerRequest) {
            // Apache mpm_event: mmap the file, serve it, munmap it.
            SyscallResult m = kernel().mmap(
                task(), config_.fileBytes, kProtRead | kProtWrite,
                true);
            if (!m.ok)
                fatal("webserver mmap failed");
            d += m.latency;
            const std::uint64_t pages =
                pagesSpanned(m.addr, config_.fileBytes);
            for (std::uint64_t p = 0; p < pages; ++p) {
                TouchResult t = kernel().touch(
                    task(), m.addr + p * kPageSize, false);
                d += t.latency;
            }
            d += serveBody();
            SyscallResult u =
                kernel().munmap(task(), m.addr, config_.fileBytes);
            d += u.latency;
        } else {
            // nginx-style sendfile: no per-request mapping.
            d += serveBody();
        }

        ++requests_;
        return d;
    }

  private:
    /** The request's CPU work plus its cache footprint. */
    Duration
    serveBody()
    {
        Duration d = config_.serviceCpu;
        // Touch the worker's share of the application working set;
        // misses surface in table 4's app miss ratio.
        LlcCache &llc = machine().llcOf(
            machine().topo().nodeOf(core()));
        const CostModel &cost = machine().config().cost;
        for (unsigned i = 0; i < config_.llcLinesPerRequest; ++i) {
            const std::uint64_t line =
                llcBase_ +
                rng_.nextBounded(config_.llcWorkingSetLines);
            if (!llc.access(line, CacheAccessOrigin::App))
                d += cost.llcMissPenalty;
        }
        // Streamed request data never hits.
        for (unsigned i = 0; i < config_.llcColdLinesPerRequest; ++i) {
            if (!llc.access(llcBase_ + 0x4000'0000ULL + coldCursor_++,
                            CacheAccessOrigin::App))
                d += cost.llcMissPenalty;
        }
        // Mild service-time jitter, as request parsing varies.
        d += rng_.nextBounded(config_.serviceCpu / 8 + 1);
        return d;
    }

    const WebServerConfig &config_;
    Rng rng_;
    std::uint64_t llcBase_;
    std::uint64_t coldCursor_ = 0;
    std::uint64_t requests_ = 0;
};

WebServerWorkload::WebServerWorkload(Machine &machine,
                                     WebServerConfig config)
    : machine_(machine), config_(config)
{
    if (config_.workers == 0)
        fatal("webserver needs at least one worker");
    if (config_.processes == 0)
        config_.processes = 1;
    config_.workers =
        std::min(config_.workers, machine.topo().totalCores());
    config_.processes = std::min(config_.processes, config_.workers);
}

void
WebServerWorkload::start()
{
    if (started_)
        return;
    started_ = true;

    Kernel &kernel = machine_.kernel();
    std::vector<Process *> procs;
    for (unsigned p = 0; p < config_.processes; ++p)
        procs.push_back(
            kernel.createProcess("apache" + std::to_string(p)));

    for (unsigned w = 0; w < config_.workers; ++w) {
        Process *proc = procs[w % config_.processes];
        Task *task = kernel.spawnTask(proc, static_cast<CoreId>(w));
        auto worker = std::make_unique<Worker>(
            machine_, task, config_, config_.seed * 1000 + w);
        // Stagger the start so requests do not phase-align.
        worker->start(machine_.now() + w * 3 * kUsec + 1);
        workers_.push_back(std::move(worker));
    }
}

std::uint64_t
WebServerWorkload::requestsServed() const
{
    std::uint64_t total = 0;
    for (const auto &w : workers_)
        total += static_cast<const Worker &>(*w).requests();
    return total;
}

WebServerResult
WebServerWorkload::measure(Duration warmup, Duration measured)
{
    start();
    machine_.run(warmup);

    const std::uint64_t req0 = requestsServed();
    const std::uint64_t sd0 =
        machine_.stats().counterValue("coh.shootdowns");
    for (NodeId n = 0; n < machine_.config().sockets; ++n)
        machine_.llcOf(n).resetStats();

    machine_.run(measured);

    WebServerResult result;
    result.requests = requestsServed() - req0;
    result.requestsPerSec = ratePerSecond(result.requests, measured);
    result.shootdownsPerSec = ratePerSecond(
        machine_.stats().counterValue("coh.shootdowns") - sd0,
        measured);

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (NodeId n = 0; n < machine_.config().sockets; ++n) {
        hits += machine_.llcOf(n).hits(CacheAccessOrigin::App);
        misses += machine_.llcOf(n).misses(CacheAccessOrigin::App);
    }
    if (hits + misses > 0)
        result.llcAppMissRatio = static_cast<double>(misses) /
                                 static_cast<double>(hits + misses);
    return result;
}

} // namespace latr
