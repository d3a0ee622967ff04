/**
 * @file
 * The open-loop request-serving scenario: the subsystem that measures
 * the figure LATR leads with — tail request latency. Unlike the
 * closed-loop webserver workload (whose workers issue the next
 * request only after the previous one finishes, so queueing delay can
 * never accumulate), requests here arrive on a seeded-RNG Poisson
 * process with a diurnal load curve, drawn from millions of simulated
 * users mapped onto multi-tenant address spaces — one mm per tenant,
 * periodic tenant churn tearing a whole mm down mid-run — and are
 * served by per-core workers that drain FIFO queues. Service time
 * inflated by TLB-coherence work (synchronous shootdowns, stolen IPI
 * handler time, LATR sweeps) compounds into queueing delay, which is
 * exactly how Apache's p99 degrades on stock Linux in the paper's
 * figure 1.
 *
 * The scenario is trace-first: generateServeTrace() turns a
 * ServeConfig into a .latrace op stream (latrace.hh), and
 * runServeTrace() feeds any such stream — freshly generated or loaded
 * from disk — through the kernel deterministically. Same trace, same
 * machine, same policy => byte-identical results, so recordings are
 * shareable and diffable across PRs and policies.
 */

#ifndef LATR_SERVE_SERVE_HH_
#define LATR_SERVE_SERVE_HH_

#include <cstdint>
#include <vector>

#include "serve/histogram.hh"
#include "serve/latrace.hh"
#include "sim/types.hh"

namespace latr
{

class Machine;

/** Parameters of the generated open-loop serving scenario. */
struct ServeConfig
{
    /** Serving cores, one worker per core from core 0. */
    unsigned workers = 12;
    /** Concurrent tenant slots, one process (mm) each. */
    unsigned tenants = 6;
    /** Simulated user population, hashed onto tenants. */
    std::uint64_t users = 2'000'000;
    /**
     * Mean aggregate arrival rate (requests per simulated second).
     * The default sits just under synchronous Linux's serving
     * capacity on the commodity machine, so the diurnal peaks push
     * Linux past saturation while LATR stays comfortable — the
     * regime where lazy shootdowns buy their tail-latency win.
     */
    double arrivalRatePerSec = 160'000.0;
    /** Open-loop horizon: arrivals stop at this tick. */
    Duration duration = 120 * kMsec;
    /**
     * Diurnal load-curve amplitude in [0, 1): the instantaneous rate
     * follows a triangle wave rate*(1 +/- amplitude), so peaks can
     * exceed serving capacity while the mean does not — the shape
     * that turns service-time inflation into tail blowup.
     */
    double diurnalAmplitude = 0.25;
    /** Period of the diurnal triangle wave. */
    Duration diurnalPeriod = 60 * kMsec;
    /**
     * Tenant churn: every interval one slot exits (tearing down its
     * mm) and respawns fresh. 0 disables churn.
     */
    Duration churnInterval = 25 * kMsec;
    /** Pages of the served file (10 KB static page -> 3). */
    std::uint16_t filePages = 3;
    /** Pages of the occasional heavy response. */
    std::uint16_t heavyPages = 12;
    /** Per-mille of requests that are heavy. */
    unsigned heavyPermille = 100;
    /** Request CPU time outside memory management. */
    Duration serviceCpu = 30 * kUsec;
    std::uint64_t seed = 1;
};

/** Host-side knobs of one replay (never part of the simulation). */
struct ServeOptions
{
    /**
     * Keep one LatencyHistogram per tenant slot alongside the
     * aggregate — the per-tenant tail view bench_serve reports with
     * `--per-tenant`. Off by default: the extra histograms cost
     * ~0.5 MB per tenant slot. Slots aggregate across churn
     * generations (slot identity, not process identity). Pure
     * observer state: enabling it cannot change the simulation or
     * the run digest.
     */
    bool perTenantLatency = false;
};

/** Outcome of one open-loop run. */
struct ServeResult
{
    std::uint64_t arrivals = 0;
    /** Requests served to completion. */
    std::uint64_t completed = 0;
    /** Requests dropped because their tenant churned while queued. */
    std::uint64_t droppedChurn = 0;
    std::uint64_t tenantChurns = 0;
    /** Deepest any worker queue got (open-loop pressure gauge). */
    std::uint64_t maxQueueDepth = 0;

    /** Arrival-to-completion latency of every completed request. */
    LatencyHistogram latency;

    /**
     * Per-tenant-slot latency, indexed by slot; empty unless
     * ServeOptions::perTenantLatency was set. Excluded from the
     * digest so the flag is free to differ between compared runs.
     */
    std::vector<LatencyHistogram> tenantLatency;

    double requestsPerSec = 0.0;
    double shootdownsPerSec = 0.0;

    /**
     * Digest over the latency histogram, the request counts, and the
     * machine's full stat registry: byte-identical runs (same trace,
     * policy, and machine) digest equal. The record/replay tests
     * compare these.
     */
    std::uint64_t digest = 0;

    std::uint64_t p50() const { return latency.percentile(0.50); }
    std::uint64_t p99() const { return latency.percentile(0.99); }
    std::uint64_t p999() const { return latency.percentile(0.999); }
};

/**
 * Generate the .latrace op stream for @p config: Poisson arrivals
 * thinned against the diurnal curve, user->tenant mapping, heavy-
 * response mixing, and the tenant churn schedule. Deterministic:
 * equal configs produce byte-identical serializations.
 */
Latrace generateServeTrace(const ServeConfig &config);

/**
 * Feed @p trace through @p machine's kernel: spawn the tenants,
 * inject every op at its recorded tick, serve requests open-loop on
 * the worker cores, then drain the queues and lazy reclamation.
 * The machine must be fresh (no prior workload).
 */
ServeResult runServeTrace(Machine &machine, const Latrace &trace,
                          const ServeOptions &options = {});

} // namespace latr

#endif // LATR_SERVE_SERVE_HH_
