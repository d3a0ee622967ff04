// bench_engine: microbenchmarks of the simulation engine itself, the
// substrate every figure/table bench stands on. Four scenarios:
//
//   event_churn  — raw EventQueue schedule/dispatch throughput: a set
//                  of self-rescheduling events plus a stream of
//                  one-off lambdas, the engine's two scheduling idioms.
//   tlb_churn    — Tlb insert/lookup/invalidate storm over a working
//                  set larger than the TLB, the hottest data structure
//                  in a machine simulation. Its JSON row carries the
//                  TLB's L1-hit, L2-hit and miss counts: deterministic
//                  work beside the wall-clock rate.
//   munmap_storm — a full 16-core machine running the paper's munmap
//                  microbenchmark back-to-back under Linux and LATR,
//                  measuring end-to-end simulated events per second of
//                  wall time.
//   big_machine  — the 8-socket/120-core box under LATR, ABIS, and
//                  the Predictive policy: twenty publisher processes
//                  flood the LATR state rings with AutoNUMA samples
//                  and munmaps while a hundred oversubscribed cores
//                  tick, sweep, and periodically take a machine-wide
//                  synchronous shootdown. The scenario the tick
//                  wheel, the sweep-elision mask, the flat sharer
//                  map, and the sharer perceptron exist for. The
//                  per-policy `coh.remote_interrupts` counts feed a
//                  hard gate: Predictive must deliver >= 40% fewer
//                  IPIs than full-mask LATR (exit 4 otherwise).
//
// Each scenario reports events/sec; `--json=FILE` writes the rows in
// the shared BENCH_*.json shape so the perf trajectory is tracked
// from run to run. `--check-against=BASELINE.json` exits nonzero if
// any machine scenario regresses more than --max-regression (default
// 0.30) below the baseline, and complains loudly when a baseline
// scenario is missing from the run — the CI perf-smoke gate. Any
// other argument exits 2 before anything runs.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "hw/tlb.hh"
#include "machine/machine.hh"
#include "os/kernel.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/microbench.hh"

using namespace latr;

namespace
{

double
wallSeconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

struct ScenarioResult
{
    const char *name;
    std::uint64_t events;
    double wallSec;
    /**
     * Machine scenarios: host seconds outside wallSec spent building
     * each machine and, where the scenario does it before its timed
     * part, spawning tasks and prefilling memory.
     */
    double setupSec = 0;

    double
    eventsPerSec() const
    {
        return wallSec > 0 ? static_cast<double>(events) / wallSec
                           : 0.0;
    }
};

/** Per-policy IPI fan-out of one big_machine run (the pred gate). */
struct BigMachineCounters
{
    std::uint64_t latrIpis = 0;
    std::uint64_t abisIpis = 0;
    std::uint64_t predIpis = 0;
    std::uint64_t predSaved = 0;
    std::uint64_t predMispredicts = 0;
    std::uint64_t predFallbacks = 0;
    std::uint64_t predVerifies = 0;

    /** Fractional IPI-delivery reduction of Predictive vs LATR. */
    double
    reductionVsLatr() const
    {
        return latrIpis > 0
                   ? 1.0 - static_cast<double>(predIpis) /
                               static_cast<double>(latrIpis)
                   : 0.0;
    }
};

/** The Tlb's own counters at the end of one tlb_churn run. */
struct TlbChurnCounters
{
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t misses = 0;
};

/** A self-rescheduling event: the scheduler-tick idiom. */
class ChurnEvent : public Event
{
  public:
    ChurnEvent(EventQueue *q, Duration period)
        : q_(q), period_(period)
    {}

    void
    process() override
    {
        q_->schedule(this, q_->now() + period_);
    }

    const char *name() const override { return "churn"; }

  private:
    EventQueue *q_;
    Duration period_;
};

ScenarioResult
runEventChurn()
{
    constexpr std::uint64_t kDispatches = 6'000'000;
    EventQueue q;
    std::vector<ChurnEvent> ring;
    ring.reserve(64);
    for (unsigned i = 0; i < 64; ++i) {
        ring.emplace_back(&q, 64 + i % 7);
        q.schedule(&ring.back(), 1 + i);
    }
    // A lambda stream rides along: one-off callbacks are the other
    // scheduling idiom the machines use (IPI deliveries, deferred
    // reclamation), and they exercise the owned-event pool.
    std::uint64_t lambdaBudget = kDispatches / 4;
    class LambdaFeeder : public Event
    {
      public:
        LambdaFeeder(EventQueue *q, std::uint64_t *budget)
            : q_(q), budget_(budget)
        {}

        void
        process() override
        {
            for (int i = 0; i < 8 && *budget_ > 0; ++i, --*budget_)
                q_->scheduleLambda(q_->now() + 16 + i, []() {});
            if (*budget_ > 0)
                q_->schedule(this, q_->now() + 32);
        }

      private:
        EventQueue *q_;
        std::uint64_t *budget_;
    };
    LambdaFeeder feeder(&q, &lambdaBudget);
    q.schedule(&feeder, 1);

    const auto start = std::chrono::steady_clock::now();
    while (q.executed() < kDispatches)
        q.run(q.now() + 4096);
    const double wall = wallSeconds(start);
    for (ChurnEvent &ev : ring)
        q.deschedule(&ev);
    q.deschedule(&feeder);
    return {"event_churn", q.executed(), wall};
}

ScenarioResult
runTlbChurn(TlbChurnCounters &counts)
{
    constexpr std::uint64_t kOps = 8'000'000;
    Tlb tlb(0, 64, 1024, 32);
    Rng rng(0x7a11);
    const Vpn workingSet = 4096; // ~4x total TLB capacity
    std::uint64_t ops = 0;
    const auto start = std::chrono::steady_clock::now();
    while (ops < kOps) {
        const Vpn vpn = rng.nextBounded(workingSet);
        const Pcid pcid = static_cast<Pcid>(1 + (vpn & 1));
        Pfn pfn;
        if (tlb.lookup(vpn, pcid, &pfn) == TlbResult::Miss)
            tlb.insert(vpn, 0x100000 + vpn, pcid);
        ++ops;
        if ((ops & 0x3ff) == 0) { // periodic munmap-like range kill
            const Vpn base = rng.nextBounded(workingSet);
            tlb.invalidateRange(base, base + 15, 1);
            ++ops;
        }
        if ((ops & 0xffff) == 0) { // rare context teardown
            tlb.invalidatePcid(2);
            ++ops;
        }
    }
    const double wall = wallSeconds(start);
    counts = {tlb.l1Hits(), tlb.l2Hits(), tlb.misses()};
    return {"tlb_churn", ops, wall};
}

ScenarioResult
runMunmapStorm()
{
    std::uint64_t events = 0;
    double wall = 0;
    double setup = 0;
    for (PolicyKind policy :
         {PolicyKind::LinuxSync, PolicyKind::Latr}) {
        MachineConfig config = MachineConfig::commodity2S16C();
        // The microbenchmark spawns its tasks inside the timed call,
        // so set-up here is the machine's construction alone.
        const auto built = std::chrono::steady_clock::now();
        Machine machine(config, policy);
        setup += wallSeconds(built);
        MunmapMicrobenchConfig cfg;
        cfg.sharingCores = 16;
        cfg.pages = 4;
        cfg.iterations = 25000;
        cfg.warmupIterations = 100;
        cfg.interIterationGap = 20 * kUsec;
        const auto start = std::chrono::steady_clock::now();
        runMunmapMicrobench(machine, cfg);
        wall += wallSeconds(start);
        events += machine.queue().executed();
    }
    return {"munmap_storm", events, wall, setup};
}

/**
 * The large-machine scenario: the workload shape the paper's Figure 7
 * machine actually sees. Twenty single-task "publisher" processes on
 * cores 0..19 each own a private region whose pages AutoNUMA keeps
 * sampling — under LATR every sample publishes a migration state, so
 * a thousand-plus states are live at any instant, all addressed to
 * the publisher cores — plus a small mmap/touch/munmap churn (ABIS
 * harvests the flat sharer map on every free). Two "global"
 * processes oversubscribe the other 100 cores, whose ticks and
 * context switches sweep twice per millisecond and match *nothing*:
 * exactly the scans the sweep-elision mask removes. Every eighth
 * iteration a sync munmap from a global task IPIs the whole 100-core
 * residency mask (the word-at-a-time fan-out path).
 *
 * The scenario now also runs under the Predictive policy: the same
 * wide residency masks are the sharer-prediction target — after a
 * training op or two the perceptron narrows each shootdown to the
 * cores that actually faulted the pages in, and the per-policy
 * `coh.remote_interrupts` deltas captured in @p counters feed the
 * >= 40%-fewer-IPIs gate in main().
 */
ScenarioResult
runBigMachine(BigMachineCounters &counters)
{
    constexpr unsigned kPublishers = 20;
    constexpr unsigned kIterations = 400;
    constexpr std::uint64_t kRegionPages = 64;
    constexpr unsigned kSamplesPerIter = 36;
    constexpr std::uint64_t kScratchPages = 2;

    std::uint64_t events = 0;
    double wall = 0;
    double setup = 0;
    for (PolicyKind policy : {PolicyKind::Latr, PolicyKind::Abis,
                              PolicyKind::Predictive}) {
        MachineConfig config = MachineConfig::largeNuma8S120C();
        // Tagged TLBs: context switches on the oversubscribed cores
        // must not flush residency, or the global mm's mask (and the
        // wide shootdown) degenerates.
        config.pcidEnabled = true;
        // ~180 samples/ms/core live for up to a tick: give the state
        // rings headroom so the scenario measures sweeps, not the
        // ring-full IPI fallback.
        config.latrStatesPerCore = 256;
        const auto built = std::chrono::steady_clock::now();
        Machine machine(config, policy);
        Kernel &kernel = machine.kernel();
        const unsigned cores = machine.topo().totalCores();

        std::vector<Task *> pubs(kPublishers);
        std::vector<Addr> region(kPublishers);
        for (unsigned p = 0; p < kPublishers; ++p) {
            Process *proc =
                kernel.createProcess("p" + std::to_string(p));
            pubs[p] = kernel.spawnTask(proc, p);
            SyscallResult m =
                kernel.mmap(pubs[p], kRegionPages * kPageSize,
                            kProtRead | kProtWrite);
            if (!m.ok)
                fatal("big_machine region mmap failed");
            region[p] = m.addr;
            for (std::uint64_t pg = 0; pg < kRegionPages; ++pg)
                kernel.touch(pubs[p], m.addr + pg * kPageSize, true);
        }
        // The publishers' mms are resident only on their own core,
        // so every published state has a single-bit mask and the
        // other 100 cores' sweeps are pure scan overhead.
        std::vector<Task *> globalTasks;
        for (unsigned g = 0; g < 2; ++g) {
            Process *global =
                kernel.createProcess("g" + std::to_string(g));
            for (CoreId c = kPublishers; c < cores; ++c) {
                Task *t = kernel.spawnTask(global, c);
                if (g == 0)
                    globalTasks.push_back(t);
            }
        }

        setup += wallSeconds(built);
        const auto start = std::chrono::steady_clock::now();
        machine.run(2 * machine.config().cost.tickInterval);
        for (unsigned iter = 0; iter < kIterations; ++iter) {
            for (unsigned p = 0; p < kPublishers; ++p) {
                // AutoNUMA scan burst over the publisher's pages.
                const Vpn base = region[p] / kPageSize;
                for (unsigned s = 0; s < kSamplesPerIter; ++s)
                    kernel.numaSample(
                        pubs[p],
                        base + (iter * kSamplesPerIter + s) %
                                   kRegionPages);
                // Scratch churn: map, touch, free — the ABIS harvest
                // and LATR holdback/reclaim paths.
                SyscallResult m = kernel.mmap(
                    pubs[p], kScratchPages * kPageSize,
                    kProtRead | kProtWrite);
                if (!m.ok)
                    fatal("big_machine mmap failed");
                kernel.touch(pubs[p], m.addr, true);
                kernel.munmap(pubs[p], m.addr,
                              kScratchPages * kPageSize);
            }
            if (iter % 8 == 0) {
                // The wide shootdown: a sync munmap from a global
                // task IPIs every core the global mm is resident on.
                Task *t = globalTasks[(iter * 7) % globalTasks.size()];
                SyscallResult m = kernel.mmap(t, 4 * kPageSize,
                                              kProtRead | kProtWrite);
                if (!m.ok)
                    fatal("big_machine global mmap failed");
                for (std::size_t i = 0; i < globalTasks.size(); i += 8)
                    kernel.touch(globalTasks[i], m.addr, true);
                kernel.munmap(t, m.addr, 4 * kPageSize, true);
            }
            machine.run(200 * kUsec);
        }
        machine.run(6 * kMsec);
        wall += wallSeconds(start);
        events += machine.queue().executed();
        const std::uint64_t ipis = machine.stats().counterValue(
            "coh.remote_interrupts");
        if (policy == PolicyKind::Latr) {
            counters.latrIpis = ipis;
        } else if (policy == PolicyKind::Abis) {
            counters.abisIpis = ipis;
        } else if (policy == PolicyKind::Predictive) {
            counters.predIpis = ipis;
            counters.predSaved =
                machine.stats().counterValue("pred.ipis_saved");
            counters.predMispredicts =
                machine.stats().counterValue("pred.mispredicts");
            counters.predFallbacks = machine.stats().counterValue(
                "pred.fallback_shootdowns");
            counters.predVerifies =
                machine.stats().counterValue("pred.verifies");
        }
    }
    return {"big_machine", events, wall, setup};
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    bench::GateOptions gate;
    Args args;
    args.text("--json", &json_path);
    gate.declare(args);
    args.parse(argc, argv);

    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Engine", "simulation-engine throughput", config);
    bench::paperExpectation(
        "simulator throughput bounds design-space coverage; engine "
        "hot paths must be allocation-free");
    bench::rule();
    std::printf("%-16s | %14s %10s | %14s\n", "scenario", "events",
                "wall_s", "events/sec");
    bench::rule();

    bench::JsonWriter json("Engine", "simulation-engine throughput");
    json.config("host_cpus",
                std::uint64_t{std::thread::hardware_concurrency()})
        .config("jobs", std::uint64_t{1});

    std::vector<ScenarioResult> results;
    BigMachineCounters big;
    TlbChurnCounters churn;
    results.push_back(runEventChurn());
    results.push_back(runTlbChurn(churn));
    results.push_back(runMunmapStorm());
    results.push_back(runBigMachine(big));

    double stormEps = 0;
    double bigEps = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult &r = results[i];
        std::printf("%-16s | %14llu %10.3f | %14.0f\n", r.name,
                    static_cast<unsigned long long>(r.events),
                    r.wallSec, r.eventsPerSec());
        json.row()
            .str("scenario", r.name)
            .num("events", r.events)
            .num("wall_sec", r.wallSec);
        if (i >= 2) // the machine scenarios
            json.num("setup_sec", r.setupSec);
        json.num("events_per_sec", r.eventsPerSec());
        // The big_machine row carries the sharer-prediction fan-out
        // numbers: per-policy delivered IPIs and the reduction the
        // perceptron buys over full-mask LATR.
        if (std::strcmp(r.name, "big_machine") == 0) {
            json.num("ipis_latr", big.latrIpis)
                .num("ipis_abis", big.abisIpis)
                .num("ipis_pred", big.predIpis)
                .num("pred_ipi_reduction", big.reductionVsLatr())
                .num("pred_ipis_saved", big.predSaved)
                .num("pred_mispredicts", big.predMispredicts)
                .num("pred_fallback_shootdowns", big.predFallbacks)
                .num("pred_verifies", big.predVerifies);
            bigEps = r.eventsPerSec();
        } else if (std::strcmp(r.name, "munmap_storm") == 0) {
            stormEps = r.eventsPerSec();
        } else if (std::strcmp(r.name, "tlb_churn") == 0) {
            json.num("l1_hits", churn.l1Hits)
                .num("l2_hits", churn.l2Hits)
                .num("misses", churn.misses);
        }
    }
    bench::rule();

    // The sharer-prediction fan-out gate: on the wide-mask scenario
    // the perceptron must deliver at least 40% fewer IPIs than
    // full-mask LATR, or the predictor has regressed into predicting
    // (nearly) everyone. Simulated counters, so this is exact and
    // host-independent.
    constexpr double kMinPredReduction = 0.40;
    std::printf("pred gate [big_machine]: LATR %llu IPIs, Predictive "
                "%llu (%.1f%% reduction, floor %.0f%%, %llu "
                "mispredicted entries, %llu fallback shootdowns): "
                "%s\n",
                static_cast<unsigned long long>(big.latrIpis),
                static_cast<unsigned long long>(big.predIpis),
                100.0 * big.reductionVsLatr(),
                100.0 * kMinPredReduction,
                static_cast<unsigned long long>(
                    big.predMispredicts),
                static_cast<unsigned long long>(big.predFallbacks),
                big.reductionVsLatr() >= kMinPredReduction
                    ? "ok"
                    : "REGRESSION");
    if (big.reductionVsLatr() < kMinPredReduction) {
        std::fprintf(stderr,
                     "bench_engine: Predictive delivered %llu IPIs "
                     "vs LATR's %llu on big_machine — below the "
                     "%.0f%% reduction floor\n",
                     static_cast<unsigned long long>(big.predIpis),
                     static_cast<unsigned long long>(big.latrIpis),
                     100.0 * kMinPredReduction);
        return 4;
    }

    bench::measuredHeadline(
        "munmap_storm %.0f events/sec, big_machine %.0f events/sec, "
        "pred IPI fan-out -%.1f%% vs LATR",
        stormEps, bigEps, 100.0 * big.reductionVsLatr());
    json.headline(
        "munmap_storm %.0f events/sec, big_machine %.0f events/sec, "
        "pred IPI fan-out -%.1f%% vs LATR",
        stormEps, bigEps, 100.0 * big.reductionVsLatr());
    json.baselineFile(gate.baseline);
    json.write(json_path);

    std::vector<std::pair<std::string, double>> measured;
    for (const ScenarioResult &r : results)
        measured.emplace_back(r.name, r.eventsPerSec());
    // Gate only the machine scenarios: the churn microbenchmarks are
    // too noisy for a hard floor.
    return bench::checkBaseline(
        "bench_engine", gate, "events_per_sec", bench::GateBound::Floor,
        measured,
        "perf gate [%s]: %.0f events/sec vs baseline %.0f (floor "
        "%.0f): %s\n",
        [](const std::string &name) {
            return name.compare(0, 12, "munmap_storm") == 0 ||
                   name.compare(0, 11, "big_machine") == 0;
        });
}
