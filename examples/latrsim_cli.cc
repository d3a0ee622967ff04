// latrsim_cli: run any of the library's workloads from the command
// line — the knob-turning tool for exploring the policy space
// without writing code.
//
//   latrsim_cli --workload=apache --policy=latr --workers=12
//   latrsim_cli --workload=microbench --policy=linux --cores=16
//   latrsim_cli --workload=parsec --benchmark=dedup --policy=abis
//   latrsim_cli --workload=numa --benchmark=graph500 --policy=latr
//   latrsim_cli --workload=serve --arrival-rate=200000 --record=r.latrace
//   latrsim_cli --workload=serve --replay=r.latrace --policy=linux
//
// Each flag is bound in main() to the variable or config field it
// sets (ServeConfig, LazyCacheConfig), with its range; a bad flag
// exits 2 before the run (src/sim/args.hh), and so does an unknown
// --benchmark, a --replay that does not load or a --record, --trace
// or --trace-text file that cannot be written. Times are simulated
// ns.
// --workers counts apache/nginx/serve serving cores, --cores the
// microbench/parsec/numa cores. --duration-ticks is serve's arrival
// horizon and lazycache's measured window (default 100 ms). Zero is
// valid where it means "off": --burst-pages (no pressure),
// --churn-interval (no churn), --writers. --rate-scale=F divides every
// replayed arrival tick by F (F > 1 is hotter). --trace=FILE writes
// Chrome-trace JSON, --trace-text=FILE a timeline ('-' for stdout).
// After the run the machine's coherence checker audits its pending
// marks; a violation of the reuse invariant or of the staleness
// contract prints the half it broke and exits 1.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "serve/latrace.hh"
#include "serve/serve.hh"
#include "sim/args.hh"
#include "machine/machine_stats.hh"
#include "trace/chrome_trace.hh"
#include "trace/text_dump.hh"
#include "workload/lazycache.hh"
#include "workload/microbench.hh"
#include "workload/numabench.hh"
#include "workload/parsec.hh"
#include "workload/webserver.hh"

using namespace latr;

namespace
{

/** The profile named @p name in @p suite, or nullptr. */
template <typename Profile>
const Profile *
profileNamed(const std::vector<Profile> &suite, const std::string &name)
{
    for (const Profile &p : suite)
        if (name == p.name)
            return &p;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    constexpr Duration kHour = 3600 * kSec;
    std::string workload = "apache";
    PolicyKind policy = PolicyKind::Latr;
    MachineConfig (*machineOf)() = &MachineConfig::commodity2S16C;
    std::string benchmark = "dedup";
    unsigned workers = 12;
    unsigned cores = 16;
    std::uint64_t pages = 1;
    ServeConfig serve;
    LazyCacheConfig cache;
    std::string recordPath;
    std::string replayPath;
    double rateScale = 1.0;
    bool noFastpath = false;
    bool dumpStats = false;
    std::string tracePath;
    std::string traceTextPath;
    std::size_t traceCapacity = TraceRecorder::kDefaultCapacity;

    Args args;
    args.choice("--workload", &workload,
                {"apache", "nginx", "microbench", "parsec", "numa",
                 "serve", "lazycache"})
        .choice("--policy", &policy, policyKindFlags())
        .choice("--machine", &machineOf,
                {{"commodity", &MachineConfig::commodity2S16C},
                 {"large", &MachineConfig::largeNuma8S120C}})
        .text("--benchmark", &benchmark)
        .number("--workers", &workers, 1, kLatraceMaxWorkers)
        .number("--cores", &cores, 1, 1024)
        .number("--pages", &pages, 1, 1 << 20)
        .number("--duration-ticks", &serve.duration, 1,
                kLatraceMaxDuration)
        .number("--seed", &serve.seed, 0, ~std::uint64_t{0})
        .number("--cache-pages", &cache.cachePages, 1, 1 << 24)
        .real("--hot-fraction", &cache.hotFraction, 0, 1)
        .number("--readers", &cache.readers, 1, 1024)
        .number("--writers", &cache.writers, 0, 1024)
        .number("--burst-pages", &cache.burstPages, 0, 1 << 20)
        .number("--pressure-interval", &cache.pressureInterval, 1, kHour)
        .real("--arrival-rate", &serve.arrivalRatePerSec, 1, 1e9)
        .number("--tenants", &serve.tenants, 1, kLatraceMaxTenants)
        .number("--users", &serve.users, 1, std::uint64_t{1} << 32)
        .number("--churn-interval", &serve.churnInterval, 0, kHour)
        .text("--record", &recordPath)
        .text("--replay", &replayPath)
        .real("--rate-scale", &rateScale, 1e-3, 1e3)
        .flag("--no-fastpath", &noFastpath)
        .flag("--stats", &dumpStats)
        .text("--trace", &tracePath)
        .text("--trace-text", &traceTextPath)
        .number("--trace-capacity", &traceCapacity, 1, 1 << 24);
    args.parse(argc, argv);
    serve.workers = workers;
    cache.seed = serve.seed;
    const Duration lazyWindow =
        args.given("--duration-ticks") ? serve.duration : 100 * kMsec;

    // Input the flags' own checks cannot judge fails here, before
    // the machine is built: the benchmark name, the replayed or
    // recorded trace, the trace outputs.
    const ParsecProfile *parsec = profileNamed(parsecSuite(), benchmark);
    const NumaBenchProfile *numa =
        profileNamed(numaBenchSuite(), benchmark);
    if ((workload == "parsec" && !parsec) || (workload == "numa" && !numa))
        args.fail("--benchmark: no " + workload + " benchmark '" +
                  benchmark + "'");
    Latrace trace;
    if (workload == "serve") {
        std::string error;
        if (replayPath.empty())
            trace = generateServeTrace(serve);
        else if (!latraceLoad(replayPath, &trace, &error))
            args.fail("cannot replay '" + replayPath + "': " + error);
        if (!replayPath.empty() && rateScale != 1.0) {
            // Uniform load-time rate transform: dividing every
            // arrival tick by F compresses (F > 1) or stretches
            // (F < 1) all inter-arrival gaps by the same factor, so
            // one recording covers a whole load-sweep family.
            // Division is monotone, so record order survives.
            const double f = rateScale;
            for (LatraceRecord &rec : trace.records)
                rec.tick = static_cast<Tick>(
                    std::llround(static_cast<double>(rec.tick) / f));
            trace.durationTicks = static_cast<Tick>(std::llround(
                static_cast<double>(trace.durationTicks) / f));
            std::fprintf(stderr,
                         "rate-scale %.3f: %zu ops over %llu ticks\n", f,
                         trace.records.size(),
                         static_cast<unsigned long long>(
                             trace.durationTicks));
        }
        if (!recordPath.empty()) {
            if (!latraceSave(trace, recordPath))
                args.fail("cannot record to '" + recordPath + "'");
            std::fprintf(stderr, "recorded %llu ops -> %s\n",
                         static_cast<unsigned long long>(
                             trace.records.size()),
                         recordPath.c_str());
        }
    }
    std::ofstream traceJson;
    if (!tracePath.empty()) {
        traceJson.open(tracePath);
        if (!traceJson)
            args.fail("cannot write trace to '" + tracePath + "'");
    }
    std::FILE *traceText = nullptr;
    if (!traceTextPath.empty()) {
        traceText = traceTextPath == "-"
                        ? stdout
                        : std::fopen(traceTextPath.c_str(), "w");
        if (!traceText)
            args.fail("cannot write trace to '" + traceTextPath + "'");
    }

    MachineConfig config = machineOf();
    config.noFastpath = noFastpath;
    Machine machine(config, policy);
    if (!tracePath.empty() || !traceTextPath.empty()) {
        machine.trace().setCapacity(traceCapacity);
        machine.trace().setEnabled(true);
    }
    std::printf("machine:  %s\npolicy:   %s\nworkload: %s\n\n",
                machine.config().name.c_str(),
                machine.policy().name(), workload.c_str());

    if (workload == "apache" || workload == "nginx") {
        WebServerConfig cfg;
        cfg.workers = workers;
        cfg.processes = 1;
        cfg.mmapPerRequest = workload == "apache";
        WebServerWorkload server(machine, cfg);
        WebServerResult r = server.measure(50 * kMsec, 250 * kMsec);
        std::printf("requests/s:    %.0f\n", r.requestsPerSec);
        std::printf("shootdowns/s:  %.0f\n", r.shootdownsPerSec);
        std::printf("llc app miss:  %.2f%%\n",
                    100.0 * r.llcAppMissRatio);
    } else if (workload == "microbench") {
        MunmapMicrobenchConfig cfg;
        cfg.sharingCores = cores;
        cfg.pages = pages;
        MunmapMicrobenchResult r = runMunmapMicrobench(machine, cfg);
        std::printf("munmap mean:    %.2f us (p99 %.2f us)\n",
                    r.munmapMeanNs / 1000.0, r.munmapP99Ns / 1000.0);
        std::printf("shootdown mean: %.2f us\n",
                    r.shootdownMeanNs / 1000.0);
        std::printf("latr fallbacks: %llu\n",
                    static_cast<unsigned long long>(r.latrFallbacks));
    } else if (workload == "parsec") {
        ParsecResult r = runParsec(machine, *parsec, cores);
        std::printf("runtime:       %.2f ms\n", r.runtimeNs / 1e6);
        std::printf("shootdowns/s:  %.0f\n", r.shootdownsPerSec);
    } else if (workload == "serve") {
        ServeResult r = runServeTrace(machine, trace);
        std::printf("arrivals:      %llu (%llu completed, "
                    "%llu churn-dropped)\n",
                    static_cast<unsigned long long>(r.arrivals),
                    static_cast<unsigned long long>(r.completed),
                    static_cast<unsigned long long>(r.droppedChurn));
        std::printf("requests/s:    %.0f\n", r.requestsPerSec);
        std::printf("latency p50:   %.2f us\n", r.p50() / 1000.0);
        std::printf("latency p99:   %.2f us\n", r.p99() / 1000.0);
        std::printf("latency p999:  %.2f us\n", r.p999() / 1000.0);
        std::printf("shootdowns/s:  %.0f\n", r.shootdownsPerSec);
        std::printf("digest:        %016llx\n",
                    static_cast<unsigned long long>(r.digest));
    } else if (workload == "lazycache") {
        LazyCacheWorkload lazycache(machine, cache);
        LazyCacheResult r = lazycache.measure(10 * kMsec, lazyWindow);
        std::printf("events/s:        %.0f\n", r.eventsPerSec);
        std::printf("reads/s:         %.0f\n", r.readsPerSec);
        std::printf("hit ratio:       %.4f\n", r.hitRatio);
        std::printf("reval fails:     %llu (refills %llu)\n",
                    static_cast<unsigned long long>(
                        r.revalidationFails),
                    static_cast<unsigned long long>(r.refills));
        std::printf("madv_free pages: %llu in %llu bursts\n",
                    static_cast<unsigned long long>(r.discardedPages),
                    static_cast<unsigned long long>(r.bursts));
        std::printf("fallback IPIs:   %llu (%.0f/s)\n",
                    static_cast<unsigned long long>(r.fallbackIpis),
                    ratePerSecond(r.fallbackIpis, lazyWindow));
        std::printf("reclaimed pages: %llu\n",
                    static_cast<unsigned long long>(r.reclaimedPages));
        std::printf("digest:          %016llx\n",
                    static_cast<unsigned long long>(r.digest));
    } else { // numa
        NumaBenchResult r = runNumaBench(machine, *numa, cores);
        std::printf("runtime:       %.2f ms\n", r.runtimeNs / 1e6);
        std::printf("migrations:    %llu (%.0f/s)\n",
                    static_cast<unsigned long long>(r.migrations),
                    r.migrationsPerSec);
    }

    if (CoherenceChecker *checker = machine.checker()) {
        // Marks still pending past their deadline are stale
        // translations the policy never invalidated.
        checker->auditAt(machine.now());
        if (checker->reuseViolations() != 0)
            std::fprintf(stderr, "reuse invariant VIOLATED: %s\n",
                         checker->firstReuseViolation().c_str());
        if (checker->stalenessViolations() != 0)
            std::fprintf(stderr, "staleness contract VIOLATED: %s\n",
                         checker->firstStalenessViolation().c_str());
        if (checker->violations() != 0)
            return 1;
    }
    if (dumpStats) {
        std::printf("\n--- stats ---\n%s",
                    machine.stats().dump().c_str());
    }
    if (traceJson.is_open()) {
        writeChromeTrace(machine.trace(), &machine.topo(), traceJson);
        traceJson.close();
        if (!traceJson)
            args.fail("cannot write trace to '" + tracePath + "'");
        std::fprintf(stderr, "trace: %llu records -> %s\n",
                     static_cast<unsigned long long>(
                         machine.trace().size()),
                     tracePath.c_str());
    }
    if (traceText) {
        writeTextTimeline(machine.trace(), TextDumpOptions{}, traceText);
        if (traceText != stdout && std::fclose(traceText) != 0)
            args.fail("cannot write trace to '" + traceTextPath + "'");
    }
    return 0;
}
