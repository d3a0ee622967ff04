// latrsim_cli: run any of the library's workloads from the command
// line — the knob-turning tool for exploring the policy space
// without writing code.
//
//   latrsim_cli --workload=apache --policy=latr --workers=12
//   latrsim_cli --workload=microbench --policy=linux --cores=16
//   latrsim_cli --workload=parsec --benchmark=dedup --policy=abis
//   latrsim_cli --workload=numa --benchmark=graph500 --policy=latr
//   latrsim_cli --workload=serve --arrival-rate=200000 \
//       --duration-ticks=120000000 --record=run.latrace
//   latrsim_cli --workload=serve --replay=run.latrace --policy=linux
//
// Prints the headline metrics plus the machine's stat dump with
// --stats.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "machine/machine.hh"
#include "serve/latrace.hh"
#include "serve/serve.hh"
#include "sim/logging.hh"
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

struct Options
{
    std::string workload = "apache";
    std::string policy = "latr";
    std::string machine = "commodity";
    std::string benchmark = "dedup";
    unsigned workers = 12;
    unsigned cores = 16;
    std::uint64_t pages = 1;
    // serve workload (src/serve/): open-loop scenario knobs.
    Tick durationTicks = 0;     // 0 = ServeConfig default
    // lazycache workload (src/workload/lazycache): pressure knobs.
    std::uint64_t cachePages = 0;   // 0 = LazyCacheConfig default
    double hotFraction = -1.0;      // <0 = default
    unsigned readers = 0;           // 0 = default
    unsigned writers = ~0u;         // ~0 = default
    std::uint64_t burstPages = ~0ull; // ~0 = default
    Duration pressureInterval = 0;  // 0 = default
    double arrivalRate = 0.0;   // 0 = ServeConfig default
    unsigned tenants = 0;       // 0 = ServeConfig default
    std::uint64_t users = 0;    // 0 = ServeConfig default
    Duration churnInterval = kTickNever; // kTickNever = default
    std::uint64_t seed = 1;
    std::string recordPath; // write the generated .latrace here
    std::string replayPath; // replay this .latrace instead
    double rateScale = 0.0; // 0/1 = no replay rate transform
    bool noFastpath = false;
    bool dumpStats = false;
    std::string tracePath;     // chrome://tracing / Perfetto JSON
    std::string traceTextPath; // human-readable timeline
    std::size_t traceCapacity = 0; // 0 = recorder default
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --workload=apache|nginx|microbench|parsec|numa|serve|"
        "lazycache\n"
        "  --policy=linux|latr|abis|barrelfish|pred\n"
        "  --machine=commodity|large\n"
        "  --benchmark=<parsec or numa benchmark name>\n"
        "  --workers=N   (apache/nginx/serve serving cores)\n"
        "  --cores=N     (microbench/parsec/numa cores)\n"
        "  --pages=N     (microbench pages per munmap)\n"
        "lazycache workload (MADV_FREE page cache):\n"
        "  --cache-pages=N        (4 KB pages in the cache)\n"
        "  --hot-fraction=F       (hot core-set fraction, 0..1)\n"
        "  --readers=N --writers=N  (thread split)\n"
        "  --burst-pages=N        (MADV_FREEs per pressure burst;\n"
        "                          0 disables pressure)\n"
        "  --pressure-interval=N  (ns between bursts)\n"
        "  --duration-ticks=N     (measured window in simulated ns)\n"
        "serve workload (open-loop, tail latency; src/serve/):\n"
        "  --duration-ticks=N  (arrival horizon in simulated ns)\n"
        "  --arrival-rate=N    (mean requests per simulated second)\n"
        "  --tenants=N         (tenant slots, one process each)\n"
        "  --users=N           (simulated user population)\n"
        "  --churn-interval=N  (ns between tenant exits; 0 = off)\n"
        "  --seed=N            (arrival-stream RNG seed)\n"
        "  --record=FILE       (save the generated .latrace)\n"
        "  --replay=FILE       (replay FILE instead of generating;\n"
        "                       byte-identical results per policy)\n"
        "  --rate-scale=F      (replay transform: divide every\n"
        "                       inter-arrival gap by F at load time,\n"
        "                       so one recording covers a whole\n"
        "                       load-sweep family; F > 1 = hotter)\n"
        "  --no-fastpath (naive engine paths; results must match)\n"
        "  --stats       (dump the full stat registry)\n"
        "  --trace=FILE      (write Chrome-trace JSON; load in\n"
        "                     chrome://tracing or ui.perfetto.dev)\n"
        "  --trace-text=FILE (write a human-readable timeline;\n"
        "                     '-' for stdout)\n"
        "  --trace-capacity=N (ring size in records; default 65536)\n",
        argv0);
}

bool
parseArg(Options &opts, const char *arg)
{
    auto value = [&](const char *key) -> const char * {
        const std::size_t n = std::strlen(key);
        if (std::strncmp(arg, key, n) == 0 && arg[n] == '=')
            return arg + n + 1;
        return nullptr;
    };
    if (const char *v = value("--workload")) {
        opts.workload = v;
    } else if (const char *v = value("--policy")) {
        opts.policy = v;
    } else if (const char *v = value("--machine")) {
        opts.machine = v;
    } else if (const char *v = value("--benchmark")) {
        opts.benchmark = v;
    } else if (const char *v = value("--workers")) {
        opts.workers = static_cast<unsigned>(std::atoi(v));
    } else if (const char *v = value("--cores")) {
        opts.cores = static_cast<unsigned>(std::atoi(v));
    } else if (const char *v = value("--pages")) {
        opts.pages = static_cast<std::uint64_t>(std::atoll(v));
    } else if (const char *v = value("--duration-ticks")) {
        opts.durationTicks = static_cast<Tick>(std::atoll(v));
    } else if (const char *v = value("--cache-pages")) {
        opts.cachePages = static_cast<std::uint64_t>(std::atoll(v));
    } else if (const char *v = value("--hot-fraction")) {
        opts.hotFraction = std::atof(v);
    } else if (const char *v = value("--readers")) {
        opts.readers = static_cast<unsigned>(std::atoi(v));
    } else if (const char *v = value("--writers")) {
        opts.writers = static_cast<unsigned>(std::atoi(v));
    } else if (const char *v = value("--burst-pages")) {
        opts.burstPages = static_cast<std::uint64_t>(std::atoll(v));
    } else if (const char *v = value("--pressure-interval")) {
        opts.pressureInterval = static_cast<Duration>(std::atoll(v));
    } else if (const char *v = value("--arrival-rate")) {
        opts.arrivalRate = std::atof(v);
    } else if (const char *v = value("--tenants")) {
        opts.tenants = static_cast<unsigned>(std::atoi(v));
    } else if (const char *v = value("--users")) {
        opts.users = static_cast<std::uint64_t>(std::atoll(v));
    } else if (const char *v = value("--churn-interval")) {
        opts.churnInterval = static_cast<Duration>(std::atoll(v));
    } else if (const char *v = value("--seed")) {
        opts.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (const char *v = value("--record")) {
        opts.recordPath = v;
    } else if (const char *v = value("--replay")) {
        opts.replayPath = v;
    } else if (const char *v = value("--rate-scale")) {
        opts.rateScale = std::atof(v);
    } else if (const char *v = value("--trace")) {
        opts.tracePath = v;
    } else if (const char *v = value("--trace-text")) {
        opts.traceTextPath = v;
    } else if (const char *v = value("--trace-capacity")) {
        opts.traceCapacity = static_cast<std::size_t>(std::atoll(v));
    } else if (std::strcmp(arg, "--no-fastpath") == 0) {
        opts.noFastpath = true;
    } else if (std::strcmp(arg, "--stats") == 0) {
        opts.dumpStats = true;
    } else {
        return false;
    }
    return true;
}

PolicyKind
policyOf(const std::string &name)
{
    if (name == "linux")
        return PolicyKind::LinuxSync;
    if (name == "latr")
        return PolicyKind::Latr;
    if (name == "abis")
        return PolicyKind::Abis;
    if (name == "barrelfish")
        return PolicyKind::Barrelfish;
    if (name == "pred")
        return PolicyKind::Predictive;
    fatal("unknown policy '%s'", name.c_str());
}

MachineConfig
machineOf(const std::string &name)
{
    if (name == "commodity")
        return MachineConfig::commodity2S16C();
    if (name == "large")
        return MachineConfig::largeNuma8S120C();
    fatal("unknown machine '%s'", name.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        if (!parseArg(opts, argv[i])) {
            usage(argv[0]);
            return 1;
        }
    }

    MachineConfig config = machineOf(opts.machine);
    config.noFastpath = opts.noFastpath;
    Machine machine(config, policyOf(opts.policy));
    if (!opts.tracePath.empty() || !opts.traceTextPath.empty()) {
        if (opts.traceCapacity != 0)
            machine.trace().setCapacity(opts.traceCapacity);
        machine.trace().setEnabled(true);
    }
    std::printf("machine:  %s\npolicy:   %s\nworkload: %s\n\n",
                machine.config().name.c_str(),
                machine.policy().name(), opts.workload.c_str());

    if (opts.workload == "apache" || opts.workload == "nginx") {
        WebServerConfig cfg;
        cfg.workers = opts.workers;
        cfg.processes = 1;
        cfg.mmapPerRequest = opts.workload == "apache";
        WebServerWorkload server(machine, cfg);
        WebServerResult r = server.measure(50 * kMsec, 250 * kMsec);
        std::printf("requests/s:    %.0f\n", r.requestsPerSec);
        std::printf("shootdowns/s:  %.0f\n", r.shootdownsPerSec);
        std::printf("llc app miss:  %.2f%%\n",
                    100.0 * r.llcAppMissRatio);
    } else if (opts.workload == "microbench") {
        MunmapMicrobenchConfig cfg;
        cfg.sharingCores = opts.cores;
        cfg.pages = opts.pages;
        MunmapMicrobenchResult r = runMunmapMicrobench(machine, cfg);
        std::printf("munmap mean:    %.2f us (p99 %.2f us)\n",
                    r.munmapMeanNs / 1000.0, r.munmapP99Ns / 1000.0);
        std::printf("shootdown mean: %.2f us\n",
                    r.shootdownMeanNs / 1000.0);
        std::printf("latr fallbacks: %llu\n",
                    static_cast<unsigned long long>(r.latrFallbacks));
    } else if (opts.workload == "parsec") {
        ParsecResult r = runParsec(
            machine, parsecProfile(opts.benchmark), opts.cores);
        std::printf("runtime:       %.2f ms\n", r.runtimeNs / 1e6);
        std::printf("shootdowns/s:  %.0f\n", r.shootdownsPerSec);
    } else if (opts.workload == "serve") {
        Latrace trace;
        if (!opts.replayPath.empty()) {
            std::string error;
            if (!latraceLoad(opts.replayPath, &trace, &error))
                fatal("cannot replay '%s': %s",
                      opts.replayPath.c_str(), error.c_str());
            if (opts.rateScale > 0.0 && opts.rateScale != 1.0) {
                // Uniform load-time rate transform: dividing every
                // arrival tick by F compresses (F > 1) or stretches
                // (F < 1) all inter-arrival gaps by the same factor,
                // so one recording covers a whole load-sweep family.
                // Division is monotone, so record order survives.
                const double f = opts.rateScale;
                for (LatraceRecord &rec : trace.records)
                    rec.tick = static_cast<Tick>(
                        std::llround(static_cast<double>(rec.tick) /
                                     f));
                trace.durationTicks = static_cast<Tick>(std::llround(
                    static_cast<double>(trace.durationTicks) / f));
                std::fprintf(stderr,
                             "rate-scale %.3f: %zu ops over %llu "
                             "ticks\n",
                             f, trace.records.size(),
                             static_cast<unsigned long long>(
                                 trace.durationTicks));
            }
        } else {
            ServeConfig cfg;
            cfg.workers = opts.workers;
            if (opts.durationTicks)
                cfg.duration = opts.durationTicks;
            if (opts.arrivalRate > 0.0)
                cfg.arrivalRatePerSec = opts.arrivalRate;
            if (opts.tenants)
                cfg.tenants = opts.tenants;
            if (opts.users)
                cfg.users = opts.users;
            if (opts.churnInterval != kTickNever)
                cfg.churnInterval = opts.churnInterval;
            cfg.seed = opts.seed;
            trace = generateServeTrace(cfg);
        }
        if (!opts.recordPath.empty()) {
            if (!latraceSave(trace, opts.recordPath))
                fatal("cannot record to '%s'",
                      opts.recordPath.c_str());
            std::fprintf(stderr, "recorded %llu ops -> %s\n",
                         static_cast<unsigned long long>(
                             trace.records.size()),
                         opts.recordPath.c_str());
        }
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
    } else if (opts.workload == "lazycache") {
        LazyCacheConfig cfg;
        if (opts.cachePages)
            cfg.cachePages = opts.cachePages;
        if (opts.hotFraction >= 0.0)
            cfg.hotFraction = opts.hotFraction;
        if (opts.readers)
            cfg.readers = opts.readers;
        if (opts.writers != ~0u)
            cfg.writers = opts.writers;
        if (opts.burstPages != ~0ull)
            cfg.burstPages = opts.burstPages;
        if (opts.pressureInterval)
            cfg.pressureInterval = opts.pressureInterval;
        cfg.seed = opts.seed;
        LazyCacheWorkload cache(machine, cfg);
        const Duration measured =
            opts.durationTicks ? opts.durationTicks : 100 * kMsec;
        LazyCacheResult r = cache.measure(10 * kMsec, measured);
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
                    ratePerSecond(r.fallbackIpis, measured));
        std::printf("reclaimed pages: %llu\n",
                    static_cast<unsigned long long>(r.reclaimedPages));
        std::printf("digest:          %016llx\n",
                    static_cast<unsigned long long>(r.digest));
    } else if (opts.workload == "numa") {
        const NumaBenchProfile *profile = nullptr;
        for (const NumaBenchProfile &p : numaBenchSuite())
            if (opts.benchmark == p.name)
                profile = &p;
        if (!profile)
            fatal("unknown numa benchmark '%s'",
                  opts.benchmark.c_str());
        NumaBenchResult r = runNumaBench(machine, *profile, opts.cores);
        std::printf("runtime:       %.2f ms\n", r.runtimeNs / 1e6);
        std::printf("migrations:    %llu (%.0f/s)\n",
                    static_cast<unsigned long long>(r.migrations),
                    r.migrationsPerSec);
    } else {
        usage(argv[0]);
        return 1;
    }

    if (machine.checker() && machine.checker()->violations() != 0) {
        std::fprintf(stderr, "reuse invariant VIOLATED: %s\n",
                     machine.checker()->firstViolation().c_str());
        return 1;
    }
    if (opts.dumpStats) {
        std::printf("\n--- stats ---\n%s",
                    machine.stats().dump().c_str());
    }
    if (!opts.tracePath.empty()) {
        if (!writeChromeTraceFile(machine.trace(), &machine.topo(),
                                  opts.tracePath))
            fatal("cannot write trace to '%s'",
                  opts.tracePath.c_str());
        std::fprintf(stderr, "trace: %llu records -> %s\n",
                     static_cast<unsigned long long>(
                         machine.trace().size()),
                     opts.tracePath.c_str());
    }
    if (!opts.traceTextPath.empty()) {
        TextDumpOptions text;
        if (opts.traceTextPath == "-") {
            writeTextTimeline(machine.trace(), text, stdout);
        } else {
            std::FILE *f =
                std::fopen(opts.traceTextPath.c_str(), "w");
            if (!f)
                fatal("cannot write trace to '%s'",
                      opts.traceTextPath.c_str());
            writeTextTimeline(machine.trace(), text, f);
            std::fclose(f);
        }
    }
    return 0;
}
