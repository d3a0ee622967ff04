// latrbench: the latr-sim benchmark harness. One single-threaded
// process runs one workload on the sequential engine:
//
//   latrbench --workload serve|lazycache|big_numa|fuzz
//             [--seed N] [--seconds N] [--trace 0|1]
//
// It repeats rounds (set-up, then a timed part; see workloads.hh)
// until --seconds of host time have passed, then runs one traced
// check round on the first inputs again. The check round must digest
// exactly like the untraced rounds, exercise the mechanisms the
// workload exists for, and fail no operation.
//
// --trace 0 reports the end-to-end metrics from the untraced rounds.
// --trace 1 alternates untraced and traced rounds and reports the
// per-layer metrics: host-time spans from the traced rounds, exact
// counts from the check round, and the tracing overhead. The last
// line of stdout is one JSON object: correct, attempted, failed,
// metrics. Exit status: 0 correct, 1 a check failed, 2 bad usage,
// 3 the run aborted.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "probe.hh"
#include "workloads.hh"

namespace latrbench
{

namespace
{

const char kUsage[] =
    "usage: latrbench --workload NAME [--seed N] [--seconds N] "
    "[--trace 0|1]\n"
    "                 [--inject-skip-latr-sweep]\n"
    "  --workload NAME   serve | lazycache | big_numa | fuzz\n"
    "  --seed N          input seed, 0..2^64-1 (default 1)\n"
    "  --seconds N       rounds run until N host seconds pass, "
    "1..600 (default 10)\n"
    "  --trace 0|1       0: end-to-end metrics; 1: per-layer metrics "
    "(default 0)\n"
    "  --inject-skip-latr-sweep\n"
    "                    fuzz only: break LATR's sweep; the run must "
    "fail\n"
    "       latrbench --verify-fuzz-pool\n"
    "  check every fuzz pool script; exit 0 when exactly the excluded "
    "ones diverge\n"
    "Flags take their value as the next argument or after '='.\n";

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    bool trace = false;
    bool injectSkipLatrSweep = false;
};

bool
parseUint(const std::string &text, std::uint64_t lo, std::uint64_t hi,
          std::uint64_t *out)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v, 10);
    if (text.empty() || ec != std::errc() || ptr != end || v < lo ||
        v > hi)
        return false;
    *out = v;
    return true;
}

bool
parseArgs(int argc, char **argv, Options *opt, std::string *err)
{
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        bool hasValue = false;
        if (flag.rfind("--", 0) != 0) {
            *err = "unexpected argument '" + flag + "'";
            return false;
        }
        if (const auto eq = flag.find('='); eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
            hasValue = true;
        }
        if (!seen.insert(flag).second) {
            *err = flag + " given twice";
            return false;
        }
        if (flag == "--inject-skip-latr-sweep") {
            if (hasValue) {
                *err = flag + " takes no value";
                return false;
            }
            opt->injectSkipLatrSweep = true;
            continue;
        }
        if (flag != "--workload" && flag != "--seed" &&
            flag != "--seconds" && flag != "--trace") {
            *err = "unknown flag '" + flag + "'";
            return false;
        }
        if (!hasValue) {
            if (i + 1 >= argc) {
                *err = flag + " needs a value";
                return false;
            }
            value = argv[++i];
        }
        if (flag == "--workload") {
            const auto &names = workloadNames();
            if (std::find(names.begin(), names.end(), value) ==
                names.end()) {
                *err = "unknown workload '" + value + "'";
                return false;
            }
            opt->workload = value;
        } else if (flag == "--seed") {
            if (!parseUint(value, 0, UINT64_MAX, &opt->seed)) {
                *err = "--seed must be an integer in 0..2^64-1, got '" +
                       value + "'";
                return false;
            }
        } else if (flag == "--seconds") {
            if (!parseUint(value, 1, 600, &opt->seconds)) {
                *err = "--seconds must be an integer in 1..600, got '" +
                       value + "'";
                return false;
            }
        } else {
            std::uint64_t t = 0;
            if (!parseUint(value, 0, 1, &t)) {
                *err = "--trace must be 0 or 1, got '" + value + "'";
                return false;
            }
            opt->trace = t == 1;
        }
    }
    if (opt->workload.empty()) {
        *err = "--workload is required";
        return false;
    }
    if (opt->injectSkipLatrSweep && opt->workload != "fuzz") {
        *err = "--inject-skip-latr-sweep applies to the fuzz workload "
               "only";
        return false;
    }
    return true;
}

struct Metric
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, printed by every --trace 0 run. */
const Metric kEndToEnd[] = {
    {"sim_ms_per_s", "sim_ms/s"},
    {"ops_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/** Host-time spans; each reports .p50, .tail and .n. */
const Metric kSpans[] = {
    {"machine.build_ms", "ms"},     {"serve.gen_s", "s"},
    {"serve.replay_s.linux", "s"},  {"serve.replay_s.latr", "s"},
    {"serve.replay_s.pred", "s"},   {"sim.run_s", "s"},
    {"os.mmap_ns", "ns"},           {"os.munmap_ns", "ns"},
    {"os.touch_ns", "ns"},          {"numa.sample_ns", "ns"},
    {"check.script_ms", "ms"},      {"check.gen_ms", "ms"},
};

/**
 * The other per-layer metrics. A metric a workload does not exercise
 * reads 0 there.
 */
const Metric kLayers[] = {
    {"sim_p99_us", "sim_us"},
    {"ipi_reduction", "ratio"},
    {"hit_ratio", "ratio"},
    {"error_rate", "ratio"},
    {"sim.host_ns_per_event", "ns/event"},
    {"trace.overhead", "ratio"},
    {"trace.records", "count"},
    {"trace.dropped", "count"},
    {"machine.builds", "count"},
    {"sim.events", "count"},
    {"sys.mmap", "count"},
    {"sys.munmap", "count"},
    {"sys.madvise_free", "count"},
    {"vm.minor_faults", "count"},
    {"numa.samples", "count"},
    {"numa.migrations", "count"},
    {"tlb.inserts", "count"},
    {"tlb.removes", "count"},
    {"mem.frame_allocs", "count"},
    {"mem.frame_frees", "count"},
    {"tlb.flush_all", "count"},
    {"tlb.inv_range", "count"},
    {"sched.ctxswitch", "count"},
    {"sched.tick", "count"},
    {"ipi.send", "count"},
    {"coh.shootdowns", "count"},
    {"coh.remote_interrupts", "count"},
    {"latr.sweeps", "count"},
    {"latr.sweep_match_ratio", "matches/sweep"},
    {"latr.states_saved", "count"},
    {"latr.fallback_ipis", "count"},
    {"latr.reclaimed_pages", "count"},
    {"pred.ipis_saved", "count"},
    {"pred.mispredicts", "count"},
    {"pred.verifies", "count"},
    {"abis.shootdowns_avoided", "count"},
    {"serve.sim_p50_us.linux", "sim_us"},
    {"serve.sim_p50_us.latr", "sim_us"},
    {"serve.sim_p50_us.pred", "sim_us"},
    {"serve.sim_p99_us.linux", "sim_us"},
    {"serve.sim_p99_us.pred", "sim_us"},
    {"serve.sim_p999_us.latr", "sim_us"},
    {"serve.completed", "count"},
    {"serve.dropped_churn", "count"},
    {"serve.max_queue", "count"},
    {"lazycache.reads", "count"},
    {"lazycache.refills", "count"},
    {"lazycache.discarded_pages", "count"},
    {"check.violations", "count"},
};

/** Simulated guards, printed with the end-to-end metrics where set. */
const Metric kSimGuards[] = {
    {"sim_p99_us", "sim_us"},
    {"ipi_reduction", "ratio"},
    {"hit_ratio", "ratio"},
};

/** Python's statistics.median. 0 for no values. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
peakRssMiB()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

const char *
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? v : fallback;
}

/** A finished round with the tally of its machines. */
struct Done
{
    std::uint64_t input = 0;
    bool traced = false;
    Round round;
    Tally tally;
};

Done
runRound(Workload &workload, std::uint64_t input, bool traced)
{
    Probe &p = probe();
    p.tracing = traced;
    p.resetTally();
    const std::uint64_t builds0 = p.builds;
    Done done{input, traced, workload.run(input), {}};
    p.foldListenerCounts();
    p.tracing = false;
    done.tally = p.tally;
    done.round.values["machine.builds"] =
        static_cast<double>(p.builds - builds0);
    done.round.digests.emplace_back("machines", done.tally.digest);
    return done;
}

void
printMetric(const char *name, double value, const char *unit)
{
    std::printf("  %-28s %18.6f  %s\n", name, value, unit);
}

void
appendJson(std::string *out, const std::string &name, double value,
           const char *unit)
{
    if (!std::isfinite(value))
        value = 0;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                                   "\"unit\": \"%s\"}",
                  out->empty() ? "" : ", ", name.c_str(), value, unit);
    *out += buf;
}

int
run(const Options &opt)
{
    std::unique_ptr<Workload> workload =
        makeWorkload(opt.workload, opt.seed, opt.injectSkipLatrSweep);

    std::printf("provenance {\"git_sha\": \"%s\", \"src_sha256\": \"%s\", "
                "\"build_type\": \"%s\", \"host_cpus\": %u, "
                "\"engine\": \"sequential\", \"workload\": \"%s\", "
                "\"seed\": %llu, \"seconds\": %llu, \"trace\": %d, "
                "\"params\": {%s}}\n",
                envOr("LATRBENCH_GIT_SHA", "unknown"),
                envOr("LATRBENCH_SRC_SHA256", "unknown"),
                LATRBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
                workload->name(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(opt.seconds),
                opt.trace ? 1 : 0, workload->params().c_str());
    std::fflush(stdout);

    // Timed rounds. Under --trace 1 every input runs untraced, then
    // traced, so the two halves see the same work.
    std::vector<Done> rounds;
    const auto begin = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0;; ++i) {
        const bool traced = opt.trace && i % 2 == 1;
        rounds.push_back(runRound(
            *workload, (opt.trace ? i / 2 : i) % workload->inputs(),
            traced));
        if (secondsSince(begin) >= static_cast<double>(opt.seconds) &&
            (!opt.trace || traced))
            break;
    }
    const double peakRss = peakRssMiB();
    Done check = runRound(*workload, 0, true);
    rounds.push_back(check);

    std::vector<std::string> problems;
    workload->judge(check.round, check.tally, &problems);

    // Determinism: every round on the same inputs, traced or not,
    // simulates identically.
    std::map<std::uint64_t, const Done *> firstOf;
    bool diverged = false;
    for (const Done &d : rounds) {
        auto [it, fresh] = firstOf.emplace(d.input, &d);
        if (!fresh && !diverged &&
            it->second->round.digests != d.round.digests) {
            diverged = true;
            problems.push_back("input " + std::to_string(d.input) +
                               " digested differently across rounds");
        }
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string firstFailure;
    std::vector<double> setup, tracedS, untracedS;
    /** Untraced timed-part times by input. */
    std::map<std::uint64_t, std::vector<double>> timesOf;
    double untracedNs = 0;
    double untracedEvents = 0;
    for (const Done &d : rounds) {
        attempted += d.round.ops;
        failed += std::min(d.round.failed, d.round.ops);
        if (firstFailure.empty())
            firstFailure = d.round.firstFailure;
        if (&d == &rounds.back())
            break; // the check round only judges
        if (d.traced) {
            tracedS.push_back(d.round.timedS);
            continue;
        }
        untracedS.push_back(d.round.timedS);
        timesOf[d.input].push_back(d.round.timedS);
        setup.push_back(d.round.setupS);
        untracedNs += d.round.timedS * 1e9;
        untracedEvents += static_cast<double>(d.tally.events);
    }
    // Each input's simulated work is fixed, so its host time is its
    // fastest round: other tenants of a shared host slow the program
    // by up to half for seconds at a time, and never speed it up.
    double simMs = 0, ops = 0, fastS = 0;
    for (const auto &[input, times] : timesOf) {
        const Done &d = *firstOf.at(input);
        simMs += static_cast<double>(d.tally.simNs) / 1e6;
        ops += static_cast<double>(d.round.ops);
        fastS += *std::min_element(times.begin(), times.end());
    }
    if (failed > 0)
        problems.push_back(std::to_string(failed) + " of " +
                           std::to_string(attempted) +
                           " operations failed; first: " + firstFailure);
    const double errorRate =
        attempted ? static_cast<double>(failed) /
                        static_cast<double>(attempted)
                  : 0.0;
    const bool correct = problems.empty();

    const auto &values = check.round.values;
    for (const auto &[label, digest] : check.round.digests)
        std::printf("digest %-24s %016llx\n", label.c_str(),
                    static_cast<unsigned long long>(digest));
    std::printf("rounds %zu (%zu traced) + 1 check round; sim.events "
                "%llu in the check round\n",
                rounds.size() - 1, tracedS.size(),
                static_cast<unsigned long long>(check.tally.events));

    std::string json;
    if (!opt.trace) {
        const double e2e[] = {simMs / fastS, ops / fastS, median(setup),
                              peakRss};
        std::printf("end-to-end over %zu untraced rounds of %zu inputs "
                    "(rates: fastest round per input; setup_s: median):\n",
                    untracedS.size(), timesOf.size());
        for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
            printMetric(kEndToEnd[i].name, e2e[i], kEndToEnd[i].unit);
            appendJson(&json, kEndToEnd[i].name, e2e[i],
                       kEndToEnd[i].unit);
        }
        printMetric("error_rate", errorRate, "ratio");
        if (opt.workload == "fuzz")
            printMetric("scripts_per_s", e2e[1], "1/s");
        for (const Metric &m : kSimGuards)
            if (auto it = values.find(m.name); it != values.end())
                printMetric(m.name, it->second, m.unit);
    } else {
        // Round values first; tally counts fill the names left.
        std::map<std::string, double> layer(values.begin(),
                                            values.end());
        for (const auto &[name, n] : check.tally.counts)
            layer.emplace(name, static_cast<double>(n));
        const double sweeps =
            static_cast<double>(check.tally.count("latr.sweeps"));
        layer["latr.sweep_match_ratio"] =
            sweeps > 0 ? static_cast<double>(check.tally.count(
                             "latr.sweep_matches")) /
                             sweeps
                       : 0.0;
        layer["sim.events"] = static_cast<double>(check.tally.events);
        layer["error_rate"] = errorRate;
        layer["sim.host_ns_per_event"] =
            untracedEvents > 0 ? untracedNs / untracedEvents : 0.0;
        layer["trace.overhead"] =
            median(tracedS) / median(untracedS) - 1.0;
        std::printf("per-layer (spans from %zu traced rounds; counts "
                    "from the check round):\n",
                    tracedS.size() + 1);
        for (const Metric &m : kSpans) {
            const std::string base = m.name;
            auto it = probe().spans.find(base);
            double p50 = 0, tail = 0, n = 0;
            if (it != probe().spans.end() && it->second.count() > 0) {
                const latr::Distribution &d = it->second;
                n = static_cast<double>(d.count());
                p50 = d.percentile(0.5);
                // Ten samples beyond the tail, among those kept.
                const double kept = std::min(
                    n, static_cast<double>(kSpanReservoir));
                tail = d.percentile(std::max(0.5, 1.0 - 10.0 / kept));
            }
            const std::tuple<const char *, double, const char *> parts[] =
                {{".p50", p50, m.unit},
                 {".tail", tail, m.unit},
                 {".n", n, "count"}};
            for (const auto &[suffix, v, unit] : parts) {
                const std::string name = base + suffix;
                printMetric(name.c_str(), v, unit);
                appendJson(&json, name, v, unit);
            }
        }
        for (const Metric &m : kLayers) {
            printMetric(m.name, layer[m.name], m.unit);
            appendJson(&json, m.name, layer[m.name], m.unit);
        }
    }

    for (const std::string &p : problems)
        std::fprintf(stderr, "latrbench: CHECK FAILED: %s\n", p.c_str());
    std::printf("checks: %s\n", correct ? "ok" : "FAILED");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), json.c_str());
    return correct ? 0 : 1;
}

} // namespace

} // namespace latrbench

int
main(int argc, char **argv)
{
    // Fixed allocator thresholds: glibc otherwise adapts them to the
    // first large frees, so whether a round's machines reuse freed
    // memory or fault in fresh pages would differ from run to run.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    latrbench::Options opt;
    std::string err;
    if (argc == 2 && std::string(argv[1]) == "--help") {
        std::fputs(latrbench::kUsage, stdout);
        return 0;
    }
    if (argc == 2 && std::string(argv[1]) == "--verify-fuzz-pool")
        return latrbench::verifyFuzzPool();
    if (!latrbench::parseArgs(argc, argv, &opt, &err)) {
        std::fprintf(stderr, "latrbench: %s\n%s", err.c_str(),
                     latrbench::kUsage);
        return 2;
    }
    try {
        return latrbench::run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "latrbench: aborted: %s\n", e.what());
        return 3;
    }
}
