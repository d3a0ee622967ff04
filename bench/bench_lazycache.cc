// bench_lazycache: the MADV_FREE lazy-reclaim page cache
// (src/workload/lazycache) across every coherence policy — the
// free-then-reuse regime LATR's state rings and reclaim delay exist
// for. The default scenario's pressure bursts (160 pages each)
// deliberately exceed latrStatesPerCore (64), so the LATR rows must
// report ring overflow: fallback IPIs > 0 or the bench exits 4,
// because a lazycache run that never overflows the ring is not
// measuring the path this workload was built to stress.
//
// `--json=FILE` writes the rows in the shared BENCH_*.json shape.
// The rows are simulated time, so stdout is byte-identical from run
// to run and across builds: tests/golden/bench_lazycache.txt pins it
// exactly (ctest bench_lazycache.MatchesGolden). Any other argument
// exits 2 before anything runs.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "machine/machine.hh"
#include "tlbcoh/policy.hh"
#include "workload/lazycache.hh"

using namespace latr;

namespace
{

constexpr Duration kWarmup = 20 * kMsec;
constexpr Duration kMeasured = 200 * kMsec;

struct CacheRow
{
    std::string name;
    LazyCacheResult result;
};

CacheRow
runPolicy(const std::string &name, PolicyKind kind,
          const LazyCacheConfig &cfg)
{
    Machine machine(MachineConfig::commodity2S16C(), kind);
    LazyCacheWorkload cache(machine, cfg);
    return CacheRow{name, cache.measure(kWarmup, kMeasured)};
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    Args args;
    args.text("--json", &json_path);
    args.parse(argc, argv);

    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner(
        "LazyCache",
        "MADV_FREE page cache, free-then-reuse under pressure "
        "(src/workload/lazycache)",
        config);
    bench::paperExpectation(
        "free-based shootdowns defer one epoch through the state "
        "rings; pressure bursts past latrStatesPerCore overflow "
        "into fallback IPIs (section 4.2 regime)");
    bench::rule();

    const LazyCacheConfig scenario; // the default pressure scenario
    std::printf("scenario: %llu pages, hot %.0f%%, %u readers + "
                "%u writers, bursts of %llu pages every %llu us\n",
                static_cast<unsigned long long>(scenario.cachePages),
                100.0 * scenario.hotFraction, scenario.readers,
                scenario.writers,
                static_cast<unsigned long long>(scenario.burstPages),
                static_cast<unsigned long long>(
                    scenario.pressureInterval / kUsec));
    bench::rule();
    std::printf("%-22s | %10s %7s %9s %9s\n", "scenario", "events/s",
                "hit", "fb_ipis", "reclaimed");
    bench::rule();

    std::vector<CacheRow> rows;
    rows.push_back(runPolicy("lazycache_linux", PolicyKind::LinuxSync,
                             scenario));
    rows.push_back(
        runPolicy("lazycache_latr", PolicyKind::Latr, scenario));
    rows.push_back(
        runPolicy("lazycache_abis", PolicyKind::Abis, scenario));
    rows.push_back(runPolicy("lazycache_barrelfish",
                             PolicyKind::Barrelfish, scenario));
    // Sharer prediction under the densest free-then-reuse traffic in
    // the repo: MADV_FREE bursts train and stress the perceptron's
    // verify/fallback path.
    rows.push_back(runPolicy("lazycache_pred", PolicyKind::Predictive,
                             scenario));

    bench::JsonWriter json(
        "LazyCache",
        "MADV_FREE page cache free-then-reuse throughput");
    json.config("cache_pages", scenario.cachePages)
        .config("burst_pages", scenario.burstPages)
        .config("pressure_interval_ns",
                static_cast<std::uint64_t>(scenario.pressureInterval))
        .config("readers", std::uint64_t{scenario.readers})
        .config("writers", std::uint64_t{scenario.writers})
        .config("seed", scenario.seed)
        .config("jobs", std::uint64_t{1});

    double latrEvents = 0;
    double linuxEvents = 0;
    std::uint64_t latrFallbacks = 0;
    for (const CacheRow &row : rows) {
        const LazyCacheResult &r = row.result;
        std::printf("%-22s | %10.0f %7.4f %9llu %9llu\n",
                    row.name.c_str(), r.eventsPerSec, r.hitRatio,
                    static_cast<unsigned long long>(r.fallbackIpis),
                    static_cast<unsigned long long>(r.reclaimedPages));
        char digest[24];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(r.digest));
        json.row()
            .str("scenario", row.name)
            .num("events_per_sec", r.eventsPerSec)
            .num("reads_per_sec", r.readsPerSec)
            .num("hit_ratio", r.hitRatio)
            .num("revalidation_fails", r.revalidationFails)
            .num("refills", r.refills)
            .num("discarded_pages", r.discardedPages)
            .num("fallback_ipis", r.fallbackIpis)
            .num("fallback_ipis_per_sec",
                 ratePerSecond(r.fallbackIpis, kMeasured))
            .num("reclaimed_pages", r.reclaimedPages)
            .str("digest", digest);
        if (row.name == "lazycache_latr") {
            latrEvents = r.eventsPerSec;
            latrFallbacks = r.fallbackIpis;
        } else if (row.name == "lazycache_linux") {
            linuxEvents = r.eventsPerSec;
        }
    }
    bench::rule();

    // The whole point of the scenario: pressure bursts must actually
    // overflow the ring.
    if (latrFallbacks == 0) {
        std::fprintf(stderr,
                     "bench_lazycache: the default scenario never "
                     "overflowed the LATR ring (fallback_ipis == 0); "
                     "it is no longer stressing the path it exists "
                     "for\n");
        return 4;
    }

    bench::measuredHeadline(
        "LATR %.2fM events/s vs Linux %.2fM (%llu fallback IPIs, "
        "ring overflow reached)",
        latrEvents / 1e6, linuxEvents / 1e6,
        static_cast<unsigned long long>(latrFallbacks));
    json.headline("LATR %.2fM events/s vs Linux %.2fM events/s",
                  latrEvents / 1e6, linuxEvents / 1e6);
    json.write(json_path);
    return 0;
}
