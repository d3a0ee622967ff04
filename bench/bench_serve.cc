// bench_serve: the open-loop serving scenario (src/serve/) across
// every coherence policy — the tail-latency figure the paper leads
// with. One .latrace arrival stream is generated once (seeded, so
// byte-stable) and replayed against all five policies; the rows
// report p50/p99/p999 request latency, completed requests/s, and the
// run digest. `--per-tenant` additionally keeps one latency
// histogram per tenant slot and emits tenantN_p99_us fields on every
// JSON row.
//
// `--json=FILE` writes the rows in the shared BENCH_*.json shape.
// `--check-against=BASELINE.json` exits nonzero when a policy's p99
// grows more than --max-regression (default 0.30) above the
// baseline, or when a baseline scenario is missing from the run —
// the CI tail-latency gate. Unlike the wall-clock gates, these rows
// are simulated time: deterministic on one build, immune to host
// noise. Any other argument exits 2 before anything runs.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "machine/machine.hh"
#include "serve/latrace.hh"
#include "serve/serve.hh"
#include "tlbcoh/policy.hh"

using namespace latr;

namespace
{

struct ServeRow
{
    std::string name;
    ServeResult result;
    /** Host wall time of the replay. */
    double wallSec = 0;
};

ServeRow
runPolicy(const std::string &name, PolicyKind kind,
          const Latrace &trace, const ServeOptions &options)
{
    Machine machine(MachineConfig::commodity2S16C(), kind);
    const auto start = std::chrono::steady_clock::now();
    ServeResult result = runServeTrace(machine, trace, options);
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    return ServeRow{name, result, wall};
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    bench::GateOptions gate;
    ServeOptions serveOptions;
    Args args;
    args.text("--json", &json_path)
        .flag("--per-tenant", &serveOptions.perTenantLatency);
    gate.declare(args);
    args.parse(argc, argv);

    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Serve",
                  "open-loop serving tail latency (src/serve/)",
                  config);
    bench::paperExpectation(
        "lazy shootdowns keep request tails flat where synchronous "
        "IPIs compound into queueing delay (figure 1 regime)");
    bench::rule();

    const ServeConfig scenario; // the default open-loop scenario
    const Latrace trace = generateServeTrace(scenario);
    std::printf("scenario: %.0f req/s for %llu ms, %u workers, "
                "%u tenants, %llu ops\n",
                scenario.arrivalRatePerSec,
                static_cast<unsigned long long>(scenario.duration /
                                                kMsec),
                scenario.workers, scenario.tenants,
                static_cast<unsigned long long>(trace.records.size()));
    bench::rule();
    std::printf("%-16s | %9s %9s %9s | %10s\n", "scenario",
                "p50_us", "p99_us", "p999_us", "req/s");
    bench::rule();

    std::vector<ServeRow> rows;
    rows.push_back(runPolicy("serve_linux", PolicyKind::LinuxSync,
                             trace, serveOptions));
    rows.push_back(
        runPolicy("serve_latr", PolicyKind::Latr, trace, serveOptions));
    rows.push_back(
        runPolicy("serve_abis", PolicyKind::Abis, trace, serveOptions));
    rows.push_back(runPolicy("serve_barrelfish",
                             PolicyKind::Barrelfish, trace,
                             serveOptions));
    rows.push_back(runPolicy("serve_pred", PolicyKind::Predictive,
                             trace, serveOptions));

    bench::JsonWriter json(
        "Serve", "open-loop serving tail latency (src/serve/)");
    json.config("host_cpus",
                std::uint64_t{std::thread::hardware_concurrency()})
        .config("arrival_rate",
                static_cast<std::uint64_t>(
                    scenario.arrivalRatePerSec))
        .config("duration_ticks",
                static_cast<std::uint64_t>(scenario.duration))
        .config("workers", std::uint64_t{scenario.workers})
        .config("tenants", std::uint64_t{scenario.tenants})
        .config("seed", scenario.seed)
        .config("jobs", std::uint64_t{1});

    if (serveOptions.perTenantLatency)
        json.config("per_tenant", std::uint64_t{1});

    double linuxP99 = 0;
    double latrP99 = 0;
    double predP99 = 0;
    for (const ServeRow &row : rows) {
        const ServeResult &r = row.result;
        std::printf("%-16s | %9.1f %9.1f %9.1f | %10.0f\n",
                    row.name.c_str(), bench::us(r.p50()),
                    bench::us(r.p99()), bench::us(r.p999()),
                    r.requestsPerSec);
        char digest[24];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(r.digest));
        auto &jr = json.row();
        jr.str("scenario", row.name)
            .num("p50_us", bench::us(r.p50()))
            .num("p99_us", bench::us(r.p99()))
            .num("p999_us", bench::us(r.p999()))
            .num("mean_us", r.latency.mean() / 1000.0)
            .num("requests_per_sec", r.requestsPerSec)
            .num("shootdowns_per_sec", r.shootdownsPerSec)
            .num("completed", r.completed)
            .num("dropped_churn", r.droppedChurn)
            .num("wall_sec", row.wallSec);
        // Per-tenant tail view (--per-tenant): one p99/count pair
        // per tenant slot, aggregated across churn generations.
        for (std::size_t t = 0; t < r.tenantLatency.size(); ++t) {
            char key[40];
            std::snprintf(key, sizeof key, "tenant%zu_p99_us", t);
            jr.num(key, bench::us(r.tenantLatency[t].percentile(0.99)));
            std::snprintf(key, sizeof key, "tenant%zu_completed", t);
            jr.num(key, r.tenantLatency[t].count());
        }
        jr.str("digest", digest);
        if (row.name == "serve_linux")
            linuxP99 = bench::us(r.p99());
        else if (row.name == "serve_latr")
            latrP99 = bench::us(r.p99());
        else if (row.name == "serve_pred")
            predP99 = bench::us(r.p99());
    }
    bench::rule();

    bench::measuredHeadline(
        "LATR p99 %.1f us vs Linux p99 %.1f us (%.1fx); Predictive "
        "p99 %.1f us (%+.1f%% vs LATR)",
        latrP99, linuxP99, latrP99 > 0 ? linuxP99 / latrP99 : 0.0,
        predP99,
        latrP99 > 0 ? 100.0 * (predP99 - latrP99) / latrP99 : 0.0);
    json.headline(
        "LATR p99 %.1f us vs Linux p99 %.1f us (%.1fx); Predictive "
        "p99 %.1f us (%+.1f%% vs LATR)",
        latrP99, linuxP99, latrP99 > 0 ? linuxP99 / latrP99 : 0.0,
        predP99,
        latrP99 > 0 ? 100.0 * (predP99 - latrP99) / latrP99 : 0.0);
    json.baselineFile(gate.baseline);
    json.write(json_path);

    std::vector<std::pair<std::string, double>> measured;
    for (const ServeRow &row : rows)
        measured.emplace_back(row.name, bench::us(row.result.p99()));
    return bench::checkBaseline(
        "bench_serve", gate, "p99_us", bench::GateBound::Ceiling,
        measured,
        "tail gate [%s]: p99 %.1f us vs baseline %.1f (ceiling "
        "%.1f): %s\n");
}
