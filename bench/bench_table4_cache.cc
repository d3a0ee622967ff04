// Table 4: application LLC miss ratio under Linux vs. LATR. Linux's
// IPI handlers displace application lines on remote cores; LATR's
// state sweeps touch a tiny, hot footprint instead, so most
// benchmarks see equal-or-better miss ratios under LATR.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "machine/machine.hh"
#include "workload/parsec.hh"
#include "workload/webserver.hh"

using namespace latr;

namespace
{

struct CacheCase
{
    const char *name;
    bool isApache;
    unsigned cores;
    const char *parsecName;
};

const std::vector<CacheCase> kCases = {
    {"apache_1", true, 1, nullptr},
    {"apache_6", true, 6, nullptr},
    {"apache_12", true, 12, nullptr},
    {"canneal_16", false, 16, "canneal"},
    {"dedup_16", false, 16, "dedup"},
    {"ferret_16", false, 16, "ferret"},
    {"streamcluster_16", false, 16, "streamcluster"},
    {"swaptions_16", false, 16, "swaptions"},
};

double
missRatio(PolicyKind policy, const CacheCase &c)
{
    Machine machine(MachineConfig::commodity2S16C(), policy);
    if (c.isApache) {
        WebServerConfig cfg;
        cfg.workers = c.cores;
        cfg.processes = 1;
        // A long warmup so the cache reaches steady state under the
        // slower policy too — otherwise the measured window starts
        // colder for whichever system serves fewer requests, which
        // would masquerade as a policy effect.
        WebServerWorkload server(machine, cfg);
        WebServerResult r = server.measure(600 * kMsec, 300 * kMsec);
        return r.llcAppMissRatio;
    }
    ParsecProfile profile = parsecProfile(c.parsecName);
    profile.itersPerCore /= 2; // cache ratios converge quickly
    ParsecResult r = runParsec(machine, profile, c.cores);
    return r.llcAppMissRatio;
}

} // namespace

int
main(int argc, char **argv)
{
    Args().parse(argc, argv);
    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Table 4", "application LLC miss ratio", config);
    bench::paperExpectation(
        "LATR within -3.3%..+0.8% relative change of Linux; mostly "
        "slightly better (no IPI handler pollution)");
    bench::rule();

    std::printf("%-18s | %10s %10s | %10s\n", "case", "linux_miss",
                "latr_miss", "rel_change");
    bench::rule();

    double worst_regression = 0;
    for (const CacheCase &c : kCases) {
        const double linux_m = missRatio(PolicyKind::LinuxSync, c);
        const double latr_m = missRatio(PolicyKind::Latr, c);
        const double rel =
            linux_m > 0 ? 100.0 * (latr_m - linux_m) / linux_m : 0.0;
        std::printf("%-18s | %9.2f%% %9.2f%% | %+9.2f%%\n", c.name,
                    100.0 * linux_m, 100.0 * latr_m, rel);
        if (rel > worst_regression)
            worst_regression = rel;
    }
    bench::rule();
    bench::measuredHeadline(
        "worst relative miss-ratio regression under LATR: %+.2f%%",
        worst_regression);
    return 0;
}
