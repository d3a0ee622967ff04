// Figure 11: impact of NUMA balancing — runtime under LATR normalized
// to Linux, plus page migrations per second, for fluidanimate,
// ocean_cp, graph500, pbzip2, and metis on 16 cores with AutoNUMA
// enabled. LATR's lazy sampling removes the per-sample shootdown
// (5.8%-21.1% of a migration), so migration-heavy workloads gain.

#include <cstdio>

#include "bench_util.hh"
#include "machine/machine.hh"
#include "workload/numabench.hh"

using namespace latr;

int
main(int argc, char **argv)
{
    Args().parse(argc, argv);
    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Figure 11",
                  "AutoNUMA: normalized runtime + migrations/s",
                  config);
    bench::paperExpectation(
        "LATR up to 5.7% faster (graph500); gains track the "
        "migration rate; pbzip2 barely moves");
    bench::rule();

    std::printf("%-14s | %12s %12s | %10s | %10s %10s\n", "benchmark",
                "linux_ms", "latr_ms", "latr/linux", "migr/s",
                "samples");
    bench::rule();

    double best = 0;
    const char *best_name = "";
    for (const NumaBenchProfile &profile : numaBenchSuite()) {
        Machine linux_machine(config, PolicyKind::LinuxSync);
        NumaBenchResult linux_r = runNumaBench(linux_machine, profile, 16);
        Machine latr_machine(config, PolicyKind::Latr);
        NumaBenchResult latr_r = runNumaBench(latr_machine, profile, 16);

        const double ratio = static_cast<double>(latr_r.runtimeNs) /
                             static_cast<double>(linux_r.runtimeNs);
        const double improv = 100.0 * (1.0 - ratio);
        std::printf("%-14s | %12.2f %12.2f | %10.4f | %10.0f %10llu\n",
                    profile.name, linux_r.runtimeNs / 1e6,
                    latr_r.runtimeNs / 1e6, ratio,
                    linux_r.migrationsPerSec,
                    static_cast<unsigned long long>(linux_r.samples));
        if (improv > best) {
            best = improv;
            best_name = profile.name;
        }
    }
    bench::rule();
    bench::measuredHeadline("largest improvement %.1f%% (%s)", best,
                            best_name);
    return 0;
}
