// Figure 12: LATR's overhead on applications with few TLB shootdowns
// — single-core nginx (sendfile, no per-request mapping) and Apache,
// plus the five quietest PARSEC benchmarks on 16 cores. Performance
// under LATR normalized to Linux should sit within a couple percent
// of 1.0 either way.

#include <cstdio>

#include "bench_util.hh"
#include "workload/lowshootdown.hh"

using namespace latr;

int
main(int argc, char **argv)
{
    Args().parse(argc, argv);
    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Figure 12",
                  "overhead on applications with few shootdowns",
                  config);
    bench::paperExpectation(
        "at most 1.7% slowdown (canneal); some cases slightly "
        "faster under LATR");
    bench::rule();

    std::printf("%-18s | %14s %14s | %12s | %10s\n", "case",
                "linux_perf", "latr_perf", "latr/linux", "shootdn/s");
    bench::rule();

    double worst = 0.0;
    const char *worst_name = "";
    for (const LowShootdownCase &c : lowShootdownCases()) {
        LowShootdownResult linux_r =
            runLowShootdownCase(config, PolicyKind::LinuxSync, c);
        LowShootdownResult latr_r =
            runLowShootdownCase(config, PolicyKind::Latr, c);
        const double ratio =
            linux_r.performance > 0
                ? latr_r.performance / linux_r.performance
                : 0.0;
        std::printf("%-18s | %14.4g %14.4g | %12.4f | %10.0f\n",
                    c.name, linux_r.performance, latr_r.performance,
                    ratio, linux_r.shootdownsPerSec);
        const double overhead = 100.0 * (1.0 - ratio);
        if (overhead > worst) {
            worst = overhead;
            worst_name = c.name;
        }
    }
    bench::rule();
    bench::measuredHeadline("worst overhead %.2f%% (%s)", worst,
                            worst_name[0] ? worst_name : "none");
    return 0;
}
