// Figure 10: PARSEC benchmark suite on 16 cores — runtime under LATR
// normalized to Linux, and the shootdown rate of each benchmark.
// Benchmarks that free memory constantly (dedup and its pipelined
// variant) gain; canneal's frequent context switches make it the one
// benchmark that pays for the sweeps.

#include <cstdio>

#include "bench_util.hh"
#include "machine/machine.hh"
#include "workload/parsec.hh"

using namespace latr;

int
main(int argc, char **argv)
{
    Args().parse(argc, argv);
    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Figure 10",
                  "PARSEC normalized runtime + shootdowns/s (16 cores)",
                  config);
    bench::paperExpectation(
        "LATR 1.5% faster on average; up to +9.6% (dedup); worst "
        "case -1.7% (canneal)");
    bench::rule();

    std::printf("%-14s | %12s %12s | %10s | %12s\n", "benchmark",
                "linux_ms", "latr_ms", "latr/linux", "shootdn/s");
    bench::rule();

    double ratio_sum = 0;
    double best = 1e9, worst = -1e9;
    const char *best_name = "", *worst_name = "";
    unsigned n = 0;
    for (const ParsecProfile &profile : parsecSuite()) {
        Machine linux_machine(config, PolicyKind::LinuxSync);
        ParsecResult linux_r = runParsec(linux_machine, profile, 16);
        Machine latr_machine(config, PolicyKind::Latr);
        ParsecResult latr_r = runParsec(latr_machine, profile, 16);

        const double ratio = static_cast<double>(latr_r.runtimeNs) /
                             static_cast<double>(linux_r.runtimeNs);
        const double improv = 100.0 * (1.0 - ratio);
        std::printf("%-14s | %12.2f %12.2f | %10.4f | %12.0f\n",
                    profile.name, linux_r.runtimeNs / 1e6,
                    latr_r.runtimeNs / 1e6, ratio,
                    linux_r.shootdownsPerSec);
        ratio_sum += ratio;
        ++n;
        if (improv > worst) {
            worst = improv;
            worst_name = profile.name;
        }
        if (improv < best) {
            best = improv;
            best_name = profile.name;
        }
    }
    bench::rule();
    bench::measuredHeadline(
        "average improvement %.1f%%; best %+.1f%% (%s); worst %+.1f%% "
        "(%s)",
        100.0 * (1.0 - ratio_sum / n), worst, worst_name, best,
        best_name);
    return 0;
}
