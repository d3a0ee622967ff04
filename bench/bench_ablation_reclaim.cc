// Ablation: reclamation delay. The paper reclaims after TWO tick
// periods (2 ms) because ticks are unsynchronized across cores: one
// period measured from the save does not guarantee every core has
// ticked since. This bench demonstrates the rule by sweeping the
// delay and counting reuse-invariant violations — with a 1 ms delay
// the checker catches frames freed while a straggler core's TLB
// still maps them; at 2 ms and beyond it never does. It also shows
// the cost of longer delays: lazy-memory holdback grows linearly.

#include <cstdio>

#include "bench_util.hh"
#include "machine/machine.hh"
#include "workload/microbench.hh"

using namespace latr;

int
main(int argc, char **argv)
{
    Args().parse(argc, argv);
    MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Ablation: reclamation delay",
                  "why LATR waits two tick periods before reuse",
                  config);
    bench::paperExpectation(
        "sections 3/4.2: ticks are unsynchronized, so reclamation "
        "waits 2 ms (two periods); less is unsafe, more only costs "
        "memory");
    bench::rule();

    std::printf("%10s | %12s | %12s | %10s\n", "delay_ms",
                "violations", "lazy_KiB_pk", "munmap_us");
    bench::rule();

    bool unsafe_seen = false;
    bool safe_at_paper = true;
    for (Duration delay :
         {kMsec / 2, 1 * kMsec, 2 * kMsec, 4 * kMsec, 8 * kMsec}) {
        MachineConfig cfg = config;
        cfg.cost.latrReclaimDelay = delay;
        // Use the paper's pure time-bound background thread so the
        // delay is the only safety net (this library's default
        // additionally waits for the CPU mask to clear).
        cfg.latrTimeOnlyReclaim = true;
        Machine machine(cfg, PolicyKind::Latr);
        MunmapMicrobenchConfig mb;
        mb.sharingCores = 16;
        mb.pages = 4;
        mb.iterations = 200;
        mb.warmupIterations = 10;
        mb.interIterationGap = 30 * kUsec;
        MunmapMicrobenchResult r = runMunmapMicrobench(machine, mb);
        const std::uint64_t violations =
            machine.checker()->reuseViolations();
        std::printf("%10.1f | %12llu | %12llu | %10.2f\n",
                    delay / 1e6,
                    static_cast<unsigned long long>(violations),
                    static_cast<unsigned long long>(
                        r.lazyBytesPeak / 1024),
                    r.munmapMeanNs / 1000.0);
        if (delay < 2 * kMsec && violations > 0)
            unsafe_seen = true;
        // From two periods up, neither half may see a violation.
        if (delay >= 2 * kMsec && machine.checker()->violations() > 0)
            safe_at_paper = false;
    }
    bench::rule();
    bench::measuredHeadline(
        "delays under two tick periods %s violate the reuse "
        "invariant; the paper's 2 ms is %s",
        unsafe_seen ? "DO" : "did not (at this load)",
        safe_at_paper ? "safe" : "NOT SAFE (bug)");
    return safe_at_paper ? 0 : 1;
}
