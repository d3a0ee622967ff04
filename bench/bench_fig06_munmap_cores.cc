// Figure 6: cost of munmap() (and its TLB-shootdown component) for a
// single page as the number of sharing cores grows from 1 to 16 on
// the 2-socket commodity machine, Linux vs. LATR.

#include <cstdio>
#include <vector>

#include "bench_runner.hh"
#include "bench_util.hh"
#include "machine/machine.hh"
#include "workload/microbench.hh"

using namespace latr;

namespace
{

MunmapMicrobenchResult
runPoint(PolicyKind policy, unsigned cores)
{
    Machine machine(MachineConfig::commodity2S16C(), policy);
    MunmapMicrobenchConfig cfg;
    cfg.sharingCores = cores;
    cfg.pages = 1;
    cfg.iterations = 200;
    cfg.warmupIterations = 20;
    return runMunmapMicrobench(machine, cfg);
}

/**
 * A --trace run records a dedicated 16-core LATR capture, paced with
 * no inter-iteration gap so the state ring also exercises its
 * IPI-fallback path — the full lifecycle (munmap, state save, sweep,
 * fallback IPIs, reclamation) lands in one timeline. The measured
 * table above is untouched.
 */
void
capturePoint(const bench::TraceOptions &trace)
{
    Machine machine(MachineConfig::commodity2S16C(),
                    PolicyKind::Latr);
    bench::applyTrace(machine, trace);
    MunmapMicrobenchConfig cfg;
    cfg.sharingCores = 16;
    cfg.pages = 1;
    cfg.iterations = 200;
    cfg.warmupIterations = 0;
    cfg.interIterationGap = 0;
    runMunmapMicrobench(machine, cfg);
    bench::finishTrace(machine, trace);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    std::string json_path;
    bench::TraceOptions trace;
    Args args;
    args.number("--jobs", &jobs, 0, 1024).text("--json", &json_path);
    trace.declare(args);
    args.parse(argc, argv);
    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Figure 6", "munmap(1 page) cost vs. sharing cores",
                  config);
    bench::paperExpectation(
        "Linux ~8 us at 16 cores (71.6% shootdown); LATR ~2.4 us "
        "(-70.8%)");
    bench::rule();

    std::printf("%6s | %12s %12s | %12s %12s | %8s\n", "cores",
                "linux_us", "linux_sd_us", "latr_us", "latr_sd_us",
                "improv");
    bench::rule();

    const std::vector<unsigned> core_counts = {1, 2, 4, 6, 8,
                                               10, 12, 14, 16};
    // Each (cores) point is an independent pair of machine
    // simulations; the runner computes them across worker threads and
    // hands the results back in submission order, so stdout is
    // byte-identical to a --jobs=1 run.
    struct Point
    {
        unsigned cores;
        MunmapMicrobenchResult linuxR;
        MunmapMicrobenchResult latrR;
    };
    bench::ParallelRunner<Point> runner(jobs);
    for (unsigned cores : core_counts) {
        runner.submit([cores] {
            Point p;
            p.cores = cores;
            p.linuxR = runPoint(PolicyKind::LinuxSync, cores);
            p.latrR = runPoint(PolicyKind::Latr, cores);
            return p;
        });
    }

    bench::JsonWriter json("Figure 6",
                           "munmap(1 page) cost vs. sharing cores");
    json.config("jobs", std::uint64_t{runner.jobs()});
    double linux16 = 0, latr16 = 0, linux16_sd = 0;
    for (const Point &p : runner.run()) {
        const MunmapMicrobenchResult &linux_r = p.linuxR;
        const MunmapMicrobenchResult &latr_r = p.latrR;
        const double improv =
            linux_r.munmapMeanNs > 0
                ? 100.0 * (linux_r.munmapMeanNs - latr_r.munmapMeanNs) /
                      linux_r.munmapMeanNs
                : 0.0;
        std::printf("%6u | %12.2f %12.2f | %12.2f %12.2f | %7.1f%%\n",
                    p.cores, bench::us(linux_r.munmapMeanNs),
                    bench::us(linux_r.shootdownMeanNs),
                    bench::us(latr_r.munmapMeanNs),
                    bench::us(latr_r.shootdownMeanNs), improv);
        json.row()
            .num("cores", static_cast<std::uint64_t>(p.cores))
            .num("linux_us", bench::us(linux_r.munmapMeanNs))
            .num("linux_sd_us", bench::us(linux_r.shootdownMeanNs))
            .num("latr_us", bench::us(latr_r.munmapMeanNs))
            .num("latr_sd_us", bench::us(latr_r.shootdownMeanNs))
            .num("improvement_pct", improv);
        if (p.cores == 16) {
            linux16 = linux_r.munmapMeanNs;
            latr16 = latr_r.munmapMeanNs;
            linux16_sd = linux_r.shootdownMeanNs;
        }
    }
    bench::rule();
    bench::measuredHeadline(
        "at 16 cores: Linux %.2f us (shootdown share %.1f%%), LATR "
        "%.2f us, improvement %.1f%%",
        bench::us(linux16), 100.0 * linux16_sd / linux16,
        bench::us(latr16), 100.0 * (linux16 - latr16) / linux16);
    json.headline(
        "at 16 cores: Linux %.2f us, LATR %.2f us, improvement %.1f%%",
        bench::us(linux16), bench::us(latr16),
        100.0 * (linux16 - latr16) / linux16);
    json.write(json_path);
    if (trace.wanted())
        capturePoint(trace);
    return 0;
}
