// Figure 7: cost of munmap() (and its shootdown component) for a
// single page on the 8-socket, 120-core large NUMA machine, Linux vs.
// LATR. The IPI fabric's two-hop deliveries and serialized ICR writes
// make Linux collapse beyond ~45 cores.

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
    Machine machine(MachineConfig::largeNuma8S120C(), policy);
    MunmapMicrobenchConfig cfg;
    cfg.sharingCores = cores;
    cfg.pages = 1;
    cfg.iterations = 60;
    cfg.warmupIterations = 8;
    cfg.interIterationGap = 100 * kUsec;
    return runMunmapMicrobench(machine, cfg);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    std::string json_path;
    Args args;
    args.number("--jobs", &jobs, 0, 1024).text("--json", &json_path);
    args.parse(argc, argv);
    const MachineConfig config = MachineConfig::largeNuma8S120C();
    bench::banner("Figure 7",
                  "munmap(1 page) cost vs. cores, 8-socket machine",
                  config);
    bench::paperExpectation(
        "Linux >120 us at 120 cores (shootdown up to 82 us, 69.3%); "
        "LATR <40 us (-66.7%)");
    bench::rule();

    std::printf("%6s | %12s %12s | %12s %12s | %8s\n", "cores",
                "linux_us", "linux_sd_us", "latr_us", "latr_sd_us",
                "improv");
    bench::rule();

    const std::vector<unsigned> core_counts = {15, 30, 45, 60,
                                               75, 90, 105, 120};
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

    bench::JsonWriter json(
        "Figure 7", "munmap(1 page) cost vs. cores, 8-socket machine");
    json.config("jobs", std::uint64_t{runner.jobs()});
    double linux120 = 0, latr120 = 0, linux120_sd = 0;
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
        if (p.cores == 120) {
            linux120 = linux_r.munmapMeanNs;
            latr120 = latr_r.munmapMeanNs;
            linux120_sd = linux_r.shootdownMeanNs;
        }
    }
    bench::rule();
    bench::measuredHeadline(
        "at 120 cores: Linux %.2f us (shootdown %.2f us, %.1f%%), "
        "LATR %.2f us, improvement %.1f%%",
        bench::us(linux120), bench::us(linux120_sd),
        100.0 * linux120_sd / linux120, bench::us(latr120),
        100.0 * (linux120 - latr120) / linux120);
    json.headline(
        "at 120 cores: Linux %.2f us, LATR %.2f us, improvement "
        "%.1f%%",
        bench::us(linux120), bench::us(latr120),
        100.0 * (linux120 - latr120) / linux120);
    json.write(json_path);
    return 0;
}
