// Figure 8: cost of munmap() with an increasing number of pages
// (1..512) on 16 cores, Linux vs. LATR. Per-page page-table work
// amortizes the shootdown, and Linux's full-flush threshold (>32
// pages) caps the invalidation cost; the LATR benefit shrinks from
// ~70% at one page to single digits at 512. Also reports the LATR
// lazy-memory holdback of section 6.4.

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
runPoint(PolicyKind policy, std::uint64_t pages)
{
    Machine machine(MachineConfig::commodity2S16C(), policy);
    MunmapMicrobenchConfig cfg;
    cfg.sharingCores = 16;
    cfg.pages = pages;
    cfg.iterations = 80;
    cfg.warmupIterations = 8;
    cfg.interIterationGap = 60 * kUsec;
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
    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Figure 8",
                  "munmap cost vs. page count (16 cores)", config);
    bench::paperExpectation(
        "LATR -70.8% at 1 page, shrinking to -7.5% at 512 pages; "
        "holdback bounded (~21 MB at 16 cores x 512 pages)");
    bench::rule();

    std::printf("%6s | %12s %12s | %12s %12s | %8s | %10s\n", "pages",
                "linux_us", "linux_sd_us", "latr_us", "latr_sd_us",
                "improv", "lazy_KiB");
    bench::rule();

    struct Point
    {
        std::uint64_t pages;
        MunmapMicrobenchResult linuxR;
        MunmapMicrobenchResult latrR;
    };
    bench::ParallelRunner<Point> runner(jobs);
    for (std::uint64_t pages = 1; pages <= 512; pages *= 2) {
        runner.submit([pages] {
            Point p;
            p.pages = pages;
            p.linuxR = runPoint(PolicyKind::LinuxSync, pages);
            p.latrR = runPoint(PolicyKind::Latr, pages);
            return p;
        });
    }

    bench::JsonWriter json("Figure 8",
                           "munmap cost vs. page count (16 cores)");
    json.config("jobs", std::uint64_t{runner.jobs()});
    double improv1 = 0, improv512 = 0;
    std::uint64_t holdback512 = 0;
    for (const Point &p : runner.run()) {
        const MunmapMicrobenchResult &linux_r = p.linuxR;
        const MunmapMicrobenchResult &latr_r = p.latrR;
        const double improv =
            100.0 * (linux_r.munmapMeanNs - latr_r.munmapMeanNs) /
            linux_r.munmapMeanNs;
        std::printf(
            "%6llu | %12.2f %12.2f | %12.2f %12.2f | %7.1f%% | %10llu\n",
            static_cast<unsigned long long>(p.pages),
            bench::us(linux_r.munmapMeanNs),
            bench::us(linux_r.shootdownMeanNs),
            bench::us(latr_r.munmapMeanNs),
            bench::us(latr_r.shootdownMeanNs), improv,
            static_cast<unsigned long long>(latr_r.lazyBytesPeak /
                                            1024));
        json.row()
            .num("pages", p.pages)
            .num("linux_us", bench::us(linux_r.munmapMeanNs))
            .num("latr_us", bench::us(latr_r.munmapMeanNs))
            .num("improvement_pct", improv)
            .num("lazy_holdback_bytes", latr_r.lazyBytesPeak);
        if (p.pages == 1)
            improv1 = improv;
        if (p.pages == 512) {
            improv512 = improv;
            holdback512 = latr_r.lazyBytesPeak;
        }
    }
    bench::rule();
    bench::measuredHeadline(
        "improvement %.1f%% at 1 page -> %.1f%% at 512 pages; peak "
        "lazy holdback %llu KiB",
        improv1, improv512,
        static_cast<unsigned long long>(holdback512 / 1024));
    json.headline(
        "improvement %.1f%% at 1 page -> %.1f%% at 512 pages",
        improv1, improv512);
    json.write(json_path);
    return 0;
}
