// Figures 1 and 9: Apache throughput (requests/s) and TLB shootdowns
// per second vs. serving cores on the 2-socket machine, for Linux,
// ABIS, and LATR. Apache's mpm_event mmap()s and munmap()s the served
// file per request, so munmap cost — and the mmap_sem hold across the
// synchronous shootdown — caps its scaling under Linux.

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "machine/machine.hh"
#include "workload/webserver.hh"

using namespace latr;

namespace
{

WebServerResult
runPoint(PolicyKind policy, unsigned workers)
{
    Machine machine(MachineConfig::commodity2S16C(), policy);
    WebServerConfig cfg;
    cfg.workers = workers;
    cfg.processes = 1;
    WebServerWorkload server(machine, cfg);
    return server.measure(60 * kMsec, 300 * kMsec);
}

} // namespace

int
main(int argc, char **argv)
{
    Args().parse(argc, argv);
    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Figure 9 (and Figure 1)",
                  "Apache requests/s and shootdowns/s vs. cores",
                  config);
    bench::paperExpectation(
        "LATR +59.9% over Linux and +37.9% over ABIS at 12 cores; "
        "ABIS below Linux under 8 cores; LATR handles ~46% more "
        "shootdowns/s");
    bench::rule();

    std::printf("%6s | %10s %10s %10s | %10s %10s %10s\n", "cores",
                "linux_rps", "abis_rps", "latr_rps", "linux_sd/s",
                "abis_sd/s", "latr_sd/s");
    bench::rule();

    const std::vector<unsigned> worker_counts = {1, 2, 4, 6, 8, 10, 12};
    double linux12 = 0, abis12 = 0, latr12 = 0;
    double linux12_sd = 0, latr12_sd = 0;
    for (unsigned workers : worker_counts) {
        WebServerResult linux_r = runPoint(PolicyKind::LinuxSync, workers);
        WebServerResult abis_r = runPoint(PolicyKind::Abis, workers);
        WebServerResult latr_r = runPoint(PolicyKind::Latr, workers);
        std::printf("%6u | %10.0f %10.0f %10.0f | %10.0f %10.0f %10.0f\n",
                    workers, linux_r.requestsPerSec,
                    abis_r.requestsPerSec, latr_r.requestsPerSec,
                    linux_r.shootdownsPerSec, abis_r.shootdownsPerSec,
                    latr_r.shootdownsPerSec);
        if (workers == 12) {
            linux12 = linux_r.requestsPerSec;
            abis12 = abis_r.requestsPerSec;
            latr12 = latr_r.requestsPerSec;
            linux12_sd = linux_r.shootdownsPerSec;
            latr12_sd = latr_r.shootdownsPerSec;
        }
    }
    bench::rule();
    bench::measuredHeadline(
        "at 12 cores: LATR %+.1f%% vs Linux, %+.1f%% vs ABIS; "
        "LATR handles %+.1f%% more shootdowns/s than Linux",
        100.0 * (latr12 - linux12) / linux12,
        100.0 * (latr12 - abis12) / abis12,
        100.0 * (latr12_sd - linux12_sd) / linux12_sd);
    return 0;
}
