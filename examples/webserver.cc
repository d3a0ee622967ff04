// Webserver scenario: the paper's motivating workload (figures 1/9).
// An mpm_event-style server mmap()s and munmap()s a 10 KB file per
// request; with synchronous shootdowns the munmap dominates and the
// server stops scaling. Run it under any two policies and compare.
//
//   $ ./webserver --workers=N   (1..16, default 12)

#include <cstdio>

#include "machine/machine.hh"
#include "sim/args.hh"
#include "workload/webserver.hh"

using namespace latr;

int
main(int argc, char **argv)
{
    unsigned workers = 12;
    Args args;
    args.number("--workers", &workers, 1, 16);
    args.parse(argc, argv);

    std::printf("Apache-style webserver, %u workers, 10 KB static "
                "page per request\n\n",
                workers);
    std::printf("%-12s %14s %16s %14s\n", "policy", "requests/s",
                "shootdowns/s", "llc app miss");

    for (PolicyKind policy :
         {PolicyKind::LinuxSync, PolicyKind::Abis, PolicyKind::Latr}) {
        Machine machine(MachineConfig::commodity2S16C(), policy);
        WebServerConfig cfg;
        cfg.workers = workers;
        cfg.processes = 1;
        WebServerWorkload server(machine, cfg);
        WebServerResult r = server.measure(50 * kMsec, 250 * kMsec);
        std::printf("%-12s %14.0f %16.0f %13.2f%%\n",
                    machine.policy().name(), r.requestsPerSec,
                    r.shootdownsPerSec, 100.0 * r.llcAppMissRatio);
        if (machine.checker()->violations() != 0) {
            std::fprintf(stderr, "invariant violated: %s\n",
                         machine.checker()->firstViolation().c_str());
            return 1;
        }
    }

    std::printf("\nLATR serves more requests because munmap() no "
                "longer holds mmap_sem across an IPI round-trip, and "
                "no worker burns time in interrupt handlers.\n");
    return 0;
}
