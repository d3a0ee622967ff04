// Extension experiment: huge pages (paper section 7 / figure 8's
// closing remark). Unmapping 2 MiB as 512 base pages pays 512 PTE
// clears and (under Linux) a full remote flush; unmapping it as one
// huge mapping clears one PMD entry and invalidates one huge TLB
// entry per core. This bench compares munmap(2 MiB) both ways under
// Linux and LATR — huge pages mitigate the many-page unmap cost for
// Linux, and stack with LATR's lazy shootdown.

#include <cstdio>

#include "bench_util.hh"
#include "machine/machine.hh"

using namespace latr;

namespace
{

double
munmap2M(PolicyKind kind, bool huge)
{
    MachineConfig cfg = MachineConfig::commodity2S16C();
    Machine machine(cfg, kind);
    Kernel &kernel = machine.kernel();
    Process *p = kernel.createProcess("bench");
    Task *t0 = kernel.spawnTask(p, 0);
    Task *t1 = kernel.spawnTask(p, 8); // other socket
    machine.run(2 * kMsec);

    double total = 0;
    const int iters = 60;
    for (int i = 0; i < iters; ++i) {
        SyscallResult m =
            huge ? kernel.mmapHuge(t0, kHugePageSize,
                                   kProtRead | kProtWrite)
                 : kernel.mmap(t0, kHugePageSize,
                               kProtRead | kProtWrite);
        // Touch on both sockets: base mode faults all 512 pages,
        // huge mode faults once per toucher.
        if (huge) {
            kernel.touch(t0, m.addr, true);
            kernel.touch(t1, m.addr, false);
        } else {
            for (std::uint64_t pg = 0; pg < kHugePageSpan; ++pg) {
                kernel.touch(t0, m.addr + pg * kPageSize, true);
                kernel.touch(t1, m.addr + pg * kPageSize, false);
            }
        }
        machine.run(200 * kUsec);
        SyscallResult u = kernel.munmap(t0, m.addr, kHugePageSize);
        total += static_cast<double>(u.latency);
        machine.run(u.latency + 100 * kUsec);
    }
    machine.run(8 * kMsec);
    if (machine.checker()->violations() != 0) {
        std::printf("INVARIANT VIOLATED (%s %s)\n",
                    policyKindName(kind), huge ? "huge" : "base");
        std::exit(1);
    }
    return total / iters;
}

} // namespace

int
main(int argc, char **argv)
{
    Args().parse(argc, argv);
    const MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Extension: huge pages",
                  "munmap(2 MiB) as 512 base pages vs. one huge page",
                  config);
    bench::paperExpectation(
        "figure 8 / section 7: huge pages mitigate the cost of "
        "unmapping many pages at once; LATR states extend with a "
        "huge flag");
    bench::rule();

    std::printf("%-10s | %14s | %14s | %8s\n", "policy",
                "512x4K_us", "1x2M_us", "speedup");
    bench::rule();
    for (PolicyKind kind : {PolicyKind::LinuxSync, PolicyKind::Latr}) {
        const double base_us = munmap2M(kind, false) / 1000.0;
        const double huge_us = munmap2M(kind, true) / 1000.0;
        std::printf("%-10s | %14.2f | %14.2f | %7.1fx\n",
                    policyKindName(kind), base_us, huge_us,
                    base_us / huge_us);
    }
    bench::rule();
    bench::measuredHeadline(
        "huge mappings collapse the per-page unmap work under both "
        "policies; LATR additionally removes the shootdown wait");
    return 0;
}
