// Extension experiment: the remaining lazy-capable rows of table 1.
// The paper lists page swap, deduplication, and compaction as
// operations whose shootdowns LATR can make lazy, but evaluates only
// free operations and AutoNUMA. This bench drives this repository's
// swap, KSM, and compaction daemons under Linux and LATR on the same
// workload and reports the IPIs each policy needed — the lazy rows
// go to (almost) zero under LATR while the must-be-synchronous parts
// (CoW write protection, migration copies) still pay.

#include <cstdio>

#include "bench_util.hh"
#include "machine/machine.hh"
#include "numa/compaction.hh"
#include "numa/ksm.hh"
#include "numa/swap.hh"

using namespace latr;

namespace
{

struct LazyOpResult
{
    std::uint64_t ops = 0;
    std::uint64_t ipis = 0;
    std::uint64_t violations = 0;
};

MachineConfig
smallConfig()
{
    MachineConfig cfg = MachineConfig::commodity2S16C();
    cfg.framesPerNode = 2048;
    return cfg;
}

/** Fault a tagged, shareable working set on two cores. */
Addr
populate(Machine &machine, Process *p, Task *t0, Task *t1,
         std::uint64_t pages, std::uint64_t tag_every)
{
    Kernel &kernel = machine.kernel();
    SyscallResult m =
        kernel.mmap(t0, pages * kPageSize, kProtRead | kProtWrite);
    for (std::uint64_t i = 0; i < pages; ++i) {
        kernel.touch(t0, m.addr + i * kPageSize, true);
        kernel.touch(t1, m.addr + i * kPageSize, false);
        if (tag_every)
            p->mm().setContentTag(pageOf(m.addr) + i,
                                  1 + i / tag_every);
    }
    return m.addr;
}

LazyOpResult
runSwap(PolicyKind kind)
{
    Machine machine(smallConfig(), kind);
    Kernel &kernel = machine.kernel();
    Process *p = kernel.createProcess("swap");
    Task *t0 = kernel.spawnTask(p, 0);
    Task *t1 = kernel.spawnTask(p, 1);
    machine.run(kUsec);
    populate(machine, p, t0, t1, 128, 0);
    machine.ipi().resetStats();

    SwapDaemon swap(kernel, 4 * kMsec, 64);
    swap.track(p);
    swap.start();
    machine.run(30 * kMsec);
    swap.stop();
    machine.run(8 * kMsec);

    LazyOpResult r;
    r.ops = swap.evictions();
    r.ipis = machine.ipi().ipisSent();
    r.violations = machine.checker()->violations();
    return r;
}

LazyOpResult
runKsm(PolicyKind kind)
{
    Machine machine(smallConfig(), kind);
    Kernel &kernel = machine.kernel();
    Process *p = kernel.createProcess("ksm");
    Task *t0 = kernel.spawnTask(p, 0);
    Task *t1 = kernel.spawnTask(p, 1);
    machine.run(kUsec);
    populate(machine, p, t0, t1, 128, 8); // 16 groups of 8 duplicates
    machine.ipi().resetStats();

    KsmDaemon ksm(kernel, 4 * kMsec, 64);
    ksm.track(p);
    ksm.start();
    machine.run(30 * kMsec);
    ksm.stop();
    machine.run(8 * kMsec);

    LazyOpResult r;
    r.ops = ksm.stats().merges;
    r.ipis = machine.ipi().ipisSent();
    r.violations = machine.checker()->violations();
    return r;
}

LazyOpResult
runCompaction(PolicyKind kind)
{
    Machine machine(smallConfig(), kind);
    Kernel &kernel = machine.kernel();
    Process *p = kernel.createProcess("compact");
    Task *t0 = kernel.spawnTask(p, 0);
    Task *t1 = kernel.spawnTask(p, 1); // second resident core: the
                                       // sampling shootdowns have a
                                       // remote target under Linux
    machine.run(kUsec);

    // Fragment node 0.
    SyscallResult burn = kernel.mmap(t0, 1024 * kPageSize,
                                     kProtRead | kProtWrite);
    for (std::uint64_t i = 0; i < 1024; ++i)
        kernel.touch(t0, burn.addr + i * kPageSize, true);
    SyscallResult keep =
        kernel.mmap(t0, 64 * kPageSize, kProtRead | kProtWrite);
    for (std::uint64_t i = 0; i < 64; ++i) {
        kernel.touch(t0, keep.addr + i * kPageSize, true);
        kernel.touch(t1, keep.addr + i * kPageSize, false);
    }
    kernel.munmap(t0, burn.addr, 1024 * kPageSize);
    machine.run(8 * kMsec);
    machine.ipi().resetStats();

    CompactionDaemon compactor(kernel, 0, 4 * kMsec, 32);
    compactor.track(p);
    compactor.start();
    // Keep core 1 a live reader of part of the region so the
    // sampling shootdowns have a real remote audience; read only
    // every other round so most sampled pages stay untouched long
    // enough for their moves to complete.
    for (int round = 0; round < 10; ++round) {
        machine.run(4 * kMsec);
        if (round % 2 == 0)
            for (std::uint64_t i = 0; i < 64; i += 8)
                kernel.touch(t1, keep.addr + i * kPageSize, false);
    }
    compactor.stop();
    machine.run(8 * kMsec);

    LazyOpResult r;
    r.ops = compactor.stats().pagesMoved;
    r.ipis = machine.ipi().ipisSent();
    r.violations = machine.checker()->violations();
    return r;
}

void
report(const char *name, const LazyOpResult &linux_r,
       const LazyOpResult &latr_r, bool &all_safe)
{
    auto per_op = [](const LazyOpResult &r) {
        return r.ops ? static_cast<double>(r.ipis) /
                           static_cast<double>(r.ops)
                     : 0.0;
    };
    std::printf("%-12s | %6llu %10llu %8.2f | %6llu %10llu %8.2f\n",
                name, static_cast<unsigned long long>(linux_r.ops),
                static_cast<unsigned long long>(linux_r.ipis),
                per_op(linux_r),
                static_cast<unsigned long long>(latr_r.ops),
                static_cast<unsigned long long>(latr_r.ipis),
                per_op(latr_r));
    all_safe = all_safe && linux_r.violations == 0 &&
               latr_r.violations == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args().parse(argc, argv);
    const MachineConfig config = smallConfig();
    bench::banner("Extension: lazy-capable operations",
                  "swap, deduplication, compaction (table 1 rows)",
                  config);
    bench::paperExpectation(
        "table 1: swap/dedup/compaction admit lazy shootdowns like "
        "free and AutoNUMA (listed, not evaluated, in the paper)");
    bench::rule();
    std::printf("%-12s | %24s | %24s\n", "",
                "Linux: ops / IPIs / per-op",
                "LATR:  ops / IPIs / per-op");
    bench::rule();

    bool all_safe = true;
    report("swap", runSwap(PolicyKind::LinuxSync),
           runSwap(PolicyKind::Latr), all_safe);
    report("dedup(KSM)", runKsm(PolicyKind::LinuxSync),
           runKsm(PolicyKind::Latr), all_safe);
    report("compaction", runCompaction(PolicyKind::LinuxSync),
           runCompaction(PolicyKind::Latr), all_safe);

    bench::rule();
    bench::measuredHeadline(
        "LATR removes the shootdown IPIs from the lazy-capable part "
        "of each operation; reuse invariant everywhere: %s",
        all_safe ? "held" : "VIOLATED (bug)");
    return all_safe ? 0 : 1;
}
