// Race semantics (the paper's section 4.4): what a buggy application
// observes when it touches memory it already freed, under Linux vs.
// LATR. Under Linux the shootdown is synchronous, so any use after
// munmap() returns faults immediately. Under LATR a remote core's
// stale TLB entry keeps working — against the old, not-yet-freed
// page — until that core's next scheduler tick; afterwards the same
// touch segfaults. Either way the paper's invariant protects the
// rest of the system: the page is never handed to anyone else while
// a stale entry could still reach it (the coherence checker verifies
// this live).
//
//   $ ./race_semantics

#include <cstdio>

#include "machine/machine.hh"

using namespace latr;

namespace
{

const char *
kindName(TouchKind kind)
{
    switch (kind) {
      case TouchKind::TlbHit:
        return "TLB hit (stale entry, old page!)";
      case TouchKind::TlbL2Hit:
        return "L2 TLB hit (stale entry, old page!)";
      case TouchKind::SegFault:
        return "segmentation fault";
      default:
        return "resolved through the page table";
    }
}

void
demo(PolicyKind policy)
{
    Machine machine(MachineConfig::commodity2S16C(), policy);
    Kernel &kernel = machine.kernel();
    Process *p = kernel.createProcess("buggy");
    Task *t0 = kernel.spawnTask(p, 0);
    Task *t1 = kernel.spawnTask(p, 1);
    machine.run(kUsec);

    std::printf("--- %s ---\n", machine.policy().name());

    SyscallResult m = kernel.mmap(t0, kPageSize,
                                  kProtRead | kProtWrite);
    kernel.touch(t0, m.addr, true);
    TouchResult before = kernel.touch(t1, m.addr, true);
    std::printf("  before munmap, core 1 write:        %s (frame %llu)\n",
                kindName(before.kind),
                static_cast<unsigned long long>(before.pfn));

    SyscallResult u = kernel.munmap(t0, m.addr, kPageSize);

    // A touch at this same instant races the munmap itself — both
    // systems allow it to land on the old page (Linux's IPIs are
    // still in flight).
    TouchResult during = kernel.touch(t1, m.addr, true);
    std::printf("  concurrent with munmap, core 1:     %s\n",
                kindName(during.kind));

    // Once munmap has *returned* the two systems differ: Linux
    // already waited for every ACK; LATR has not invalidated
    // anything remotely yet.
    machine.run(u.latency);
    TouchResult after_return = kernel.touch(t1, m.addr, true);
    std::printf("  after munmap returned, core 1:      %s\n",
                kindName(after_return.kind));

    // One scheduler tick later.
    machine.run(machine.config().cost.tickInterval + 10 * kUsec);
    TouchResult later = kernel.touch(t1, m.addr, false);
    std::printf("  one tick later, core 1 read:        %s\n",
                kindName(later.kind));

    machine.run(6 * kMsec);
    std::printf("  reuse-invariant violations:         %llu\n\n",
                static_cast<unsigned long long>(
                    machine.checker()->violations()));
}

} // namespace

int
main()
{
    std::printf(
        "Section 4.4: reads and writes to freed memory before the "
        "lazy shootdown\n\n");
    demo(PolicyKind::LinuxSync);
    demo(PolicyKind::Latr);
    std::printf(
        "LATR lets the buggy access linger against the old page for "
        "up to one tick — never against anyone else's memory — then "
        "it faults, exactly as the paper describes.\n");
    return 0;
}
