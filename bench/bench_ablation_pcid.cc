// Ablation: PCIDs (paper section 4.5). Linux 4.10 does not use
// process-context identifiers, so every cross-process context switch
// flushes the whole TLB — which incidentally scrubs stale entries.
// With PCIDs, entries survive switches (fewer TLB misses) and LATR's
// explicit invalidation at the switch becomes mandatory. This bench
// oversubscribes every core with threads of two processes so the
// tick-driven rotation actually changes CR3, and reports the TLB
// miss rate in all four policy x PCID cells; the reuse invariant is
// checker-verified in each.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "machine/machine.hh"
#include "workload/workload.hh"

using namespace latr;

namespace
{

/** Touch-loop actor over a fixed working set. */
class TouchLoop : public CoreActor
{
  public:
    TouchLoop(Machine &machine, Task *task, Addr base,
              std::uint64_t pages, std::uint64_t iters)
        : CoreActor(machine, task), base_(base), pages_(pages),
          left_(iters)
    {}

  protected:
    Duration
    step() override
    {
        if (left_ == 0)
            return kActorDone;
        --left_;
        Duration d = 20 * kUsec;
        for (std::uint64_t p = 0; p < 24; ++p) {
            const std::uint64_t page = (cursor_ + p * 7) % pages_;
            d += kernel().touch(task(), base_ + page * kPageSize,
                                false)
                     .latency;
        }
        cursor_ = (cursor_ + 1) % pages_;
        return d;
    }

  private:
    Addr base_;
    std::uint64_t pages_;
    std::uint64_t cursor_ = 0;
    std::uint64_t left_;
};

struct PcidResult
{
    Duration runtime = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t flushes = 0;
    std::uint64_t violations = 0;
};

PcidResult
runCase(PolicyKind policy, bool pcid)
{
    MachineConfig cfg = MachineConfig::commodity2S16C();
    cfg.pcidEnabled = pcid;
    Machine machine(cfg, policy);
    Kernel &kernel = machine.kernel();

    const unsigned cores = 8;
    const std::uint64_t ws_pages = 48; // fits both processes' TLBs
    std::vector<std::unique_ptr<CoreActor>> actors;
    for (int p = 0; p < 2; ++p) {
        Process *proc =
            kernel.createProcess("p" + std::to_string(p));
        Task *first = kernel.spawnTask(proc, 0);
        SyscallResult m = kernel.mmap(
            first, ws_pages * kPageSize, kProtRead | kProtWrite);
        for (CoreId c = 0; c < cores; ++c) {
            Task *task =
                c == 0 ? first : kernel.spawnTask(proc, c);
            auto actor = std::make_unique<TouchLoop>(
                machine, task, m.addr, ws_pages, 2500);
            actor->start(machine.now() + c * kUsec + p + 1);
            actors.push_back(std::move(actor));
        }
    }

    const Tick t0 = machine.now();
    const Tick finish =
        runToCompletion(machine, actors, t0 + 30 * kSec);

    PcidResult out;
    out.runtime = finish - t0;
    for (CoreId c = 0; c < machine.topo().totalCores(); ++c) {
        out.tlbMisses += machine.scheduler().tlbOf(c).misses();
        out.flushes += machine.scheduler().tlbOf(c).flushes();
    }
    out.violations = machine.checker()->violations();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Args().parse(argc, argv);
    MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Ablation: PCIDs",
                  "two processes per core, with and without PCIDs",
                  config);
    bench::paperExpectation(
        "section 4.5: LATR works in both modes; without PCIDs every "
        "cross-process switch flushes (more TLB misses); with PCIDs "
        "the switch invalidation is mandatory — zero violations "
        "either way");
    bench::rule();

    std::printf("%-8s %-6s | %12s | %12s | %10s | %10s\n", "policy",
                "pcid", "runtime_ms", "tlb_misses", "flushes",
                "violations");
    bench::rule();
    bool all_safe = true;
    double miss_off = 0, miss_on = 0;
    for (PolicyKind policy : {PolicyKind::LinuxSync, PolicyKind::Latr}) {
        for (bool pcid : {false, true}) {
            PcidResult r = runCase(policy, pcid);
            std::printf("%-8s %-6s | %12.2f | %12llu | %10llu | %10llu\n",
                        policyKindName(policy), pcid ? "on" : "off",
                        r.runtime / 1e6,
                        static_cast<unsigned long long>(r.tlbMisses),
                        static_cast<unsigned long long>(r.flushes),
                        static_cast<unsigned long long>(r.violations));
            all_safe = all_safe && r.violations == 0;
            if (policy == PolicyKind::Latr) {
                if (pcid)
                    miss_on = static_cast<double>(r.tlbMisses);
                else
                    miss_off = static_cast<double>(r.tlbMisses);
            }
        }
    }
    bench::rule();
    bench::measuredHeadline(
        "PCIDs cut LATR's TLB misses by %.1f%%; reuse invariant "
        "holds in every cell: %s",
        miss_off > 0 ? 100.0 * (miss_off - miss_on) / miss_off : 0.0,
        all_safe ? "yes" : "NO (bug)");
    return all_safe ? 0 : 1;
}
