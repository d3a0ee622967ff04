#include "check/executor.hh"

#include <algorithm>

#include "machine/machine.hh"
#include "trace/chrome_trace.hh"

namespace latr
{

namespace
{

/** Executor bookkeeping for one script slot. */
struct SlotView
{
    bool live = false;
    bool huge = false;
    Addr addr = 0;
    std::uint64_t pages = 0;
    unsigned proc = 0;
};

/**
 * The executor's fixed machine: small enough to replay thousands of
 * scripts quickly, with ample physical memory so huge-page faults
 * never hit fragmentation (an allocHuge failure falls back to base
 * pages, whose frame accounting would *legitimately* differ across
 * policies and drown the differential signal).
 */
MachineConfig
executorConfig(const Script &script, const ExecOptions &opt)
{
    // Small scripts run a shrunken commodity box (2x4); `machine
    // large` scripts run the full 8-socket/120-core topology so the
    // differential harness exercises CpuMask word crossings, wide
    // IPI fan-outs, and the tick wheel at density. Memory and LLC
    // are scaled down in both cases — the scripts' footprints are
    // tiny and smaller caches reach interesting states sooner.
    MachineConfig cfg = script.large
                            ? MachineConfig::largeNuma8S120C()
                            : MachineConfig::commodity2S16C();
    cfg.name = "check";
    if (!script.large) {
        cfg.sockets = 2;
        cfg.coresPerSocket = 4;
    }
    cfg.framesPerNode = script.large ? 32 * 1024 : 64 * 1024;
    cfg.llcBytesPerSocket = 1 * 1024 * 1024;
    cfg.pcidEnabled = script.pcid;
    cfg.injectSkipLatrSweep = opt.injectSkipLatrSweep;
    cfg.injectMispredictSharers = opt.injectMispredictSharers;
    cfg.noFastpath = opt.noFastpath;
    return cfg;
}

char
pageCode(const Pte *pte, bool huge)
{
    if (!pte || !pte->present())
        return '.';
    // NUMA-hint prot-none is deliberately NOT digested (see
    // RunResult::regionSig): advisory state, timing-coupled.
    if (pte->cow())
        return 'c';
    if (huge)
        return pte->writable() ? 'W' : 'R';
    return pte->writable() ? 'w' : 'r';
}

/** Region-relative digest of one live slot (see RunResult docs). */
std::string
digestSlot(AddressSpace &mm, const SlotView &slot)
{
    std::string sig;
    sig.reserve(slot.pages + 32);
    const Vpn base = pageOf(slot.addr);
    if (slot.huge) {
        for (Vpn block = base; block < base + slot.pages;
             block += kHugePageSpan) {
            const Pte *hpte = mm.pageTable().findHuge(block);
            if (hpte) {
                sig.push_back(pageCode(hpte, true));
                continue;
            }
            // Fragmentation fallback mapped base pages instead;
            // digest them individually.
            sig.push_back('[');
            for (Vpn vpn = block; vpn < block + kHugePageSpan; ++vpn)
                sig.push_back(
                    pageCode(mm.pageTable().find(vpn), false));
            sig.push_back(']');
        }
    } else {
        for (Vpn vpn = base; vpn < base + slot.pages; ++vpn)
            sig.push_back(pageCode(mm.pageTable().find(vpn), false));
    }
    // VMA cover, relative to the slot base.
    const Addr lo = slot.addr;
    const Addr hi = slot.addr + slot.pages * kPageSize;
    for (const auto &kv : mm.vmas()) {
        const Vma &vma = kv.second;
        if (!vma.overlaps(lo, hi))
            continue;
        const Addr s = std::max(vma.start, lo);
        const Addr e = std::min(vma.end, hi);
        sig += "|vma+" + std::to_string((s - lo) >> kPageShift) + ":" +
               std::to_string((e - s) >> kPageShift) + ":p" +
               std::to_string(vma.prot) + (vma.huge ? "H" : "");
    }
    return sig;
}

} // namespace

const std::vector<PolicyKind> &
allPolicyKinds()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::LinuxSync, PolicyKind::Latr, PolicyKind::Abis,
        PolicyKind::Barrelfish, PolicyKind::Predictive};
    return kinds;
}

RunResult
runScript(const Script &script, PolicyKind policy,
          const ExecOptions &opt)
{
    RunResult result;
    result.policy = policy;

    Machine machine(executorConfig(script, opt), policy);
    if (opt.trace) {
        machine.trace().setCapacity(1 << 20);
        machine.trace().setEnabled(true);
    }

    Kernel &kernel = machine.kernel();
    const unsigned cores = machine.topo().totalCores();
    const unsigned procs = script.procs > 0 ? script.procs : 1;

    std::vector<Process *> processes;
    for (unsigned p = 0; p < procs; ++p)
        processes.push_back(
            kernel.createProcess("p" + std::to_string(p)));
    // One task per core (no core ever idles, so scheduler ticks —
    // and with them LATR's sweeps — keep firing everywhere); task i
    // belongs to process i % procs.
    std::vector<Task *> tasks;
    for (CoreId c = 0; c < cores; ++c)
        tasks.push_back(kernel.spawnTask(processes[c % procs], c));
    machine.run(kUsec);

    std::vector<SlotView> slots;
    auto slot_at = [&](std::uint32_t idx) -> SlotView & {
        if (idx >= slots.size())
            slots.resize(idx + 1);
        return slots[idx];
    };
    // Ops that do not apply to the current state (dead slot, bad
    // offset, foreign task) are skipped — deterministically, from
    // script state alone, so minimized scripts replay identically.
    auto task_for = [&](const Op &op, const SlotView &slot) -> Task * {
        if (op.task >= tasks.size())
            return nullptr;
        Task *t = tasks[op.task];
        return t->process() == processes[slot.proc % procs] ? t
                                                            : nullptr;
    };

    // The script is a *serialized* history: each op completes —
    // including delivery of any IPIs it launched — before the next
    // op issues. Without this, a later op's staleness deadline could
    // land before an earlier op's still-in-flight invalidations,
    // and the checker would report a phantom violation.
    auto settle = [&](Duration latency) { machine.run(latency); };

    for (const Op &op : script.ops) {
        SlotView &slot = slot_at(op.slot);
        switch (op.kind) {
          case OpKind::Mmap: {
            if (slot.live || op.task >= tasks.size() || op.value == 0)
                break;
            Task *t = tasks[op.task];
            SyscallResult r =
                kernel.mmap(t, op.value * kPageSize,
                            op.rw ? (kProtRead | kProtWrite)
                                  : kProtRead);
            settle(r.latency);
            if (r.ok)
                slot = SlotView{true, false, r.addr, op.value,
                                static_cast<unsigned>(
                                    op.task % procs)};
            break;
          }
          case OpKind::MmapHuge: {
            if (slot.live || op.task >= tasks.size() || op.value == 0)
                break;
            Task *t = tasks[op.task];
            SyscallResult r = kernel.mmapHuge(
                t, op.value * kHugePageSpan * kPageSize,
                kProtRead | kProtWrite);
            settle(r.latency);
            if (r.ok)
                slot = SlotView{true, true, r.addr,
                                op.value * kHugePageSpan,
                                static_cast<unsigned>(
                                    op.task % procs)};
            break;
          }
          case OpKind::Munmap:
          case OpKind::MunmapSync: {
            if (!slot.live)
                break;
            Task *t = task_for(op, slot);
            if (!t)
                break;
            settle(kernel
                       .munmap(t, slot.addr, slot.pages * kPageSize,
                               op.kind == OpKind::MunmapSync)
                       .latency);
            slot.live = false;
            break;
          }
          case OpKind::Madvise: {
            if (!slot.live)
                break;
            Task *t = task_for(op, slot);
            if (t)
                settle(kernel
                           .madvise(t, slot.addr,
                                    slot.pages * kPageSize)
                           .latency);
            break;
          }
          case OpKind::MadviseFree: {
            if (!slot.live)
                break;
            Task *t = task_for(op, slot);
            if (t)
                settle(kernel
                           .madviseFree(t, slot.addr,
                                        slot.pages * kPageSize)
                           .latency);
            break;
          }
          case OpKind::Mprotect: {
            if (!slot.live)
                break;
            Task *t = task_for(op, slot);
            if (t)
                settle(kernel
                           .mprotect(t, slot.addr,
                                     slot.pages * kPageSize,
                                     op.rw ? (kProtRead | kProtWrite)
                                           : kProtRead)
                           .latency);
            break;
          }
          case OpKind::Mremap: {
            if (!slot.live || slot.huge || op.value == 0)
                break;
            Task *t = task_for(op, slot);
            if (!t)
                break;
            SyscallResult r =
                kernel.mremap(t, slot.addr, slot.pages * kPageSize,
                              op.value * kPageSize);
            settle(r.latency);
            if (r.ok) {
                slot.addr = r.addr;
                slot.pages = op.value;
            }
            break;
          }
          case OpKind::MarkCow: {
            if (!slot.live)
                break;
            Task *t = task_for(op, slot);
            if (t)
                settle(kernel
                           .markCow(t, slot.addr,
                                    slot.pages * kPageSize)
                           .latency);
            break;
          }
          case OpKind::Touch: {
            if (!slot.live || op.off >= slot.pages)
                break;
            Task *t = task_for(op, slot);
            if (t)
                settle(kernel
                           .touch(t, slot.addr + op.off * kPageSize,
                                  op.rw)
                           .latency);
            break;
          }
          case OpKind::NumaSample: {
            if (!slot.live || op.off >= slot.pages)
                break;
            Task *t = task_for(op, slot);
            if (t)
                settle(kernel.numaSample(t,
                                         pageOf(slot.addr) + op.off));
            break;
          }
          case OpKind::CtxSwitch:
            if (op.value < cores)
                settle(machine.scheduler().contextSwitch(
                    static_cast<CoreId>(op.value)));
            break;
          case OpKind::Advance:
            machine.run(op.value * kUsec);
            break;
          case OpKind::Quiesce:
            // Long enough for LATR's 2 ms reclaim age plus a sweep
            // epoch on every core.
            machine.run(5 * kMsec);
            break;
        }
    }

    // Implicit final quiesce: settle every lazy path, then audit.
    machine.run(10 * kMsec);
    CoherenceChecker &checker = *machine.checker();
    checker.auditAt(machine.now());

    result.invariantViolations = checker.reuseViolations();
    result.firstInvariant = checker.firstReuseViolation();
    result.stalenessViolations = checker.stalenessViolations();
    result.firstStaleness = checker.firstStalenessViolation();
    result.allocatedFrames = machine.frames().allocatedFrames();
    result.latrFallbackIpis =
        machine.stats().counter("latr.fallback_ipis").value();
    for (unsigned s = 0; s < slots.size(); ++s)
        if (slots[s].live)
            result.regionSig[s] = digestSlot(
                processes[slots[s].proc % procs]->mm(), slots[s]);
    for (Process *p : processes) {
        result.mmPresentPages.push_back(
            p->mm().pageTable().presentPages());
        result.heldBackBytes += p->mm().heldBackBytes();
    }

    if (opt.trace && !opt.tracePath.empty())
        writeChromeTraceFile(machine.trace(), &machine.topo(),
                             opt.tracePath);
    return result;
}

DiffResult
diffStates(const RunResult &a, const RunResult &b)
{
    DiffResult d;
    auto diverge = [&](std::string what) {
        d.equivalent = false;
        d.divergence = std::string(policyKindName(a.policy)) + " vs " +
                       policyKindName(b.policy) + ": " + what;
    };
    if (a.regionSig.size() != b.regionSig.size()) {
        diverge("live region count " +
                std::to_string(a.regionSig.size()) + " != " +
                std::to_string(b.regionSig.size()));
        return d;
    }
    for (const auto &kv : a.regionSig) {
        auto it = b.regionSig.find(kv.first);
        if (it == b.regionSig.end()) {
            diverge("slot " + std::to_string(kv.first) +
                    " live only under the baseline");
            return d;
        }
        if (it->second != kv.second) {
            diverge("slot " + std::to_string(kv.first) + " digest [" +
                    kv.second + "] != [" + it->second + "]");
            return d;
        }
    }
    if (a.mmPresentPages != b.mmPresentPages) {
        diverge("per-mm present-page counts differ");
        return d;
    }
    if (a.allocatedFrames != b.allocatedFrames) {
        diverge("allocated frames " +
                std::to_string(a.allocatedFrames) + " != " +
                std::to_string(b.allocatedFrames));
        return d;
    }
    if (a.heldBackBytes != b.heldBackBytes) {
        diverge("held-back VA bytes " +
                std::to_string(a.heldBackBytes) + " != " +
                std::to_string(b.heldBackBytes));
        return d;
    }
    return d;
}

std::vector<RunResult>
runDifferential(const Script &script, const ExecOptions &opt,
                DiffResult *diff)
{
    std::vector<RunResult> results;
    for (PolicyKind kind : allPolicyKinds())
        results.push_back(runScript(script, kind, opt));
    if (diff) {
        *diff = DiffResult{};
        for (std::size_t i = 1; i < results.size(); ++i) {
            DiffResult d = diffStates(results[0], results[i]);
            if (!d.equivalent) {
                *diff = d;
                break;
            }
        }
    }
    return results;
}

} // namespace latr
