#include "os/kernel.hh"

#include <algorithm>

#include "check/checker.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace latr
{

Kernel::Kernel(EventQueue &queue, const NumaTopology &topo,
               const MachineConfig &config, FrameAllocator &frames,
               Scheduler &sched, StatRegistry &stats)
    : queue_(queue), topo_(topo), config_(config), frames_(frames),
      sched_(sched), stats_(stats),
      minorFaultsCtr_(stats.counter("vm.minor_faults")),
      numaFaultsCtr_(stats.counter("vm.numa_faults")),
      segFaultsCtr_(stats.counter("vm.segfaults")),
      cowBreaksCtr_(stats.counter("vm.cow_breaks"))
{
    touchHooks_.onMinorFault = [this](Vpn) -> Duration {
        return policy_ ? policy_->minorFaultOverhead() : 0;
    };
    touchHooks_.onNumaHintFault = [this](Vpn vpn,
                                         CoreId core) -> Duration {
        if (numaFaultHook_)
            return numaFaultHook_(vpn, core);
        // Default NUMA-hint resolution: clear the hint, no migration.
        Pte *pte = touchTask_->mm().pageTable().find(vpn);
        if (pte)
            pte->flags &= static_cast<std::uint8_t>(~kPteProtNone);
        return 0;
    };
    touchHooks_.onCowWrite = [this](Vpn vpn, CoreId) {
        return breakCow(touchTask_, vpn);
    };
}

void
Kernel::setPolicy(TlbCoherencePolicy *policy)
{
    policy_ = policy;
    sched_.setPolicy(policy);
}

Process *
Kernel::createProcess(std::string name)
{
    const MmId id = nextMm_++;
    const Pcid pcid =
        config_.pcidEnabled ? static_cast<Pcid>(id % 4095 + 1)
                            : kPcidNone;
    processes_.push_back(
        std::make_unique<Process>(id, pcid, frames_, std::move(name)));
    return processes_.back().get();
}

Task *
Kernel::spawnTask(Process *process, CoreId core)
{
    if (core >= topo_.totalCores())
        fatal("spawnTask on nonexistent core %u", core);
    tasks_.push_back(
        std::make_unique<Task>(nextTask_++, process, core));
    Task *task = tasks_.back().get();
    task->setName(process->name() + "/t" +
                  std::to_string(task->id()));
    process->tasks().push_back(task);
    sched_.addTask(task);
    return task;
}

void
Kernel::exitTask(Task *task)
{
    sched_.removeTask(task);
    auto &list = task->process()->tasks();
    list.erase(std::remove(list.begin(), list.end(), task), list.end());
}

void
Kernel::exitProcess(Process *process)
{
    // Unschedule everything first (each removal flushes/updates
    // residency as needed).
    while (!process->tasks().empty())
        exitTask(process->tasks().back());

    AddressSpace &mm = process->mm();
    // Scrub TLB residue on any core still holding translations.
    CpuMask residue = mm.residencyMask();
    residue.forEach([&](CoreId core) {
        if (config_.pcidEnabled)
            sched_.tlbOf(core).invalidatePcid(mm.pcid());
        else
            sched_.tlbOf(core).flushAll();
        mm.residencyMask().clear(core);
    });

    // Release every mapped frame.
    std::vector<Vma> vmas;
    vmas.reserve(mm.vmas().size());
    for (const auto &kv : mm.vmas())
        vmas.push_back(kv.second);
    for (const Vma &vma : vmas) {
        UnmapResult ur = mm.munmapRegion(vma.start, vma.end - vma.start);
        ur.releaseTo(frames_);
    }
}

Duration
Kernel::switchToTask(Task *task)
{
    return sched_.switchToTask(task);
}

Counter &
Kernel::counterOnce(Counter *&cache, const char *name)
{
    if (!cache)
        cache = &stats_.counter(name);
    return *cache;
}

Distribution &
Kernel::distributionOnce(Distribution *&cache, const char *name)
{
    if (!cache)
        cache = &stats_.distribution(name);
    return *cache;
}

void
Kernel::noteRequestComplete(CoreId core, MmId mm, Duration latency)
{
    counterOnce(serveRequestsCtr_, "serve.requests").inc();
    distributionOnce(serveLatencyDist_, "serve.request_ns")
        .sample(static_cast<double>(latency));
    if (trace_)
        trace_->instant("serve", "request.done", queue_.now(), core,
                        mm, latency);
}

void
Kernel::traceSyscall(const char *name, Tick begin,
                     const SyscallResult &res, CoreId core, MmId mm,
                     std::uint64_t npages)
{
    if (!trace_ || !trace_->enabled())
        return;
    const SpanId span =
        trace_->beginSpan("vm", name, begin, core, mm, npages);
    trace_->endSpan(span, begin + res.latency);
}

void
Kernel::noteInvalidation(AddressSpace &mm,
                         std::span<const std::pair<Vpn, Pfn>> changed,
                         Tick done, const char *op, bool lazy)
{
    const Tick deadline =
        lazy ? done + policy_->stalenessContract().epochBound : done;
    checker_->noteInvalidation(mm.pcid(), mm.id(), changed,
                               mm.residencyMask(), deadline, op);
}

Duration
Kernel::localInvalidate(CoreId core, AddressSpace &mm, Vpn s, Vpn e,
                        std::uint64_t npages)
{
    Tlb &tlb = sched_.tlbOf(core);
    if (npages >= config_.cost.fullFlushThreshold)
        tlb.flushAll();
    else
        tlb.invalidateRange(s, e, mm.pcid());
    return config_.cost.localInvalidateCost(npages);
}

SyscallResult
Kernel::mmap(Task *task, std::uint64_t len, std::uint8_t prot,
             bool file_backed)
{
    SyscallResult res;
    if (len == 0)
        return res;
    AddressSpace &mm = task->mm();
    const Tick now = queue_.now();
    const Duration hold = config_.cost.mmapFixed;
    const Tick at =
        mm.mmapSem().acquireWrite(now + config_.cost.syscallFixed, hold);
    res.addr = mm.mmapRegion(len, prot, file_backed);
    res.ok = res.addr != kAddrInvalid;
    res.latency = (at + hold) - now;
    counterOnce(mmapCtr_, "sys.mmap").inc();
    return res;
}

SyscallResult
Kernel::mmapHuge(Task *task, std::uint64_t len, std::uint8_t prot)
{
    SyscallResult res;
    if (len == 0)
        return res;
    AddressSpace &mm = task->mm();
    const Tick now = queue_.now();
    const Duration hold = config_.cost.mmapFixed;
    const Tick at =
        mm.mmapSem().acquireWrite(now + config_.cost.syscallFixed, hold);
    res.addr = mm.mmapHugeRegion(len, prot);
    res.ok = res.addr != kAddrInvalid;
    res.latency = (at + hold) - now;
    counterOnce(mmapHugeCtr_, "sys.mmap_huge").inc();
    return res;
}

SyscallResult
Kernel::munmap(Task *task, Addr addr, std::uint64_t len, bool sync)
{
    SyscallResult res;
    AddressSpace &mm = task->mm();
    const CoreId core = task->core();
    const Tick now = queue_.now();

    UnmapResult ur = mm.munmapRegion(addr, len);
    if (!ur.ok) {
        res.latency = config_.cost.syscallFixed;
        return res;
    }
    // A huge mapping clears one PMD entry, not 512 PTEs.
    const std::uint64_t npages = ur.npages();
    const std::uint64_t pte_clears = ur.pteCount();
    const Vpn s = pageOf(pageAlignDown(addr));
    const Vpn e = pageOf(pageAlignUp(addr + len)) - 1;

    Duration base = config_.cost.vmaFixed +
                    config_.cost.vmaPerPage * pte_clears +
                    config_.cost.pteClearPerPage * pte_clears +
                    config_.cost.vmaPerResidentCore *
                        mm.residencyMask().count();
    base += localInvalidate(core, mm, s, e, npages);

    const Tick t0 = now + config_.cost.syscallFixed;
    const Tick lock_at = mm.mmapSem().acquireWrite(t0, base);
    const Tick shoot_at = lock_at + base;

    FreeOpContext ctx;
    ctx.mm = &mm;
    ctx.initiator = core;
    ctx.startVpn = s;
    ctx.endVpn = e;
    ctx.frames = std::move(ur);
    ctx.vaStart = pageAlignDown(addr);
    ctx.vaEnd = pageAlignUp(addr + len);
    ctx.syncRequested = sync;
    const Duration pol = freePages(std::move(ctx), shoot_at, "munmap");
    // Linux performs the shootdown under mmap_sem; LATR's 132 ns
    // state save extends the hold negligibly.
    mm.mmapSem().extendWrite(pol);

    res.ok = true;
    res.shootdown = pol;
    res.latency = (shoot_at + pol) - now;
    counterOnce(munmapCtr_, "sys.munmap").inc();
    distributionOnce(munmapLatencyDist_, "munmap.latency_ns")
        .sample(static_cast<double>(res.latency));
    distributionOnce(munmapShootdownDist_, "munmap.shootdown_ns")
        .sample(static_cast<double>(pol));
    traceSyscall("sys.munmap", now, res, core, mm.id(), npages);
    return res;
}

SyscallResult
Kernel::madvise(Task *task, Addr addr, std::uint64_t len)
{
    return madviseCommon(task, addr, len, madviseCtr_, "sys.madvise",
                         "madvise");
}

SyscallResult
Kernel::madviseFree(Task *task, Addr addr, std::uint64_t len)
{
    // MADV_FREE shares the deferred-free contract with MADV_DONTNEED
    // in this model: the contents are gone from the application's
    // view the moment the call returns (a later touch refaults a
    // fresh zero frame), while the frames reach the allocator
    // through the policy — lazily under LATR. Distinct counter and
    // trace name so free-then-reuse traffic is visible next to
    // plain madvise in dumps.
    return madviseCommon(task, addr, len, madviseFreeCtr_,
                         "sys.madvise_free", "madvise_free");
}

SyscallResult
Kernel::madviseCommon(Task *task, Addr addr, std::uint64_t len,
                      Counter *&counter_cache, const char *counter,
                      const char *op)
{
    SyscallResult res;
    AddressSpace &mm = task->mm();
    const CoreId core = task->core();
    const Tick now = queue_.now();

    UnmapResult ur = mm.madviseRegion(addr, len);
    if (!ur.ok) {
        res.latency = config_.cost.syscallFixed;
        return res;
    }
    const std::uint64_t npages = ur.npages();
    const std::uint64_t pte_clears = ur.pteCount();
    const Vpn s = pageOf(pageAlignDown(addr));
    const Vpn e = pageOf(pageAlignUp(addr + len)) - 1;

    Duration base = config_.cost.vmaFixed +
                    config_.cost.vmaPerPage * pte_clears +
                    config_.cost.pteClearPerPage * pte_clears;
    base += localInvalidate(core, mm, s, e, npages);

    // MADV_DONTNEED runs under mmap_sem held for *read*.
    const Tick t0 = now + config_.cost.syscallFixed;
    const Tick lock_at = mm.mmapSem().acquireRead(t0, base);
    const Tick shoot_at = lock_at + base;

    FreeOpContext ctx; // the VMA survives madvise: no VA to release
    ctx.mm = &mm;
    ctx.initiator = core;
    ctx.startVpn = s;
    ctx.endVpn = e;
    ctx.frames = std::move(ur);
    const Duration pol = freePages(std::move(ctx), shoot_at, op);

    res.ok = true;
    res.shootdown = pol;
    res.latency = (shoot_at + pol) - now;
    counterOnce(counter_cache, counter).inc();
    traceSyscall(counter, now, res, core, mm.id(), npages);
    return res;
}

Duration
Kernel::freePages(FreeOpContext ctx, Tick start, const char *op)
{
    // The policy consumes the per-page sharer info (ABIS, Predictive)
    // before it is forgotten.
    AddressSpace &mm = *ctx.mm;
    std::vector<std::pair<Vpn, Pfn>> freed = ctx.frames.entries();
    const Duration pol = policy_->onFreePages(std::move(ctx), start);
    for (const auto &page : freed)
        mm.clearSharers(page.first);
    if (checker_)
        noteInvalidation(mm, freed, start + pol, op, true);
    return pol;
}

Duration
Kernel::syncInvalidate(AddressSpace &mm, CoreId core, Vpn s, Vpn e,
                       FreedFrames changed, Tick start, const char *op,
                       bool release, Duration copy)
{
    const std::uint64_t npages = changed.npages();
    const Duration local = localInvalidate(core, mm, s, e, npages);
    const Duration wait = policy_->onSyncShootdown(&mm, core, s, e,
                                                   npages, start + local);
    // Every remote invalidation lands before the last ACK.
    const Tick acked = start + local + wait;
    if (checker_) {
        noteInvalidation(mm, changed.pages, acked, op, false);
        noteInvalidation(mm, changed.hugePages, acked, op, false);
    }
    if (release)
        policy_->releaseAt(acked + copy, &mm, std::move(changed));
    return local + wait;
}

SyscallResult
Kernel::syncSyscall(Task *task, Addr addr, std::uint64_t len,
                    UnmapResult ur, Duration pt_work,
                    Counter *&counter_cache, const char *counter,
                    const char *op)
{
    SyscallResult res;
    if (!ur.ok) {
        res.latency = config_.cost.syscallFixed;
        return res;
    }
    AddressSpace &mm = task->mm();
    const CoreId core = task->core();
    const Tick now = queue_.now();
    const std::uint64_t npages = ur.pages.size();
    const Vpn s = pageOf(pageAlignDown(addr));
    const Vpn e = pageOf(pageAlignUp(addr + len)) - 1;

    const Duration work = config_.cost.vmaFixed + pt_work;
    const Tick t0 = now + config_.cost.syscallFixed;
    const Tick lock_at = mm.mmapSem().acquireWrite(t0, work);
    const Duration sync = syncInvalidate(mm, core, s, e, std::move(ur),
                                         lock_at + work, op);
    mm.mmapSem().extendWrite(sync);

    res.ok = true;
    // The local flush is page-table work; the rest is the shootdown.
    res.shootdown = sync - config_.cost.localInvalidateCost(npages);
    res.latency = lock_at + work + sync - now;
    counterOnce(counter_cache, counter).inc();
    traceSyscall(counter, now, res, core, mm.id(), npages);
    return res;
}

SyscallResult
Kernel::mprotect(Task *task, Addr addr, std::uint64_t len,
                 std::uint8_t prot)
{
    // Permission changes must be synchronous under every policy
    // (table 1): stale writable entries are a correctness hazard.
    UnmapResult ur = task->mm().mprotectRegion(addr, len, prot);
    const Duration pt_work =
        config_.cost.vmaPerPage * ur.spanned +
        config_.cost.pteClearPerPage * ur.pages.size();
    return syncSyscall(task, addr, len, std::move(ur), pt_work,
                       mprotectCtr_, "sys.mprotect", "mprotect");
}

SyscallResult
Kernel::mremap(Task *task, Addr old_addr, std::uint64_t old_len,
               std::uint64_t new_len)
{
    // Remap changes physical addresses of live translations —
    // synchronous everywhere (table 1).
    UnmapResult moved;
    const Addr new_addr =
        task->mm().mremapRegion(old_addr, old_len, new_len, &moved);
    const Duration pt_work =
        config_.cost.vmaPerPage * moved.spanned +
        config_.cost.pteMapPerPage * moved.pages.size();
    // A shrink drops the pages past the new size: their frames are
    // released once the shootdown has killed every old translation.
    FreedFrames dropped;
    const Vpn kept_end =
        pageOf(pageAlignDown(old_addr)) + pageOf(pageAlignUp(new_len));
    for (const auto &page : moved.pages)
        if (page.first >= kept_end)
            dropped.pages.push_back(page);
    const Tick now = queue_.now();
    SyscallResult res = syncSyscall(task, old_addr, old_len,
                                    std::move(moved), pt_work,
                                    mremapCtr_, "sys.mremap", "mremap");
    policy_->releaseAt(now + res.latency, &task->mm(),
                       std::move(dropped));
    res.addr = new_addr; // kAddrInvalid when the remap failed
    return res;
}

SyscallResult
Kernel::markCow(Task *task, Addr addr, std::uint64_t len)
{
    // Ownership changes are synchronous (table 1): every core must
    // lose write access before sharing begins.
    UnmapResult ur = task->mm().markCowRegion(addr, len);
    const Duration pt_work =
        config_.cost.pteClearPerPage * ur.pages.size();
    return syncSyscall(task, addr, len, std::move(ur), pt_work,
                       markCowCtr_, "sys.markcow", "markcow");
}

Duration
Kernel::breakCow(Task *task, Vpn vpn)
{
    AddressSpace &mm = task->mm();
    const CoreId core = task->core();
    Pte *pte = mm.pageTable().find(vpn);
    if (!pte || !pte->cow())
        return 0;

    Duration spent = 0;
    const Pfn old = pte->pfn;
    pte->flags |= kPteWrite;
    pte->flags &= static_cast<std::uint8_t>(~kPteCow);
    if (frames_.refcount(old) > 1) {
        // Copy the page; the old frame stays with the other owner.
        // Stale translations to it must die before this mm continues
        // writing, and this mm's reference lasts until they have.
        const Pfn fresh = frames_.alloc(topo_.nodeOf(core));
        if (fresh == kPfnInvalid)
            fatal("out of memory during CoW break");
        spent += config_.cost.migrateCopyPerPage;
        pte->pfn = fresh;
        spent += syncInvalidate(mm, core, vpn, vpn,
                                FreedFrames::page(vpn, old),
                                queue_.now() + spent, "cow_break",
                                /*release=*/true);
    } else {
        // Sole owner: upgrade in place.
        sched_.tlbOf(core).invalidatePage(vpn, mm.pcid());
        spent += config_.cost.invlpg;
    }
    cowBreaksCtr_.inc();
    return spent;
}

TouchResult
Kernel::touch(Task *task, Addr addr, bool is_write)
{
    AddressSpace &mm = task->mm();
    const CoreId core = task->core();
    const NodeId node = topo_.nodeOf(core);

    // The hooks live in touchHooks_ (built once); they read the
    // touched task from touchTask_. Save/restore in case a hook's
    // shootdown machinery re-enters touch() for another task.
    Task *const prev_task = touchTask_;
    touchTask_ = task;
    TouchResult r = touchPage(core, node, mm, sched_.tlbOf(core),
                              config_.cost, addr, is_write,
                              touchHooks_);
    touchTask_ = prev_task;
    // Fault paths run under mmap_sem held for read: fault traffic
    // delays munmap/mprotect writers and, symmetrically, a fault
    // arriving during a held write section (Linux's shootdown!)
    // stalls until the writer drains. This interaction is a large
    // part of why Apache stops scaling under synchronous shootdowns.
    if (r.kind == TouchKind::MinorFault ||
        r.kind == TouchKind::NumaFault ||
        r.kind == TouchKind::CowBreak) {
        const Tick now = queue_.now();
        // Only part of the fault runs under the lock (the VMA walk
        // and PTE install; allocation and bookkeeping do not).
        const Tick at =
            mm.mmapSem().acquireRead(now, r.latency / 2);
        r.latency += at - now;
    }
    const bool tracing = trace_ && trace_->enabled();
    switch (r.kind) {
      case TouchKind::MinorFault:
        minorFaultsCtr_.inc();
        if (tracing)
            trace_->instantNow("vm", "vm.minor_fault", core,
                               mm.id(), pageOf(addr));
        break;
      case TouchKind::NumaFault:
        numaFaultsCtr_.inc();
        if (tracing)
            trace_->instantNow("vm", "vm.numa_fault", core,
                               mm.id(), pageOf(addr));
        break;
      case TouchKind::SegFault:
        segFaultsCtr_.inc();
        if (tracing)
            trace_->instantNow("vm", "vm.segfault", core,
                               mm.id(), pageOf(addr));
        break;
      default:
        break;
    }
    return r;
}

Duration
Kernel::numaSample(Task *task, Vpn vpn)
{
    AddressSpace &mm = task->mm();
    const Tick now = queue_.now();
    // Mirror the policies' raced-with-unmap guard: a sample that
    // finds no PTE invalidates nothing, so nothing is promised.
    const Pte *pte = mm.pageTable().find(vpn);
    const std::pair<Vpn, Pfn> page{vpn, pte ? pte->pfn : kPfnInvalid};
    const Duration pol =
        policy_->onNumaSample(&mm, task->core(), vpn, now);
    if (pte && checker_)
        noteInvalidation(mm, {&page, 1}, now + pol, "numa_sample", true);
    return pol;
}

void
Kernel::setNumaFaultHook(std::function<Duration(Vpn, CoreId)> hook)
{
    numaFaultHook_ = std::move(hook);
}

} // namespace latr
