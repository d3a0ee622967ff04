#include "numa/autonuma.hh"

#include <algorithm>

namespace latr
{

AutoNuma::AutoNuma(Kernel &kernel, Duration scan_interval,
                   unsigned pages_per_scan)
    : ScanDaemon(kernel, scan_interval, "autonuma-scan"),
      pagesPerScan_(pages_per_scan), migrator_(kernel)
{
}

AutoNuma::~AutoNuma()
{
    stop();
}

void
AutoNuma::setScanStride(std::uint64_t stride)
{
    scanStride_ = stride == 0 ? 1 : stride;
}

void
AutoNuma::start()
{
    if (!running())
        kernel_.setNumaFaultHook([this](Vpn vpn, CoreId core) {
            return onHintFault(vpn, core);
        });
    ScanDaemon::start();
}

void
AutoNuma::stop()
{
    if (running())
        kernel_.setNumaFaultHook(nullptr);
    ScanDaemon::stop();
}

void
AutoNuma::scan()
{
    if (tracked_.empty())
        return;

    Process *process = tracked_[nextProcess_ % tracked_.size()];
    AddressSpace &mm = process->mm();

    // The scan runs in task context (task_numa_work).
    Task *context = contextOf(process);
    if (!context) {
        nextProcess_++;
        return;
    }

    // Collect the next batch of sampled pages: sequential from the
    // cursor when the stride is 1, every stride-th present page
    // (rotating phase) otherwise.
    std::vector<Vpn> batch;
    std::uint64_t index = 0;
    for (const auto &kv : mm.vmas()) {
        const Vma &vma = kv.second;
        Vpn first = pageOf(vma.start);
        Vpn last = pageOf(vma.end) - 1;
        if (scanStride_ == 1 && last < scanCursor_)
            continue;
        mm.pageTable().forEachPresent(
            scanStride_ == 1 ? std::max(first, scanCursor_) : first,
            last, [&](Vpn vpn, Pte &pte) {
                if (batch.size() >= pagesPerScan_ || pte.protNone())
                    return;
                if (scanStride_ == 1 ||
                    index++ % scanStride_ == stridePhase_)
                    batch.push_back(vpn);
            });
        if (batch.size() >= pagesPerScan_)
            break;
    }
    if (scanStride_ > 1) {
        stridePhase_ = (stridePhase_ + 1) % scanStride_;
        ++nextProcess_;
    } else if (batch.empty()) {
        // Wrapped: restart from the beginning next round.
        scanCursor_ = 0;
        ++nextProcess_;
    } else {
        scanCursor_ = batch.back() + 1;
    }

    Duration spent = 0;
    for (Vpn vpn : batch) {
        spent += kernel_.cost().numaScanPerPage;
        spent += kernel_.numaSample(context, vpn);
        ++samples_;
    }
    // The scan work runs on the context task's core.
    kernel_.scheduler().chargeStolen(context->core(), spent);
}

Duration
AutoNuma::onHintFault(Vpn vpn, CoreId core)
{
    ++hintFaults_;
    AddressSpace *mm = nullptr;
    Task *task = kernel_.scheduler().currentTask(core);
    if (!task)
        return 0;
    mm = &task->mm();

    Duration spent = 0;

    Pte *pte = mm->pageTable().find(vpn);
    if (!pte || !pte->protNone())
        return spent; // resolved concurrently

    // Restore accessibility.
    pte->flags &= static_cast<std::uint8_t>(~kPteProtNone);

    // Migration decision: second fault in a row from the same
    // remote node migrates the page there.
    const NodeId here = kernel_.topo().nodeOf(core);
    const NodeId page_node = mm->frames().nodeOf(pte->pfn);
    if (here == page_node) {
        lastRemoteFault_.erase(vpn);
        return spent;
    }
    auto it = lastRemoteFault_.find(vpn);
    if (!twoTouch_ ||
        (it != lastRemoteFault_.end() && it->second == here)) {
        if (it != lastRemoteFault_.end())
            lastRemoteFault_.erase(it);
        // Migration must not proceed while any core may still write
        // through a stale translation: lazy policies gate the
        // migrating fault until every core has invalidated the
        // sampled page (paper 4.4). Non-migrating faults never wait.
        const Tick now = kernel_.now();
        const Tick ready = kernel_.policy()->numaSampleReadyAt(mm, vpn);
        if (ready > now)
            spent += ready - now;
        spent += migrator_.migrate(task, vpn, here);
    } else {
        lastRemoteFault_[vpn] = here;
    }
    return spent;
}

} // namespace latr
