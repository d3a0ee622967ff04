#include "numa/compaction.hh"

#include <algorithm>

#include "numa/migration.hh"
#include "sim/logging.hh"

namespace latr
{

CompactionDaemon::CompactionDaemon(Kernel &kernel, NodeId node,
                                   Duration scan_interval,
                                   unsigned moves_per_round)
    : kernel_(kernel), node_(node), scanInterval_(scan_interval),
      movesPerRound_(moves_per_round), roundEvent_(this)
{
}

CompactionDaemon::~CompactionDaemon()
{
    stop();
}

void
CompactionDaemon::track(Process *process)
{
    tracked_.push_back(process);
}

void
CompactionDaemon::start()
{
    if (running_)
        return;
    running_ = true;
    kernel_.queue().schedule(&roundEvent_,
                             kernel_.now() + scanInterval_);
}

void
CompactionDaemon::stop()
{
    if (!running_)
        return;
    running_ = false;
    if (roundEvent_.scheduled())
        kernel_.queue().deschedule(&roundEvent_);
}

Pfn
CompactionDaemon::highWatermark() const
{
    const std::uint64_t per_node = kernel_.frames().framesPerNode();
    return static_cast<Pfn>(node_) * per_node + per_node / 2;
}

double
CompactionDaemon::highFrameFraction() const
{
    const FrameAllocator &frames = kernel_.frames();
    const Pfn mark = highWatermark();
    std::uint64_t high = 0;
    std::uint64_t total = 0;
    for (Process *process : tracked_) {
        AddressSpace &mm = process->mm();
        for (const auto &kv : mm.vmas()) {
            const Vma &vma = kv.second;
            mm.pageTable().forEachPresent(
                pageOf(vma.start), pageOf(vma.end) - 1,
                [&](Vpn, Pte &pte) {
                    if (frames.nodeOf(pte.pfn) != node_)
                        return;
                    ++total;
                    if (pte.pfn >= mark)
                        ++high;
                });
        }
    }
    return total ? static_cast<double>(high) / total : 0.0;
}

void
CompactionDaemon::round()
{
    const Pfn mark = highWatermark();
    std::vector<PendingMove> moves;
    Duration sample_cost = 0;

    for (Process *process : tracked_) {
        if (moves.size() >= movesPerRound_)
            break;
        AddressSpace &mm = process->mm();
        Task *context = process->tasks().empty()
                            ? nullptr
                            : process->tasks().front();
        if (!context)
            continue;
        const FrameAllocator &frames = kernel_.frames();
        std::vector<Vpn> candidates;
        for (const auto &kv : mm.vmas()) {
            const Vma &vma = kv.second;
            mm.pageTable().forEachPresent(
                pageOf(vma.start), pageOf(vma.end) - 1,
                [&](Vpn vpn, Pte &pte) {
                    if (candidates.size() >=
                        movesPerRound_ - moves.size())
                        return;
                    if (pte.protNone())
                        return;
                    if (frames.nodeOf(pte.pfn) == node_ &&
                        pte.pfn >= mark)
                        candidates.push_back(vpn);
                });
            if (candidates.size() >= movesPerRound_ - moves.size())
                break;
        }
        // Phase 1: sample each candidate through the coherence
        // policy — no IPI under LATR; the first sweeping core does
        // the prot-none unmap (exactly the AutoNUMA recipe).
        for (Vpn vpn : candidates) {
            sample_cost += kernel_.numaSample(context, vpn);
            ++stats_.samples;
            moves.push_back({process, vpn});
        }
        kernel_.scheduler().chargeStolen(context->core(),
                                         sample_cost);
    }

    if (!moves.empty()) {
        // Phase 2 after every core's gate: the policy bound is one
        // tick interval (+ sweep slack) from now.
        const Tick complete_at = kernel_.now() +
                                 kernel_.cost().tickInterval +
                                 10 * kUsec;
        auto pending = std::move(moves);
        kernel_.queue().scheduleLambda(
            complete_at, [this, pending = std::move(pending)]() {
                completeMoves(pending);
            });
    }
    if (running_)
        kernel_.queue().schedule(&roundEvent_,
                                 kernel_.now() + scanInterval_);
}

void
CompactionDaemon::completeMoves(std::vector<PendingMove> moves)
{
    PageMigrator migrator(kernel_);
    FrameAllocator &frames = kernel_.frames();
    const Pfn mark = highWatermark();
    Duration spent = 0;
    Task *context = nullptr;

    for (const PendingMove &move : moves) {
        AddressSpace &mm = move.process->mm();
        context = move.process->tasks().empty()
                      ? nullptr
                      : move.process->tasks().front();
        if (!context) {
            ++stats_.aborts;
            continue;
        }
        Pte *pte = mm.pageTable().find(move.vpn);
        if (!pte || !pte->protNone()) {
            // The page vanished or got touched (hot page): leave it
            // alone, like kcompactd skipping busy pages.
            ++stats_.aborts;
            continue;
        }
        const Pfn target = frames.allocLowest(node_);
        if (target == kPfnInvalid || target >= mark ||
            target >= pte->pfn) {
            // No better frame available.
            if (target != kPfnInvalid)
                frames.put(target);
            ++stats_.aborts;
            continue;
        }
        // Restore accessibility, then move onto the chosen frame.
        pte->flags &= static_cast<std::uint8_t>(~kPteProtNone);
        spent += migrator.migrateToFrame(context, move.vpn, target);
        ++stats_.pagesMoved;
        kernel_.stats().counter("compaction.pages_moved").inc();
    }
    if (context)
        kernel_.scheduler().chargeStolen(context->core(), spent);
}

} // namespace latr
