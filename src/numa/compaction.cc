#include "numa/compaction.hh"

#include <utility>

#include "numa/migration.hh"

namespace latr
{

CompactionDaemon::CompactionDaemon(Kernel &kernel, NodeId node,
                                   Duration scan_interval,
                                   unsigned moves_per_round)
    : ScanDaemon(kernel, scan_interval, "compact-round"), node_(node),
      movesPerRound_(moves_per_round)
{
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
    for (Process *process : tracked_)
        forEachPresentPage(process->mm(), [&](Vpn, const Pte &pte) {
            if (frames.nodeOf(pte.pfn) == node_) {
                ++total;
                high += pte.pfn >= mark;
            }
            return true;
        });
    return total ? static_cast<double>(high) / total : 0.0;
}

void
CompactionDaemon::scan()
{
    const Pfn mark = highWatermark();
    std::vector<PendingMove> moves;
    Duration sample_cost = 0;

    for (Process *process : tracked_) {
        if (moves.size() >= movesPerRound_)
            break;
        Task *context = contextOf(process);
        if (!context)
            continue;
        const FrameAllocator &frames = kernel_.frames();
        const std::size_t room = movesPerRound_ - moves.size();
        std::vector<Vpn> candidates;
        forEachPresentPage(process->mm(), [&](Vpn vpn, const Pte &pte) {
            if (!pte.protNone() && frames.nodeOf(pte.pfn) == node_ &&
                pte.pfn >= mark)
                candidates.push_back(vpn);
            return candidates.size() < room;
        });
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
        context = contextOf(move.process);
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
