#include "numa/migration.hh"

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace latr
{

PageMigrator::PageMigrator(Kernel &kernel)
    : kernel_(kernel)
{
}

Duration
PageMigrator::migrate(Task *task, Vpn vpn, NodeId target)
{
    AddressSpace &mm = task->mm();
    FrameAllocator &frames = mm.frames();
    Pte *pte = mm.pageTable().find(vpn);
    if (!pte)
        return 0; // raced with unmap
    const Pfn old = pte->pfn;
    if (frames.nodeOf(old) == target)
        return 0; // already local

    const Pfn fresh = frames.alloc(target);
    if (fresh == kPfnInvalid)
        return 0; // target node full: abort, like Linux
    return migrateToFrame(task, vpn, fresh);
}

Duration
PageMigrator::migrateToFrame(Task *task, Vpn vpn, Pfn fresh)
{
    AddressSpace &mm = task->mm();
    const Pte *pte = mm.pageTable().find(vpn);
    if (!pte || pte->pfn == fresh)
        panic("migrateToFrame: vpn %llu is not mapped off the target",
              static_cast<unsigned long long>(vpn));

    const CostModel &cost = kernel_.cost();
    const CoreId core = task->core();
    const Tick begin = kernel_.now();

    // try_to_unmap: remove the translation and shoot it down
    // synchronously — migration cannot copy while any core can still
    // write the old frame. This shootdown exists under every policy;
    // LATR only removed the *sampling* one. The old frame returns to
    // the pool once the copy is done.
    const Pte saved = mm.pageTable().unmap(vpn);
    Duration spent = cost.migrateBase + cost.pteClearPerPage;
    spent += kernel_.syncInvalidate(
        mm, core, vpn, vpn, FreedFrames::page(vpn, saved.pfn),
        begin + spent, "migrate", /*release=*/true,
        cost.migrateCopyPerPage);

    // Copy and remap onto the target node.
    spent += cost.migrateCopyPerPage;
    mm.pageTable().map(vpn, fresh,
                       static_cast<std::uint8_t>(
                           saved.flags & ~(kPtePresent | kPteProtNone)));

    ++migrations_;
    kernel_.stats().counter("numa.migrations").inc();
    if (TraceRecorder *t = kernel_.tracer()) {
        if (t->enabled()) {
            const SpanId span = t->beginSpan(
                "numa", "numa.migrate", begin, core, mm.id(), vpn);
            t->endSpan(span, begin + spent);
        }
    }
    return spent;
}

} // namespace latr
