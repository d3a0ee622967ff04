/**
 * @file
 * Page migration: move a page's backing frame to another NUMA node.
 * The migration itself follows Linux's migrate_pages() shape — unmap
 * via try_to_unmap (with its own synchronous shootdown), copy, remap
 * — under every policy; what LATR removes is the *sampling*
 * shootdown (change_prot_numa), which costs 5.8%–21.1% of the whole
 * migration (paper section 2.1).
 */

#ifndef LATR_NUMA_MIGRATION_HH_
#define LATR_NUMA_MIGRATION_HH_

#include "os/kernel.hh"
#include "sim/types.hh"

namespace latr
{

/** Moves pages between NUMA nodes. */
class PageMigrator
{
  public:
    explicit PageMigrator(Kernel &kernel);

    /**
     * Migrate @p vpn of @p task's mm to @p target.
     * @return CPU time spent in the fault context; zero latency and
     *         no effect if the page is gone or memory is exhausted
     *         (migration aborts, as in Linux).
     */
    Duration migrate(Task *task, Vpn vpn, NodeId target);

    /**
     * Migrate @p vpn, which must be mapped to a frame other than
     * @p frame, onto that already-allocated frame (refcount 1, owned
     * by the caller until this returns). Used by the compaction
     * daemon to move pages into chosen low frames.
     */
    Duration migrateToFrame(Task *task, Vpn vpn, Pfn frame);

    std::uint64_t migrations() const { return migrations_; }

  private:
    Kernel &kernel_;
    std::uint64_t migrations_ = 0;
};

} // namespace latr

#endif // LATR_NUMA_MIGRATION_HH_
