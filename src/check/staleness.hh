/**
 * @file
 * The bounded-staleness oracle. The paper's §3/§4.2 argument is not
 * just the reuse invariant (InvariantChecker) but a *liveness* bound:
 * once a kernel operation invalidates translations in the page
 * tables, every TLB copy must die within the policy's contract —
 * immediately for synchronous policies, within one scheduler epoch
 * for LATR. This oracle mirrors TLB contents, lets the kernel mark
 * every invalidated-in-page-tables range with its contract deadline,
 * and flags any translation that is removed late — or never.
 */

#ifndef LATR_CHECK_STALENESS_HH_
#define LATR_CHECK_STALENESS_HH_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hw/tlb.hh"
#include "mem/frame_allocator.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace latr
{

/**
 * Watches TLBs and enforces each policy's staleness contract.
 *
 * Usage: attach to every TLB (addListener) and the frame allocator,
 * attach the event queue as the clock, and have the kernel call
 * notePageTableInvalidation() after each page-table-invalidating
 * operation with the pages it changed and `deadline = op completion
 * + contract.epochBound`.
 * Only translations still cached somewhere at that point are marked;
 * each mark must be cleared (by the TLB removal the policy owes us)
 * no later than its deadline. auditAt() catches marks that were
 * never cleared at all.
 */
class StalenessOracle : public TlbListener, public FrameListener
{
  public:
    /**
     * @param strict panic on the first violation instead of
     *        counting (useful under a debugger).
     */
    explicit StalenessOracle(bool strict = false);

    /** Use @p queue's clock to timestamp removals. */
    void attachClock(const EventQueue *queue) { clock_ = queue; }

    /** Override the clock (white-box unit tests). */
    void
    setNow(Tick now)
    {
        manualNow_ = now;
        useManualNow_ = true;
    }

    /// @name TlbListener
    /// @{
    void onTlbInsert(CoreId core, Vpn vpn, Pfn pfn, Pcid pcid) override;
    void onTlbRemove(CoreId core, Vpn vpn, Pfn pfn, Pcid pcid) override;
    /// @}

    /// @name FrameListener
    /// @{
    void onFrameAlloc(Pfn pfn) override;
    void onFrameFree(Pfn pfn) override;
    /// @}

    /**
     * The kernel changed the translations @p changed, (vpn, pfn)
     * pairs of @p pcid's space (a 2 MiB mapping by its base vpn and
     * pfn, as its TLB entry holds them); the policy promised every
     * TLB copy dies by @p deadline. Marks each entry still mirrored
     * on a core in @p cores that maps one of those vpns to its pfn,
     * and nothing else: an entry the operation did not change, such
     * as a stale one an earlier operation still owes, keeps that
     * operation's promise. Re-marking keeps the earliest deadline
     * (an older, stricter promise stays binding).
     *
     * @param op short operation label for violation reports
     *        (e.g. "munmap"); must outlive the oracle (static).
     */
    void notePageTableInvalidation(
        Pcid pcid, MmId mm, std::vector<std::pair<Vpn, Pfn>> changed,
        const CpuMask &cores, Tick deadline, const char *op);

    /**
     * End-of-run audit: any mark still pending past its deadline at
     * @p now means the policy never invalidated the translation.
     */
    void auditAt(Tick now);

    /** Marks currently pending (translations awaiting removal). */
    std::uint64_t pendingMarks() const { return pendingMarks_; }

    /** Total TLB entries currently mirrored. */
    std::uint64_t mirroredEntries() const { return entries_; }

    /** Total violations observed. */
    std::uint64_t violations() const { return violations_; }

    /** Human-readable description of the first violation, if any. */
    const std::string &firstViolation() const { return first_; }

    /** Drop all state (mirrors, marks, violation log). */
    void reset();

  private:
    struct Key
    {
        Vpn vpn;
        Pcid pcid;

        bool
        operator==(const Key &o) const
        {
            return vpn == o.vpn && pcid == o.pcid;
        }
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            return std::hash<std::uint64_t>()(
                (static_cast<std::uint64_t>(k.pcid) << 48) ^ k.vpn);
        }
    };

    /** One invalidated-in-page-tables translation awaiting removal. */
    struct Mark
    {
        Tick deadline;
        Pfn pfn;
        MmId mm;
        const char *op;
    };

    using Mirror = std::unordered_map<Key, Pfn, KeyHash>;
    using Marks = std::unordered_map<Key, Mark, KeyHash>;

    Tick now() const;
    void growTo(CoreId core);
    void place(CoreId core, const Key &k, const Mark &m);
    void clearMark(CoreId core, Marks::iterator it);
    void violation(std::string what);

    bool strict_;
    const EventQueue *clock_ = nullptr;
    Tick manualNow_ = 0;
    bool useManualNow_ = false;

    std::vector<Mirror> mirrors_; // per core
    std::vector<Marks> marks_;    // per core
    std::unordered_map<Pfn, unsigned> markedPfns_;

    std::uint64_t entries_ = 0;
    std::uint64_t pendingMarks_ = 0;
    std::uint64_t violations_ = 0;
    std::string first_;
};

} // namespace latr

#endif // LATR_CHECK_STALENESS_HH_
