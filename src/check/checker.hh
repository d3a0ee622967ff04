/**
 * @file
 * The coherence checker: one listener on every TLB and the frame
 * allocator that checks both halves of the paper's correctness
 * argument.
 *
 * - Reuse (§4.2): no frame is freed or handed out again while a TLB
 *   on any core still maps it. The checker counts the TLB entries
 *   that map each frame from the TLBs' insert and remove reports.
 * - Staleness (§3): once the kernel changes a translation in the
 *   page tables, every TLB copy of it dies within the policy's
 *   StalenessContract: by the shootdown's last ACK for synchronous
 *   changes, one scheduler epoch later for LATR's lazy frees. The
 *   kernel reports each change with noteInvalidation(); the checker
 *   probes the TLBs of the cores that may cache it and marks each
 *   copy it finds with the deadline. A copy removed after its
 *   deadline, or still cached at an audit past it, is a violation.
 *
 * The checker keeps no copy of the TLBs: it probes them. Its state is
 * one record per frame (TLB entries and pending marks on it) and the
 * marks. Tests run millions of randomized operations under every
 * policy against it.
 */

#ifndef LATR_CHECK_CHECKER_HH_
#define LATR_CHECK_CHECKER_HH_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hw/tlb.hh"
#include "mem/frame_allocator.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "vm/flat_page_map.hh"

namespace latr
{

/** Watches TLBs and the allocator; counts violations of both halves. */
class CoherenceChecker : public TlbListener, public FrameListener
{
  public:
    /** @param clock timestamps TLB removals against mark deadlines. */
    explicit CoherenceChecker(const EventQueue &clock);

    CoherenceChecker(const CoherenceChecker &) = delete;
    CoherenceChecker &operator=(const CoherenceChecker &) = delete;

    /** Listen to @p tlb, core @p core's, and probe it when marking. */
    void attach(CoreId core, Tlb &tlb);

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
     * TLB copy dies by @p deadline. Marks each copy still cached on
     * a core in @p cores, and nothing else: an entry the operation
     * did not change, such as a stale one an earlier operation still
     * owes, keeps that operation's promise. Re-marking keeps the
     * earliest deadline (an older, stricter promise stays binding).
     *
     * @param op short operation label for violation reports
     *        (e.g. "munmap"); must outlive the checker (static).
     */
    void noteInvalidation(Pcid pcid, MmId mm,
                          std::span<const std::pair<Vpn, Pfn>> changed,
                          const CpuMask &cores, Tick deadline,
                          const char *op);

    /**
     * End-of-run audit: any mark still pending past its deadline at
     * @p now means the policy never invalidated the translation.
     */
    void auditAt(Tick now);

    /** Number of TLB entries (across all cores) mapping @p pfn. */
    unsigned tlbRefs(Pfn pfn) const;

    /** Marks currently pending (translations awaiting removal). */
    std::uint64_t pendingMarks() const { return marks_.size(); }

    /** Violations of both halves. */
    std::uint64_t
    violations() const
    {
        return reuse_.count + staleness_.count;
    }

    /** Human-readable description of the first violation, if any. */
    const std::string &firstViolation() const { return first_; }

    /// @name Per half: the reuse invariant and the staleness contract
    /// @{
    std::uint64_t reuseViolations() const { return reuse_.count; }
    const std::string &firstReuseViolation() const { return reuse_.first; }
    std::uint64_t stalenessViolations() const { return staleness_.count; }
    const std::string &
    firstStalenessViolation() const
    {
        return staleness_.first;
    }
    /// @}

    /** Forget every count, mark and violation. */
    void reset();

  private:
    struct Half
    {
        std::uint64_t count = 0;
        std::string first;
    };

    /** Per frame: TLB entries mapping it, and pending marks on them. */
    struct FrameRefs
    {
        unsigned tlb = 0;
        unsigned marked = 0;
    };

    /**
     * A changed translation still cached, awaiting its removal. The
     * default (no op) is the absent mark.
     */
    struct Mark
    {
        Tick deadline = 0;
        Pfn pfn = 0;
        MmId mm = 0;
        const char *op = nullptr;
    };

    void violation(Half &half, const std::string &what);

    const EventQueue &clock_;
    std::vector<const Tlb *> tlbs_; // per core
    FlatPageMap<FrameRefs> frames_;
    /** Keyed by markKey(core, vpn, pcid) (checker.cc). */
    FlatPageMap<Mark> marks_;
    Half reuse_;
    Half staleness_;
    std::string first_;
};

} // namespace latr

#endif // LATR_CHECK_CHECKER_HH_
