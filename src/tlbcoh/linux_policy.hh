/**
 * @file
 * The stock Linux 4.10 TLB-shootdown baseline (paper section 2.1):
 * every page-table change triggers a synchronous IPI broadcast to all
 * cores where the mm is resident; the initiator stalls until every
 * ACK arrives; freed pages return to the allocator only then.
 * Includes the two stock optimizations the paper describes: batched
 * invalidation (a single IPI covers the whole range, and ranges past
 * the 33-entry threshold become full flushes) and lazy idle-mode TLBs
 * (idle cores drop out of the residency mask — modeled in the
 * scheduler).
 *
 * All of that is TlbCoherencePolicy's default behaviour, which the
 * other policies reuse for their synchronous operations and
 * fallbacks; this class only names it.
 */

#ifndef LATR_TLBCOH_LINUX_POLICY_HH_
#define LATR_TLBCOH_LINUX_POLICY_HH_

#include "tlbcoh/policy.hh"

namespace latr
{

/** Synchronous IPI shootdowns, as in Linux 4.10. */
class LinuxPolicy : public TlbCoherencePolicy
{
  public:
    using TlbCoherencePolicy::TlbCoherencePolicy;

    const char *name() const override { return "Linux"; }
    PolicyKind kind() const override { return PolicyKind::LinuxSync; }

    /** Table 2's Linux row is the all-default one. */
    PolicyCapabilities capabilities() const override { return {}; }
};

} // namespace latr

#endif // LATR_TLBCOH_LINUX_POLICY_HH_
