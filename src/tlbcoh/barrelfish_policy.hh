/**
 * @file
 * Barrelfish-style translation coherence (Baumann et al., SOSP'09):
 * shootdown requests travel over per-core message channels (cache
 * lines) instead of IPIs, so remote cores take no interrupt — they
 * observe the message at their next kernel poll point. The initiator
 * still waits for every acknowledgment, so the mechanism remains
 * synchronous (the paper's table 2 row). Only the transport differs
 * from Linux: frees, samples and sync operations take the base
 * class's paths over shootdown().
 */

#ifndef LATR_TLBCOH_BARRELFISH_POLICY_HH_
#define LATR_TLBCOH_BARRELFISH_POLICY_HH_

#include "sim/rng.hh"
#include "tlbcoh/policy.hh"

namespace latr
{

/** Message-passing shootdowns without remote interrupts. */
class BarrelfishPolicy : public TlbCoherencePolicy
{
  public:
    explicit BarrelfishPolicy(PolicyEnv env);

    const char *name() const override { return "Barrelfish"; }
    PolicyKind kind() const override { return PolicyKind::Barrelfish; }
    PolicyCapabilities capabilities() const override;

  protected:
    /**
     * The message transport in place of IPIs: write one channel
     * line per target, each target applies the invalidation at its
     * next poll point (uniform delay in [0, bfPollWindow]), ACKs
     * return as cache-line transfers, initiator waits for all.
     */
    Duration shootdown(AddressSpace *mm, CoreId initiator,
                       const CpuMask &targets, Vpn start_vpn,
                       Vpn end_vpn, std::uint64_t npages,
                       Tick start) override;

  private:
    Rng rng_;
};

} // namespace latr

#endif // LATR_TLBCOH_BARRELFISH_POLICY_HH_
