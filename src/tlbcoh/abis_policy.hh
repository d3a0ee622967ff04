/**
 * @file
 * ABIS (Amit, USENIX ATC'17): the state-of-the-art software baseline
 * the paper compares against. ABIS tracks which cores actually share
 * each page via page-table access bits and sends shootdown IPIs only
 * to those cores — often none, when a page was touched by a single
 * core (Apache's per-request file mappings). The tracking itself
 * costs extra work on every fault and an access-bit harvest on every
 * unmap, which is why ABIS *loses* to Linux at low core counts
 * (figure 9) while winning at high ones. Shootdowns remain fully
 * synchronous.
 */

#ifndef LATR_TLBCOH_ABIS_POLICY_HH_
#define LATR_TLBCOH_ABIS_POLICY_HH_

#include "tlbcoh/policy.hh"

namespace latr
{

/** Access-bit-based sharing tracking; synchronous, reduced IPIs. */
class AbisPolicy : public TlbCoherencePolicy
{
  public:
    explicit AbisPolicy(PolicyEnv env);

    const char *name() const override { return "ABIS"; }
    PolicyKind kind() const override { return PolicyKind::Abis; }
    PolicyCapabilities capabilities() const override;

    Duration onFreePages(FreeOpContext ctx, Tick start) override;

    Duration onNumaSample(AddressSpace *mm, CoreId initiator, Vpn vpn,
                          Tick start) override;

    Duration minorFaultOverhead() const override;

  private:
    Counter &shootdownsAvoidedCtr_;
};

} // namespace latr

#endif // LATR_TLBCOH_ABIS_POLICY_HH_
