/**
 * @file
 * Predictive TLB coherence: send shootdown IPIs only to *predicted*
 * sharers and let TLB probes (Tlb::probePfn, the probes the coherence
 * checker marks stale translations with) catch mispredictions.
 *
 * A free operation snapshots its candidate set (the mm's residency
 * mask minus the initiator), asks the hashed-perceptron
 * SharerPredictor for the sharer subset, and IPIs only that subset —
 * the op returns after the predicted shootdown, like Linux but with
 * a smaller fan-out. Frames and the virtual range are *not* released
 * yet: a pooled VerifyEvent fires one scheduler epoch later, probes
 * every candidate's TLB for the freed (vpn → pfn) translations, and
 * either confirms the prediction — releasing frames and VA, training
 * the predictor positive — or detects a stale hit, issues the
 * full-mask fallback shootdown, and trains on the miss. Correctness therefore never depends on
 * prediction accuracy: a stale translation dies at latest one epoch
 * plus one fallback round-trip after the op, which is exactly the
 * policy's staleness contract.
 *
 * AutoNUMA samples take the base class's synchronous full-mask path:
 * they gate migration faults on full coherence, and keeping them
 * Linux's spares numaSampleReadyAt from learning about pending
 * verifications.
 */

#ifndef LATR_TLBCOH_PREDICTIVE_POLICY_HH_
#define LATR_TLBCOH_PREDICTIVE_POLICY_HH_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "tlbcoh/policy.hh"
#include "tlbcoh/sharer_predictor.hh"

namespace latr
{

/** The fifth policy: perceptron-predicted sharer shootdowns. */
class PredictivePolicy : public TlbCoherencePolicy
{
  public:
    explicit PredictivePolicy(PolicyEnv env);

    const char *name() const override { return "PredictivePolicy"; }
    PolicyKind kind() const override { return PolicyKind::Predictive; }
    PolicyCapabilities capabilities() const override;
    StalenessContract stalenessContract() const override;

    Duration onFreePages(FreeOpContext ctx, Tick start) override;

    /** The predictor, exposed for white-box tests. */
    const SharerPredictor &predictor() const { return predictor_; }

  private:
    /**
     * One deferred verification pass: probe every candidate core's
     * TLB for the op's freed translations, confirm or fall back.
     * Pooled and reused (freeVerifyEvents_), like LatrPolicy's
     * ReclaimPassEvent and IpiFabric's DeliveryEvent.
     */
    class VerifyEvent : public Event
    {
      public:
        void process() override;
        const char *name() const override { return "pred.verify"; }

      private:
        friend class PredictivePolicy;

        PredictivePolicy *policy = nullptr;

        // Payload of the free operation being verified.
        AddressSpace *mm = nullptr;
        Vpn startVpn = 0;
        Vpn endVpn = 0;
        std::uint64_t npages = 0;
        FreedFrames frames;
        Addr vaStart = 0;
        Addr vaEnd = 0;
        CpuMask candidates;
        CpuMask predicted;
        /** Candidates that reported live translations at IPI time. */
        CpuMask ackSharers;
        SharerFeatures features;
        CoreId owner = 0;
    };

    /** Probe @p core for any of @p ev's freed translations. */
    bool coreHoldsStale(CoreId core, const VerifyEvent *ev) const;

    void runVerify(VerifyEvent *ev);
    void scheduleVerify(VerifyEvent *ev, Tick at);
    VerifyEvent *acquireVerifyEvent();

    /** Longest a full-mask fallback shootdown can take, from cost. */
    Duration fallbackRoundTripBound() const;

    SharerPredictor predictor_;

    std::vector<std::unique_ptr<VerifyEvent>> verifyEvents_;
    std::vector<VerifyEvent *> freeVerifyEvents_;

    Counter &ipisSavedCtr_;
    Counter &mispredictsCtr_;
    Counter &fallbackShootdownsCtr_;
    Counter &verifiesCtr_;
};

} // namespace latr

#endif // LATR_TLBCOH_PREDICTIVE_POLICY_HH_
