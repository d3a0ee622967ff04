/**
 * @file
 * Hashed-perceptron sharer prediction (the COALESCE predictor
 * pattern applied to translation coherence). For each candidate core
 * of a free operation the predictor sums small saturating weights
 * from a handful of feature tables — mm id, VMA id, the op's
 * recent-accessor CpuMask words, the initiating core, and the
 * candidate's membership in the recent-accessor mask — and predicts
 * "sharer" when the sum is non-negative. Weights start at zero, so a
 * cold predictor predicts every candidate (full mask: safe, no
 * savings) and learns the non-sharers as confirmed outcomes arrive.
 *
 * Everything here is a pure function of the feature vector and the
 * training history, and PredictivePolicy trains only from events,
 * which run in (tick, seq) order — so predictions are deterministic.
 */

#ifndef LATR_TLBCOH_SHARER_PREDICTOR_HH_
#define LATR_TLBCOH_SHARER_PREDICTOR_HH_

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace latr
{

/** Feature vector of one free operation, shared by all candidates. */
struct SharerFeatures
{
    MmId mm = 0;
    /** Start address of the VMA containing the op (0 if none). */
    std::uint64_t vmaId = 0;
    /** Recent-accessor mask words (union of the pages' sharer sets). */
    std::uint64_t accessorWords[2] = {0, 0};
    CoreId initiator = 0;
};

/**
 * The per-candidate hashed perceptron. predict() is const and
 * allocation-free; train() saturates weights in [-kWeightMax-1,
 * kWeightMax] and updates only when the prediction was wrong or the
 * sum landed inside the training margin (the usual perceptron rule).
 */
class SharerPredictor
{
  public:
    SharerPredictor();

    /**
     * Predict the sharer subset of @p candidates for @p f. A zero
     * weight sum predicts "sharer", so an untrained predictor
     * returns @p candidates unchanged.
     */
    CpuMask predict(const SharerFeatures &f,
                    const CpuMask &candidates) const;

    /**
     * Train on a confirmed outcome: @p actual is the subset of
     * @p candidates that really held translations (predicted cores
     * report via their IPI ack; unpredicted sharers surface as
     * verification stale hits).
     */
    void train(const SharerFeatures &f, const CpuMask &candidates,
               const CpuMask &actual);

    /** Weight sum for one candidate (exposed for tests). */
    int weightSum(const SharerFeatures &f, CoreId candidate) const;

  private:
    /** Feature tables: mm, vma, initiator, accessor words, member. */
    static constexpr unsigned kTables = 5;
    /** Entries per table (power of two). */
    static constexpr unsigned kTableSize = 1024;
    /** Weights saturate at +kWeightMax / -(kWeightMax + 1). */
    static constexpr int kWeightMax = 31;
    /** Train while |sum| is within this margin even when correct. */
    static constexpr int kTrainMargin = 8;

    /** Table indices for (features, candidate), in table order. */
    void indicesOf(const SharerFeatures &f, CoreId candidate,
                   std::uint32_t idx[kTables]) const;

    std::vector<std::int8_t> weights_; // kTables * kTableSize
};

} // namespace latr

#endif // LATR_TLBCOH_SHARER_PREDICTOR_HH_
