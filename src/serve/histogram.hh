/**
 * @file
 * A fixed-bucket log-linear latency histogram (HdrHistogram-style):
 * the tail-latency instrument of the serving subsystem. record() is
 * allocation-free and branch-light — an index computation plus one
 * counter increment into a fixed array sized at construction — so it
 * can sit on the per-request hot path under PR 4's zero-allocation
 * discipline. Values are nanoseconds (any uint64 works); buckets are
 * exact (width 1) below kLinearMax and grow geometrically above it,
 * bounding the relative quantization error of every reported
 * percentile at 1/kSubBuckets (~1.6%).
 *
 * percentile() uses the inclusive nearest-rank definition — the value
 * v such that at least ceil(q * count) recorded samples are <= v —
 * matching Distribution::percentile exactly, so on small inputs with
 * values below kLinearMax the two instruments agree to the bit
 * (test_serve_histogram.cc locks this in).
 */

#ifndef LATR_SERVE_HISTOGRAM_HH_
#define LATR_SERVE_HISTOGRAM_HH_

#include <cstdint>
#include <vector>

namespace latr
{

/** The serving subsystem's log-linear latency histogram. */
class LatencyHistogram
{
  public:
    /** Sub-buckets per power-of-two bucket (quantization 1/64). */
    static constexpr unsigned kSubBuckets = 64;

    /** Values below this land in exact width-1 buckets. */
    static constexpr std::uint64_t kLinearMax = kSubBuckets;

    LatencyHistogram();

    /** Record one value (nanoseconds). Allocation-free. */
    void record(std::uint64_t value);

    void reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    double mean() const;

    /**
     * Value at quantile @p q in [0, 1]: the highest equivalent value
     * of the bucket holding the sample of inclusive nearest-rank
     * ceil(q * count). 0 when empty. For values < kLinearMax buckets
     * have width 1, so the result is exact.
     */
    std::uint64_t percentile(double q) const;

    /** Merge @p other into this histogram. */
    void merge(const LatencyHistogram &other);

    /**
     * FNV-1a digest over the bucket counts and the exact moments —
     * two histograms digest equal iff they recorded the same
     * multiset of (quantized) values. The record/replay tests
     * compare these.
     */
    std::uint64_t digest() const;

    /** Number of buckets (fixed at construction). */
    std::size_t bucketCount() const { return buckets_.size(); }

    /** Raw count of bucket @p i (for serialization and tests). */
    std::uint64_t bucketValue(std::size_t i) const
    {
        return buckets_[i];
    }

    /** Lowest value mapping to bucket @p i. */
    static std::uint64_t bucketLow(std::size_t i);

    /** Highest value mapping to bucket @p i. */
    static std::uint64_t bucketHigh(std::size_t i);

    /** Bucket index of @p value. */
    static std::size_t bucketOf(std::uint64_t value);

  private:
    // One power-of-two "major" bucket per leading-bit position above
    // the linear range, kSubBuckets minors each. 64-bit values need
    // (64 - log2(kSubBuckets)) majors on top of the linear range.
    static constexpr unsigned kLinearBits = 6; // log2(kSubBuckets)
    static constexpr unsigned kMajorBuckets = 64 - kLinearBits;
    static constexpr std::size_t kTotalBuckets =
        (1 + kMajorBuckets) * kSubBuckets;

    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    // Sum in nanoseconds; wraps only after ~580 simulated years of
    // accumulated latency, far beyond any run this simulator makes.
    std::uint64_t sum_ = 0;
};

} // namespace latr

#endif // LATR_SERVE_HISTOGRAM_HH_
