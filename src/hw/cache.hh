/**
 * @file
 * A per-socket last-level-cache model, set-associative with LRU
 * replacement. It exists to reproduce table 4 of the paper: the LLC
 * miss-ratio difference between Linux (whose IPI handlers pollute
 * remote caches) and LATR (whose states occupy a small, bounded LLC
 * footprint). Accesses are tagged by origin so the application miss
 * ratio can be reported separately from kernel/interrupt traffic.
 */

#ifndef LATR_HW_CACHE_HH_
#define LATR_HW_CACHE_HH_

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace latr
{

/** Who issued a cache access (for attribution in stats). */
enum class CacheAccessOrigin
{
    App,        ///< workload loads/stores
    Interrupt,  ///< IPI handler footprint
    LatrSweep,  ///< LATR state-sweep reads
};

/**
 * One socket's LLC. Addresses are cache-line indices (byte address
 * divided by the line size); the model tracks only presence, not
 * data.
 */
class LlcCache
{
  public:
    /**
     * @param size_bytes total capacity.
     * @param ways associativity, at most 32.
     * @param line_bytes cache-line size.
     */
    LlcCache(std::uint64_t size_bytes, unsigned ways, unsigned line_bytes);

    /**
     * Access one line. Misses install the line, evicting LRU.
     * @param line_addr line index (already divided by line size).
     * @return true on hit.
     */
    bool access(std::uint64_t line_addr, CacheAccessOrigin origin);

    /** True if @p line_addr is resident (no LRU side effects). */
    bool probe(std::uint64_t line_addr) const;

    /**
     * Intel CAT-style way partitioning (the paper's section 7
     * hardware support): reserve @p ways ways of every set for
     * LatrSweep-origin fills; all other origins allocate in the
     * remaining ways. Hits are unaffected. Zero (default) disables
     * partitioning.
     */
    void setLatrReservedWays(unsigned ways);

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }
    unsigned lineBytes() const { return lineBytes_; }

    /// @name Stats (per origin: App=0, Interrupt=1, LatrSweep=2)
    /// @{
    std::uint64_t hits(CacheAccessOrigin origin) const;
    std::uint64_t misses(CacheAccessOrigin origin) const;
    /** Application miss ratio in [0, 1]. */
    double appMissRatio() const;
    void resetStats();
    /// @}

  private:
    /** Read only where its way's valid bit is set. */
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
    };

    /**
     * Bit w of @c valid is set once way w holds a line. A set's
     * ways are the @c block'th run of ways_ lines in lines_; the
     * block exists once the set has been accessed.
     */
    struct SetState
    {
        std::uint32_t valid;
        std::uint32_t block;
    };

    unsigned setOf(std::uint64_t line_addr) const;

    unsigned ways_;
    unsigned latrWays_ = 0; // CAT reservation for LATR states
    unsigned lineBytes_;
    unsigned sets_;
    std::uint64_t useClock_ = 0;
    /**
     * One block of ways_ lines per set accessed so far, in the order
     * of first access: it grows with the sets a run touches, not
     * with the cache's size, and every line in it is initialised.
     */
    std::vector<Line> lines_;
    std::vector<SetState> state_; // per set

    std::uint64_t hits_[3] = {0, 0, 0};
    std::uint64_t misses_[3] = {0, 0, 0};
};

} // namespace latr

#endif // LATR_HW_CACHE_HH_
