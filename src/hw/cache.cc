#include "hw/cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace latr
{

LlcCache::LlcCache(std::uint64_t size_bytes, unsigned ways,
                   unsigned line_bytes)
    : ways_(ways), lineBytes_(line_bytes)
{
    if (ways == 0 || line_bytes == 0)
        fatal("LLC needs nonzero ways and line size");
    if (ways > 32)
        fatal("LLC supports at most 32 ways, not %u", ways);
    std::uint64_t lines = size_bytes / line_bytes;
    if (lines < ways)
        fatal("LLC smaller than one set");
    sets_ = static_cast<unsigned>(lines / ways);
    state_.assign(sets_, SetState{0, 0});
}

unsigned
LlcCache::setOf(std::uint64_t line_addr) const
{
    // Multiplicative hashing spreads synthetic workload addresses
    // across sets the way physical indexing would.
    return static_cast<unsigned>(
        (line_addr * 0x9e3779b97f4a7c15ULL >> 32) % sets_);
}

bool
LlcCache::access(std::uint64_t line_addr, CacheAccessOrigin origin)
{
    SetState &st = state_[setOf(line_addr)];
    if (st.valid == 0) {
        // An unfilled set holds nothing, so this access will fill it:
        // append its block now.
        st.block = static_cast<std::uint32_t>(lines_.size() / ways_);
        lines_.resize(lines_.size() + ways_);
    }
    Line *base = lines_.data() + static_cast<std::size_t>(st.block) * ways_;
    ++useClock_;

    // Hits are partition-agnostic; only fills honor the CAT mask.
    // Testing each way's bit, rather than walking the set bits, keeps
    // the tag loads independent of the mask's, so they overlap.
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = base[w];
        if ((st.valid >> w & 1) && line.tag == line_addr) {
            line.lastUse = useClock_;
            ++hits_[static_cast<int>(origin)];
            return true;
        }
    }

    // Victim selection within the origin's way partition: the lowest
    // invalid way, else the least recently used one.
    unsigned first = 0;
    unsigned last = ways_; // exclusive
    if (latrWays_ > 0 && latrWays_ < ways_) {
        if (origin == CacheAccessOrigin::LatrSweep)
            last = latrWays_;
        else
            first = latrWays_;
    }
    const std::uint32_t part =
        static_cast<std::uint32_t>((1ULL << last) - (1ULL << first));
    unsigned victim = first;
    if (const std::uint32_t empty = part & ~st.valid) {
        victim = std::countr_zero(empty);
        st.valid |= 1u << victim;
    } else {
        for (unsigned w = first + 1; w < last; ++w)
            if (base[w].lastUse < base[victim].lastUse)
                victim = w;
    }

    ++misses_[static_cast<int>(origin)];
    base[victim].tag = line_addr;
    base[victim].lastUse = useClock_;
    return false;
}

void
LlcCache::setLatrReservedWays(unsigned ways)
{
    if (ways >= ways_)
        fatal("CAT reservation must leave ways for other traffic");
    latrWays_ = ways;
}

bool
LlcCache::probe(std::uint64_t line_addr) const
{
    const SetState &st = state_[setOf(line_addr)];
    if (st.valid == 0)
        return false; // no block yet
    const Line *base =
        lines_.data() + static_cast<std::size_t>(st.block) * ways_;
    for (unsigned w = 0; w < ways_; ++w)
        if ((st.valid >> w & 1) && base[w].tag == line_addr)
            return true;
    return false;
}

std::uint64_t
LlcCache::hits(CacheAccessOrigin origin) const
{
    return hits_[static_cast<int>(origin)];
}

std::uint64_t
LlcCache::misses(CacheAccessOrigin origin) const
{
    return misses_[static_cast<int>(origin)];
}

double
LlcCache::appMissRatio() const
{
    const std::uint64_t h = hits_[0];
    const std::uint64_t m = misses_[0];
    if (h + m == 0)
        return 0.0;
    return static_cast<double>(m) / static_cast<double>(h + m);
}

void
LlcCache::resetStats()
{
    for (int i = 0; i < 3; ++i) {
        hits_[i] = 0;
        misses_[i] = 0;
    }
}

} // namespace latr
