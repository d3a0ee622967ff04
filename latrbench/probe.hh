/**
 * @file
 * The benchmark's instruments, all outside the program under test:
 * host-time spans around the calls the harness makes, and a per-machine
 * harvest of the library's own counters and trace records.
 *
 * Every latr::Machine the process builds — the harness's own and the
 * five that each checkScript() builds internally — passes through the
 * link-time wrappers in probe.cc. The constructor wrapper times the
 * build and, while tracing is on, turns the machine's TraceRecorder on
 * and attaches counting TLB and frame listeners. The destructor
 * wrapper folds the dying machine's simulated time, event count,
 * oracle verdicts and (when traced) every named counter and trace
 * record into the current Tally.
 */

#ifndef LATRBENCH_PROBE_HH_
#define LATRBENCH_PROBE_HH_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "sim/stats.hh"
#include "tlbcoh/policy.hh"

namespace latrbench
{

/** Exact counts folded from the machines destroyed since resetTally(). */
struct Tally
{
    /** Sum of each machine's final simulated time (ns). */
    std::uint64_t simNs = 0;
    std::uint64_t events = 0;
    /** Reuse-invariant plus staleness-oracle violations. */
    std::uint64_t violations = 0;
    /** FNV-1a over (policy, final tick, events) per machine, in order. */
    std::uint64_t digest = 1469598103934665603ULL;
    /**
     * Traced machines only: stat counters and trace-record counts by
     * name, summed over machines, and the same per policy.
     */
    std::map<std::string, std::uint64_t> counts;
    std::map<latr::PolicyKind, std::map<std::string, std::uint64_t>>
        byPolicy;

    std::uint64_t
    count(const std::string &name) const
    {
        auto it = counts.find(name);
        return it == counts.end() ? 0 : it->second;
    }

    std::uint64_t policyCount(latr::PolicyKind kind,
                              const std::string &name) const;
};

/** Samples kept per span for percentiles (counts stay exact). */
constexpr std::size_t kSpanReservoir = std::size_t{1} << 16;

/** Process-wide instrument state (the harness is single-threaded). */
struct Probe
{
    /**
     * While set, machines built get tracing and counting listeners,
     * and the harness records its host-time spans.
     */
    bool tracing = false;
    /** Machine constructors run since process start. */
    std::uint64_t builds = 0;
    Tally tally;
    /** Host-time samples by span name (traced rounds only). */
    std::map<std::string, latr::Distribution> spans;

    /** Start a fresh tally (listener counts included). */
    void resetTally();

    /** Copy the counting listeners' totals into the tally. */
    void foldListenerCounts();

    /** The samples of span @p name, or nullptr while not tracing. */
    latr::Distribution *span(const std::string &name);
};

Probe &probe();

/**
 * Scoped host timer: records the elapsed time, multiplied by @p scale
 * (1 for seconds, 1e3 for ms, 1e9 for ns), into @p into on
 * destruction. A null @p into reads no clock at all.
 */
class Span
{
  public:
    Span(latr::Distribution *into, double scale)
        : into_(into), scale_(scale)
    {
        if (into_)
            start_ = std::chrono::steady_clock::now();
    }

    ~Span()
    {
        if (into_)
            into_->sample(
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count() *
                scale_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    latr::Distribution *into_;
    double scale_;
    std::chrono::steady_clock::time_point start_;
};

/** Seconds elapsed since @p start on the host clock. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** FNV-1a step over the eight bytes of @p v. */
std::uint64_t fnvMix(std::uint64_t h, std::uint64_t v);

} // namespace latrbench

#endif // LATRBENCH_PROBE_HH_
