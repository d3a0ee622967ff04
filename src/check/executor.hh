/**
 * @file
 * The differential executor: replays one op-script (script.hh) on a
 * fresh simulated machine under a given coherence policy, audits the
 * machine's coherence checker (the reuse invariant and the
 * bounded-staleness contract), and digests the final architectural
 * state. Replaying the same
 * script under all five policies and diffing the digests mechanises
 * the paper's §3 equivalence claim: policies may differ in *when*
 * TLB entries die, never in what the page tables, VMA sets, or the
 * allocator balance say afterwards.
 */

#ifndef LATR_CHECK_EXECUTOR_HH_
#define LATR_CHECK_EXECUTOR_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/script.hh"
#include "tlbcoh/policy.hh"

namespace latr
{

/** Knobs for runScript(). */
struct ExecOptions
{
    /** Record a Chrome trace of the run (see tracePath). */
    bool trace = false;
    std::string tracePath;
    /** Fault injection: break LATR's sweep (checker must notice). */
    bool injectSkipLatrSweep = false;
    /**
     * Fault injection: force PredictivePolicy to predict the empty
     * sharer set on every free. The verification pass's TLB probes
     * must absorb every miss — runs stay staleness-clean, unlike
     * injectSkipLatrSweep.
     */
    bool injectMispredictSharers = false;
};

/** Outcome of one script run under one policy. */
struct RunResult
{
    PolicyKind policy = PolicyKind::LinuxSync;

    /// @name Checker verdicts, per half
    /// @{
    std::uint64_t invariantViolations = 0;
    std::uint64_t stalenessViolations = 0;
    std::string firstInvariant;
    std::string firstStaleness;
    /// @}

    /// @name Architectural state after the final quiesce
    /// @{
    /**
     * Per live slot, a position-independent digest of its pages
     * (one char each: '.' absent, 'w'/'r' mapped, 'c' CoW, 'W'/'R'
     * huge-mapped) and its VMA cover, all relative to the region
     * base so policy-dependent VA placement (LATR's holdback shifts
     * mmap addresses) cancels out. Accessed/Dirty PTE bits are
     * excluded: hit-vs-refault paths set them differently without
     * architectural meaning. The NUMA-hint prot-none bit is excluded
     * for the same reason: it is advisory sampling state, and a
     * lazy policy legitimately drops a pending hint when a
     * VA-mutating op (mremap) races its deferred PTE clear.
     */
    std::map<unsigned, std::string> regionSig;
    /** Per process, pages currently present in its page table. */
    std::vector<std::uint64_t> mmPresentPages;
    std::uint64_t allocatedFrames = 0;
    std::uint64_t heldBackBytes = 0;
    /// @}

    /** LATR only: how often the ring-full IPI fallback fired. */
    std::uint64_t latrFallbackIpis = 0;

    bool
    clean() const
    {
        return invariantViolations == 0 && stalenessViolations == 0;
    }
};

/** A cross-policy comparison verdict. */
struct DiffResult
{
    bool equivalent = true;
    /** Human-readable description of the first divergence. */
    std::string divergence;
};

/** Replay @p script under @p policy on a fresh machine. */
RunResult runScript(const Script &script, PolicyKind policy,
                    const ExecOptions &opt = {});

/**
 * Diff two runs' architectural state (checker verdicts are judged
 * separately via clean()).
 */
DiffResult diffStates(const RunResult &a, const RunResult &b);

/**
 * Run @p script under all five policies and diff every run against
 * the LinuxSync baseline. @return per-policy results (index order:
 * LinuxSync, Latr, Abis, Barrelfish, Predictive) plus the first
 * divergence.
 */
std::vector<RunResult> runDifferential(const Script &script,
                                       const ExecOptions &opt,
                                       DiffResult *diff);

/** All five policy kinds, baseline first. */
const std::vector<PolicyKind> &allPolicyKinds();

} // namespace latr

#endif // LATR_CHECK_EXECUTOR_HH_
