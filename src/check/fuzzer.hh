/**
 * @file
 * The replayable shrinking fuzzer: generates random op-scripts,
 * replays each under all five policies with the coherence checker
 * on, and on any invariant / staleness / differential failure
 * minimizes the script with greedy delta debugging, dumps it (plus
 * seed) to disk, and re-runs the failing policy with src/trace/ capture so
 * the failure arrives with a timeline. Everything it writes replays
 * with `latrsim_check --replay`.
 */

#ifndef LATR_CHECK_FUZZER_HH_
#define LATR_CHECK_FUZZER_HH_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/executor.hh"
#include "check/script.hh"

namespace latr
{

/**
 * Replay @p script under every policy. @return an empty string when
 * clean and equivalent, else a description of the first failure
 * (checker violation or cross-policy divergence).
 */
std::string checkScript(const Script &script, const ExecOptions &opt);

/**
 * The failure class of a checkScript() reason ("staleness",
 * "invariant", "differential", or "" for a clean run). The minimizer
 * pins this so shrinking cannot slide onto an unrelated failure.
 */
std::string failureCategory(const std::string &reason);

/**
 * Greedy delta debugging: repeatedly drop op chunks (halving the
 * chunk size down to single ops) while @p still_fails holds, capped
 * at @p max_evals predicate evaluations. @return the smallest
 * still-failing script found.
 */
Script minimizeScript(const Script &script,
                      const std::function<bool(const Script &)>
                          &still_fails,
                      unsigned max_evals = 200);

/** Knobs for runFuzz(). */
struct FuzzOptions
{
    unsigned iterations = 100;
    std::uint64_t baseSeed = 1;
    GenOptions gen;
    /** Alternate PCID on/off across iterations. */
    bool mixPcid = true;
    /** Directory failing scripts and traces are dumped into. */
    std::string outDir = ".";
    /** Stop at the first failure instead of fuzzing on. */
    bool stopOnFailure = true;
    /** Cap on minimizer predicate evaluations per failure. */
    unsigned minimizeBudget = 120;
    ExecOptions exec;
    /** Per-iteration progress callback (may be empty). */
    std::function<void(unsigned, std::uint64_t)> onIteration;
};

/** One minimized, replayable failure. */
struct FuzzFailure
{
    std::uint64_t seed = 0;
    std::string reason;
    std::string scriptPath;
    std::string minScriptPath;
    std::string tracePath;
    /** Ops before and after minimization. */
    std::size_t originalOps = 0;
    std::size_t minimizedOps = 0;
};

/** Outcome of a fuzzing campaign. */
struct FuzzResult
{
    unsigned iterations = 0;
    std::vector<FuzzFailure> failures;

    bool clean() const { return failures.empty(); }
};

/** Run a fuzzing campaign (see FuzzOptions). */
FuzzResult runFuzz(const FuzzOptions &opt);

} // namespace latr

#endif // LATR_CHECK_FUZZER_HH_
