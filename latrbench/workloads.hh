/**
 * @file
 * The four benchmark workloads. Each round of a workload builds its
 * inputs from the seed (and, for fuzz, the round's input number), sets
 * up fresh machines, runs a timed part, and tears the machines down.
 * Every machine runs on the sequential engine: no workload touches
 * MachineConfig::simThreads, pinSimThreads or noFastpath.
 */

#ifndef LATRBENCH_WORKLOADS_HH_
#define LATRBENCH_WORKLOADS_HH_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "probe.hh"

namespace latrbench
{

/** What one round reports. Host times exclude the teardown. */
struct Round
{
    /** Host seconds before the timed part (inputs, machines, prefill). */
    double setupS = 0;
    /** Host seconds of the timed part. */
    double timedS = 0;
    /** Operations attempted and failed (see each workload). */
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::string firstFailure;
    /** Per-policy digests of the simulated outcome, by label. */
    std::vector<std::pair<std::string, std::uint64_t>> digests;
    /** Simulated results and workload counts, by metric name. */
    std::map<std::string, double> values;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Distinct inputs per seed; rounds cycle through them. */
    virtual std::uint64_t inputs() const { return 1; }

    /** The workload's parameters, as the body of a JSON object. */
    virtual std::string params() const = 0;

    /**
     * Run one round on inputs number @p input of the seed. Rounds with
     * equal inputs must simulate identically.
     */
    virtual Round run(std::uint64_t input) = 0;

    /**
     * Derive the values that need the round's machine tally (add them
     * to @p round.values), and append to @p problems every mechanism
     * the round failed to exercise.
     */
    virtual void judge(Round &round, const Tally &tally,
                       std::vector<std::string> *problems) const = 0;
};

/** Names accepted by makeWorkload(), in documentation order. */
const std::vector<std::string> &workloadNames();

/**
 * @return the workload called @p name, or nullptr for an unknown name.
 * @p inject_skip_latr_sweep breaks LATR's sweep in the fuzz
 * workload's machines (fault injection; the oracles must notice).
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       bool inject_skip_latr_sweep);

/**
 * Check every script of the fuzz pool under all five policies and
 * print the divergent ones. @return 0 when exactly the scripts the
 * fuzz workload excludes diverge, else 1.
 */
int verifyFuzzPool();

} // namespace latrbench

#endif // LATRBENCH_WORKLOADS_HH_
