// Ablation: where LATR sweeps. The paper sweeps at scheduler ticks
// AND at context switches ("whichever event happens first",
// section 4.1). Disabling the context-switch sweep isolates the
// ticks' contribution: on a switch-heavy, oversubscribed workload
// (the canneal profile), switch sweeps shorten the stale-entry
// window and spread the sweep work, at the price of more frequent
// sweeping.

#include <cstdio>

#include "bench_util.hh"
#include "machine/machine.hh"
#include "workload/parsec.hh"

using namespace latr;

namespace
{

struct SweepResult
{
    Duration runtime;
    std::uint64_t sweeps;
    std::uint64_t matches;
};

SweepResult
runCase(bool sweep_at_switch)
{
    MachineConfig cfg = MachineConfig::commodity2S16C();
    cfg.latrSweepAtContextSwitch = sweep_at_switch;
    Machine machine(cfg, PolicyKind::Latr);
    ParsecProfile profile = parsecProfile("canneal");
    profile.itersPerCore = 3000;
    // Give canneal some free traffic so sweeps have work to do.
    profile.madviseEvery = 16;
    profile.madvisePages = 8;
    ParsecResult r = runParsec(machine, profile, 16);
    SweepResult out;
    out.runtime = r.runtimeNs;
    out.sweeps = machine.stats().counterValue("latr.sweeps");
    out.matches = machine.stats().counterValue("latr.sweep_matches");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Args().parse(argc, argv);
    MachineConfig config = MachineConfig::commodity2S16C();
    bench::banner("Ablation: sweep sites",
                  "tick-only sweeps vs. tick+context-switch sweeps",
                  config);
    bench::paperExpectation(
        "section 4.1: the shootdown is performed at the scheduler "
        "tick or a context switch, whichever happens first");
    bench::rule();

    SweepResult both = runCase(true);
    SweepResult tick_only = runCase(false);

    std::printf("%-22s | %12s | %10s | %12s\n", "configuration",
                "runtime_ms", "sweeps", "matches");
    bench::rule();
    std::printf("%-22s | %12.2f | %10llu | %12llu\n",
                "ticks + switches", both.runtime / 1e6,
                static_cast<unsigned long long>(both.sweeps),
                static_cast<unsigned long long>(both.matches));
    std::printf("%-22s | %12.2f | %10llu | %12llu\n", "ticks only",
                tick_only.runtime / 1e6,
                static_cast<unsigned long long>(tick_only.sweeps),
                static_cast<unsigned long long>(tick_only.matches));
    bench::rule();
    bench::measuredHeadline(
        "switch sweeps add %.1fx sweep invocations on this "
        "switch-heavy load; runtime delta %.2f%%",
        tick_only.sweeps
            ? static_cast<double>(both.sweeps) / tick_only.sweeps
            : 0.0,
        100.0 * (static_cast<double>(both.runtime) -
                 static_cast<double>(tick_only.runtime)) /
            static_cast<double>(tick_only.runtime));
    return 0;
}
