// latrsim_check: the conformance-harness front end — fuzz the five
// TLB-coherence policies against the differential executor and the
// coherence checker, and replay (minimized) failure scripts.
//
//   latrsim_check --fuzz=1000                  # fuzzing campaign
//   latrsim_check --fuzz=200 --ops=200         # CI smoke budget
//   latrsim_check --replay=fail_seed7.min.script
//   latrsim_check --replay=f.script --policy=latr --trace=f.json
//   latrsim_check --fuzz=50 --inject=skip-latr-sweep   # must fail
//
// Exit status: 0 when every run is clean and equivalent, 1 on any
// checker violation or cross-policy divergence, 2 on usage errors.

#include <cstdio>
#include <limits>
#include <optional>
#include <string>

#include "check/executor.hh"
#include "check/fuzzer.hh"
#include "check/script.hh"
#include "sim/args.hh"

using namespace latr;

namespace
{

struct Options
{
    unsigned fuzz = 0;
    unsigned digest = 0;
    std::string replayPath;
    std::optional<PolicyKind> policy; // unset = all five
    std::uint64_t seed = 1;
    unsigned ops = 400;
    /** Unset = alternate (fuzz) / the script header's (replay). */
    std::optional<bool> pcid;
    std::string machine = "small";
    std::string outDir = ".";
    std::string tracePath;
    std::string inject;
    bool keepGoing = false;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --fuzz=N          run N generated scripts through all five\n"
        "                    policies; minimize + dump any failure\n"
        "  --replay=FILE     replay one script (all policies unless\n"
        "                    --policy narrows it)\n"
        "  --policy=linux|latr|abis|barrelfish|pred\n"
        "  --seed=N          first fuzz seed (default 1)\n"
        "  --ops=N           ops per generated script (default 400)\n"
        "  --pcid=0|1        force PCIDs off/on (default: alternate)\n"
        "  --machine=small|large  topology for generated scripts:\n"
        "                    the 2x4 default or 8x15 (120 cores)\n"
        "  --digest=N        print a stable per-(seed,policy) state\n"
        "                    digest for N generated scripts; diff the\n"
        "                    output across builds to prove a change\n"
        "                    is simulation-transparent\n"
        "  --out=DIR         where failure dumps go (default .)\n"
        "  --trace=FILE      Chrome-trace JSON of a --replay run\n"
        "  --inject=skip-latr-sweep  fault injection (harness\n"
        "                    self-test: the oracle must catch it)\n"
        "  --inject=mispredict-sharers  force PredictivePolicy to\n"
        "                    predict no sharers; runs must stay CLEAN\n"
        "                    (the verified fallback absorbs misses)\n"
        "  --keep-going      fuzz past the first failure\n",
        argv0);
}

int
replay(const Options &opts, const ExecOptions &exec)
{
    Script script;
    std::string err;
    if (!loadScriptFile(opts.replayPath, &script, &err)) {
        std::fprintf(stderr, "latrsim_check: %s\n", err.c_str());
        return 2;
    }
    if (opts.pcid)
        script.pcid = *opts.pcid;

    if (opts.policy) {
        const PolicyKind kind = *opts.policy;
        ExecOptions one = exec;
        if (!opts.tracePath.empty()) {
            one.trace = true;
            one.tracePath = opts.tracePath;
        }
        RunResult run = runScript(script, kind, one);
        std::printf("%s: %llu staleness, %llu invariant violations\n",
                    policyKindName(kind),
                    static_cast<unsigned long long>(
                        run.stalenessViolations),
                    static_cast<unsigned long long>(
                        run.invariantViolations));
        if (!run.clean())
            std::printf("  first: %s\n",
                        (run.stalenessViolations
                             ? run.firstStaleness
                             : run.firstInvariant)
                            .c_str());
        return run.clean() ? 0 : 1;
    }

    const std::string reason = checkScript(script, exec);
    if (reason.empty()) {
        std::printf("replay of %s (%zu ops): clean and equivalent "
                    "under all five policies\n",
                    opts.replayPath.c_str(), script.ops.size());
        return 0;
    }
    std::printf("replay of %s FAILED: %s\n", opts.replayPath.c_str(),
                reason.c_str());
    return 1;
}

/**
 * Print one stable line per (seed, policy): a digest of the final
 * architectural state plus the checker verdicts. Byte-comparing this
 * output between two builds proves an engine change
 * simulation-transparent; tests/golden/latrsim_check/ pins two runs.
 */
int
digest(const Options &opts, const ExecOptions &exec)
{
    for (unsigned i = 0; i < opts.digest; ++i) {
        const std::uint64_t seed = opts.seed + i;
        GenOptions gen;
        gen.numOps = opts.ops;
        gen.large = opts.machine == "large";
        gen.pcid = opts.pcid.value_or((seed & 1) != 0);
        const Script script = generateScript(seed, gen);
        for (PolicyKind kind : allPolicyKinds()) {
            const RunResult run = runScript(script, kind, exec);
            // FNV-1a over every digested field, regions in slot
            // order: one stable 64-bit fingerprint per run.
            std::uint64_t h = 1469598103934665603ULL;
            auto mix = [&h](std::uint64_t v) {
                for (unsigned b = 0; b < 8; ++b) {
                    h ^= (v >> (b * 8)) & 0xff;
                    h *= 1099511628211ULL;
                }
            };
            for (const auto &region : run.regionSig) {
                mix(region.first);
                for (char c : region.second) {
                    h ^= static_cast<unsigned char>(c);
                    h *= 1099511628211ULL;
                }
            }
            for (std::uint64_t present : run.mmPresentPages)
                mix(present);
            mix(run.allocatedFrames);
            mix(run.heldBackBytes);
            std::printf("seed=%llu policy=%s pcid=%d machine=%s "
                        "state=%016llx staleness=%llu invariant=%llu\n",
                        static_cast<unsigned long long>(seed),
                        policyKindName(kind), gen.pcid ? 1 : 0,
                        opts.machine.c_str(),
                        static_cast<unsigned long long>(h),
                        static_cast<unsigned long long>(
                            run.stalenessViolations),
                        static_cast<unsigned long long>(
                            run.invariantViolations));
        }
    }
    return 0;
}

int
fuzz(const Options &opts, const ExecOptions &exec)
{
    FuzzOptions fo;
    fo.iterations = opts.fuzz;
    fo.baseSeed = opts.seed;
    fo.gen.numOps = opts.ops;
    fo.gen.large = opts.machine == "large";
    fo.outDir = opts.outDir;
    fo.stopOnFailure = !opts.keepGoing;
    fo.exec = exec;
    if (opts.pcid) {
        fo.mixPcid = false;
        fo.gen.pcid = *opts.pcid;
    }
    unsigned done = 0;
    fo.onIteration = [&](unsigned iter, std::uint64_t) {
        done = iter + 1;
        if ((iter + 1) % 50 == 0)
            std::printf("  ... %u/%u scripts\n", iter + 1,
                        opts.fuzz);
    };

    std::printf("fuzzing %u scripts x 5 policies (%u ops each, "
                "base seed %llu)\n",
                opts.fuzz, opts.ops,
                static_cast<unsigned long long>(opts.seed));
    FuzzResult result = runFuzz(fo);
    if (result.clean()) {
        std::printf("clean: %u scripts, no oracle violations, no "
                    "cross-policy divergence\n",
                    result.iterations);
        return 0;
    }
    for (const FuzzFailure &f : result.failures) {
        std::printf("FAILURE seed %llu: %s\n",
                    static_cast<unsigned long long>(f.seed),
                    f.reason.c_str());
        std::printf("  script:    %s (%zu ops)\n",
                    f.scriptPath.c_str(), f.originalOps);
        std::printf("  minimized: %s (%zu ops)\n",
                    f.minScriptPath.c_str(), f.minimizedOps);
        std::printf("  trace:     %s\n", f.tracePath.c_str());
        std::printf("  replay:    latrsim_check --replay=%s%s\n",
                    f.minScriptPath.c_str(),
                    exec.injectSkipLatrSweep
                        ? " --inject=skip-latr-sweep"
                        : (exec.injectMispredictSharers
                               ? " --inject=mispredict-sharers"
                               : ""));
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    constexpr unsigned kMaxUnsigned = std::numeric_limits<unsigned>::max();
    Options opts;
    PolicyKind policy = PolicyKind::Latr;
    unsigned pcid = 0;
    Args args;
    args.number("--fuzz", &opts.fuzz, 0, kMaxUnsigned)
        .number("--digest", &opts.digest, 0, kMaxUnsigned)
        .text("--replay", &opts.replayPath)
        .choice("--policy", &policy, policyKindFlags())
        .number("--seed", &opts.seed, 0, ~std::uint64_t{0})
        .number("--ops", &opts.ops, 0, kMaxUnsigned)
        .number("--pcid", &pcid, 0, 1)
        .choice("--machine", &opts.machine, {"small", "large"})
        .text("--out", &opts.outDir)
        .text("--trace", &opts.tracePath)
        .choice("--inject", &opts.inject,
                {"skip-latr-sweep", "mispredict-sharers"})
        .flag("--keep-going", &opts.keepGoing);
    args.parse(argc, argv);
    if (args.given("--policy"))
        opts.policy = policy;
    if (args.given("--pcid"))
        opts.pcid = pcid == 1;
    const int modes = (opts.fuzz > 0) + (opts.digest > 0) +
                      !opts.replayPath.empty();
    if (modes != 1) {
        usage(argv[0]);
        return 2;
    }

    ExecOptions exec;
    if (opts.inject == "skip-latr-sweep") {
        exec.injectSkipLatrSweep = true;
        std::printf("fault injection: LATR sweeps disabled — the "
                    "staleness oracle should report violations\n");
    } else if (opts.inject == "mispredict-sharers") {
        exec.injectMispredictSharers = true;
        std::printf("fault injection: sharer predictions forced "
                    "empty — runs must stay clean (the verified "
                    "fallback owns correctness)\n");
    }

    if (opts.digest > 0)
        return digest(opts, exec);
    return opts.replayPath.empty() ? fuzz(opts, exec)
                                   : replay(opts, exec);
}
