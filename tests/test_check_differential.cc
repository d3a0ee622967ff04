// Tests for the differential executor and the shrinking fuzzer: a
// generated script must be clean and equivalent under all four
// policies, a deliberately broken policy must be caught by the
// checker's staleness half and minimized, and the minimizer must be
// greedy delta debugging rather than wishful thinking.

#include <gtest/gtest.h>

#include <set>

#include "check/executor.hh"
#include "check/fuzzer.hh"
#include "check/script.hh"

namespace latr
{
namespace
{

GenOptions
smallGen()
{
    GenOptions gen;
    gen.numOps = 150;
    return gen;
}

TEST(CheckDifferential, GeneratedScriptsAreCleanAndEquivalent)
{
    for (std::uint64_t seed : {5ull, 17ull}) {
        GenOptions gen = smallGen();
        gen.pcid = seed % 2 == 1;
        Script script = generateScript(seed, gen);
        EXPECT_EQ(checkScript(script, ExecOptions{}), "")
            << "seed " << seed;
    }
}

TEST(CheckDifferential, RunScriptIsDeterministic)
{
    Script script = generateScript(23, smallGen());
    RunResult a = runScript(script, PolicyKind::Latr, ExecOptions{});
    RunResult b = runScript(script, PolicyKind::Latr, ExecOptions{});
    EXPECT_EQ(a.regionSig, b.regionSig);
    EXPECT_EQ(a.mmPresentPages, b.mmPresentPages);
    EXPECT_EQ(a.allocatedFrames, b.allocatedFrames);
    EXPECT_EQ(a.stalenessViolations, b.stalenessViolations);
    EXPECT_EQ(a.invariantViolations, b.invariantViolations);
}

TEST(CheckDifferential, DiffStatesFlagsDigestDivergence)
{
    RunResult a, b;
    a.policy = PolicyKind::LinuxSync;
    b.policy = PolicyKind::Latr;
    a.regionSig[0] = "ww..";
    b.regionSig[0] = "www.";
    DiffResult d = diffStates(a, b);
    EXPECT_FALSE(d.equivalent);
    EXPECT_NE(d.divergence.find("slot 0"), std::string::npos);

    b.regionSig[0] = "ww..";
    EXPECT_TRUE(diffStates(a, b).equivalent);

    b.allocatedFrames = 3;
    EXPECT_FALSE(diffStates(a, b).equivalent);
}

TEST(CheckDifferential, BrokenLatrSweepIsCaughtByTheOracle)
{
    ExecOptions broken;
    broken.injectSkipLatrSweep = true;

    // Find a failing seed quickly; generated scripts unmap
    // constantly, so the very first seeds fail in practice.
    std::string reason;
    Script failing;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Script script = generateScript(seed, smallGen());
        reason = checkScript(script, broken);
        if (!reason.empty()) {
            failing = script;
            break;
        }
    }
    ASSERT_FALSE(reason.empty())
        << "no seed in 1..5 tripped the disabled-sweep injection";
    EXPECT_EQ(failureCategory(reason), "staleness");
    EXPECT_NE(reason.find("LATR"), std::string::npos);

    // Minimization must preserve the failure category and shrink.
    const std::string category = failureCategory(reason);
    Script minimized = minimizeScript(
        failing,
        [&](const Script &candidate) {
            return failureCategory(checkScript(candidate, broken)) ==
                   category;
        },
        /*max_evals=*/80);
    EXPECT_LT(minimized.ops.size(), failing.ops.size());
    EXPECT_EQ(failureCategory(checkScript(minimized, broken)),
              category);
    // The same script under intact policies is clean: the harness
    // caught the injected bug, not a harness artifact.
    EXPECT_EQ(checkScript(minimized, ExecOptions{}), "");
}

TEST(CheckFuzzer, FailureCategoryClassifiesReasons)
{
    EXPECT_EQ(failureCategory(""), "");
    EXPECT_EQ(failureCategory("LATR: staleness oracle: stale ..."),
              "staleness");
    EXPECT_EQ(failureCategory("ABIS: reuse invariant: frame freed"),
              "invariant");
    EXPECT_EQ(failureCategory("differential: Linux vs LATR: ..."),
              "differential");
}

TEST(CheckFuzzer, MinimizerFindsTheTwoOpCore)
{
    // Synthetic target: the "bug" needs one munmap_sync AND one
    // quiesce, anywhere in the script. The minimizer should strip
    // all 40 decoys.
    Script script;
    script.procs = 1;
    for (int i = 0; i < 20; ++i)
        script.ops.push_back(Op{OpKind::Advance, 0, 0, 10, 0, false});
    script.ops.push_back(Op{OpKind::MunmapSync, 0, 0, 0, 0, false});
    for (int i = 0; i < 20; ++i)
        script.ops.push_back(Op{OpKind::Advance, 0, 0, 10, 0, false});
    script.ops.push_back(Op{OpKind::Quiesce, 0, 0, 0, 0, false});

    unsigned evals = 0;
    auto fails = [&](const Script &s) {
        ++evals;
        bool unmap = false, quiesce = false;
        for (const Op &op : s.ops) {
            unmap |= op.kind == OpKind::MunmapSync;
            quiesce |= op.kind == OpKind::Quiesce;
        }
        return unmap && quiesce;
    };
    Script minimized = minimizeScript(script, fails, 500);
    ASSERT_EQ(minimized.ops.size(), 2u);
    EXPECT_EQ(minimized.ops[0].kind, OpKind::MunmapSync);
    EXPECT_EQ(minimized.ops[1].kind, OpKind::Quiesce);
    EXPECT_GT(evals, 0u);
}

TEST(CheckFuzzer, MinimizerRespectsTheEvalBudget)
{
    Script script;
    for (int i = 0; i < 64; ++i)
        script.ops.push_back(Op{OpKind::Advance, 0, 0, 10, 0, false});
    unsigned evals = 0;
    // Never fails: the minimizer must give up at the budget and
    // return the input unchanged.
    Script out = minimizeScript(
        script,
        [&](const Script &) {
            ++evals;
            return false;
        },
        /*max_evals=*/10);
    EXPECT_EQ(out.ops.size(), script.ops.size());
    EXPECT_LE(evals, 10u);
}

TEST(CheckFuzzer, RunFuzzDumpsAReplayableMinimizedFailure)
{
    const std::string dir = ::testing::TempDir();
    FuzzOptions fo;
    fo.iterations = 3;
    fo.baseSeed = 1;
    fo.gen = smallGen();
    fo.outDir = dir;
    fo.minimizeBudget = 60;
    fo.exec.injectSkipLatrSweep = true;

    FuzzResult result = runFuzz(fo);
    ASSERT_FALSE(result.clean());
    const FuzzFailure &f = result.failures.front();
    EXPECT_EQ(failureCategory(f.reason), "staleness");
    EXPECT_LT(f.minimizedOps, f.originalOps);

    // Both dumps must reload, and the minimized one must still fail
    // the same way when replayed with the same injection.
    Script reloaded;
    std::string err;
    ASSERT_TRUE(loadScriptFile(f.scriptPath, &reloaded, &err)) << err;
    EXPECT_EQ(reloaded.seed, f.seed);
    ASSERT_TRUE(loadScriptFile(f.minScriptPath, &reloaded, &err))
        << err;
    EXPECT_EQ(failureCategory(checkScript(reloaded, fo.exec)),
              "staleness");
}

TEST(CheckFuzzer, CleanCampaignVisitsEverySeed)
{
    std::set<std::uint64_t> seeds;
    FuzzOptions fo;
    fo.iterations = 4;
    fo.baseSeed = 100;
    fo.gen.numOps = 60;
    fo.outDir = ::testing::TempDir();
    fo.onIteration = [&](unsigned, std::uint64_t seed) {
        seeds.insert(seed);
    };
    FuzzResult result = runFuzz(fo);
    EXPECT_TRUE(result.clean()) << result.failures.front().reason;
    EXPECT_EQ(result.iterations, 4u);
    EXPECT_EQ(seeds.size(), 4u);
    EXPECT_TRUE(seeds.count(100) && seeds.count(103));
}

} // namespace
} // namespace latr
