// Tests for the conformance harness's op-script layer: generator
// determinism, the stable text form, its parser, and seeded mutants
// that must be rejected with a message or replay cleanly.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "check/executor.hh"
#include "check/script.hh"
#include "sim/rng.hh"

namespace latr
{
namespace
{

TEST(CheckScript, GeneratorIsDeterministic)
{
    GenOptions gen;
    gen.numOps = 120;
    Script a = generateScript(42, gen);
    Script b = generateScript(42, gen);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    EXPECT_EQ(serializeScript(a), serializeScript(b));
}

TEST(CheckScript, DifferentSeedsDiffer)
{
    GenOptions gen;
    gen.numOps = 120;
    EXPECT_NE(serializeScript(generateScript(1, gen)),
              serializeScript(generateScript(2, gen)));
}

TEST(CheckScript, GeneratorEndsWithQuiesce)
{
    GenOptions gen;
    gen.numOps = 30;
    Script s = generateScript(7, gen);
    ASSERT_EQ(s.ops.size(), 31u); // numOps + trailing quiesce
    EXPECT_EQ(s.ops.back().kind, OpKind::Quiesce);
}

TEST(CheckScript, SerializeParseRoundTrip)
{
    GenOptions gen;
    gen.numOps = 200;
    gen.pcid = true;
    gen.procs = 3;
    Script original = generateScript(99, gen);

    Script parsed;
    std::string err;
    ASSERT_TRUE(parseScript(serializeScript(original), &parsed, &err))
        << err;
    EXPECT_EQ(parsed.seed, original.seed);
    EXPECT_EQ(parsed.pcid, original.pcid);
    EXPECT_EQ(parsed.procs, original.procs);
    ASSERT_EQ(parsed.ops.size(), original.ops.size());
    // The text form is the canonical equality witness.
    EXPECT_EQ(serializeScript(parsed), serializeScript(original));
}

TEST(CheckScript, ParserSkipsCommentsAndBlankLines)
{
    Script s;
    std::string err;
    ASSERT_TRUE(parseScript("# a comment\n"
                            "\n"
                            "seed 5\n"
                            "pcid 1\n"
                            "procs 2\n"
                            "  \n"
                            "mmap 0 3 16 rw\n"
                            "# trailing comment\n"
                            "quiesce\n",
                            &s, &err))
        << err;
    EXPECT_EQ(s.seed, 5u);
    EXPECT_TRUE(s.pcid);
    EXPECT_EQ(s.procs, 2u);
    ASSERT_EQ(s.ops.size(), 2u);
    EXPECT_EQ(s.ops[0].kind, OpKind::Mmap);
    EXPECT_EQ(s.ops[0].task, 0u);
    EXPECT_EQ(s.ops[0].slot, 3u);
    EXPECT_EQ(s.ops[0].value, 16u);
    EXPECT_TRUE(s.ops[0].rw);
    EXPECT_EQ(s.ops[1].kind, OpKind::Quiesce);
}

TEST(CheckScript, ParserRejectsUnknownDirective)
{
    Script s;
    std::string err;
    EXPECT_FALSE(parseScript("seed 1\nfrobnicate 0 1\n", &s, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos);
    EXPECT_NE(err.find("frobnicate"), std::string::npos);
}

TEST(CheckScript, ParserRejectsMalformedOps)
{
    Script s;
    std::string err;
    // Missing access token.
    EXPECT_FALSE(parseScript("mmap 0 1 16\n", &s, &err));
    // Bad access token.
    EXPECT_FALSE(parseScript("touch 0 1 2 x\n", &s, &err));
    // Missing operand.
    EXPECT_FALSE(parseScript("munmap 0\n", &s, &err));
    // procs must be positive.
    EXPECT_FALSE(parseScript("procs 0\n", &s, &err));
}

TEST(CheckScript, ParserRejectsSignsTrailingTokensAndHugeOperands)
{
    Script s;
    std::string err;
    for (const char *bad :
         {"mmap 0 1 -1 rw\n",           // would wrap to 4294967295
          "mmap 0 1 +4 rw\n", "mmap 0 1 4x rw\n",
          "mmap 0 1 4 rw garbage\n",    // trailing token
          "quiesce now\n", "seed 1 2\n", "pcid 2\n",
          "mmap 0 3000000 4 rw\n",      // slot table of 3M entries
          "mmap 0 0 4000000000 rw\n",   // a 16 TiB mapping
          "mmap_huge 0 0 9\n", "touch 0 0 4096 r\n",
          "ctxsw 1024\n", "advance 1000001\n", "procs 129\n"}) {
        EXPECT_FALSE(parseScript(bad, &s, &err)) << bad;
        EXPECT_NE(err.find("line 1"), std::string::npos) << bad;
    }
    // The bounds sit well above what scripts use.
    EXPECT_TRUE(parseScript("procs 128\nmmap 4095 4095 4096 rw\n"
                            "mmap_huge 0 1 8\ntouch 0 0 4095 w\n"
                            "ctxsw 1023\nadvance 1000000\n",
                            &s, &err))
        << err;
}

/** The script's lines, each split into tokens. */
std::vector<std::vector<std::string>>
tokenLines(const std::string &text)
{
    std::vector<std::vector<std::string>> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        std::istringstream split(line);
        lines.emplace_back();
        for (std::string t; split >> t;)
            lines.back().push_back(t);
    }
    return lines;
}

std::string
joinLines(const std::vector<std::vector<std::string>> &lines)
{
    std::string text;
    for (const auto &line : lines) {
        for (std::size_t i = 0; i < line.size(); ++i)
            text += (i ? " " : "") + line[i];
        text += "\n";
    }
    return text;
}

TEST(CheckScriptMutation, EditedScriptsAreRejectedOrReplay)
{
    GenOptions gen;
    gen.numOps = 60;
    const auto base = tokenLines(serializeScript(generateScript(7, gen)));
    Rng rng(22);
    unsigned parsed = 0;
    for (int m = 0; m < 150; ++m) {
        auto lines = base;
        // Line 0 is the "# latrsim check script" comment.
        auto &line = lines[1 + rng.nextBounded(lines.size() - 1)];
        if (line.size() < 2)
            continue;
        const std::size_t at = 1 + rng.nextBounded(line.size() - 1);
        std::string &tok = line[at];
        const bool numeric = tok.find_first_not_of("0123456789") ==
                             std::string::npos;
        bool sign = false;
        switch (m % 3) {
          case 0: // token deletion
            line.erase(line.begin() + static_cast<std::ptrdiff_t>(at));
            break;
          case 1: // digit edit
            tok[rng.nextBounded(tok.size())] =
                static_cast<char>('0' + rng.nextBounded(10));
            break;
          default: // sign edit
            tok.insert(0, rng.nextBool(0.5) ? "-" : "+");
            sign = numeric;
        }
        Script s;
        std::string err;
        if (!parseScript(joinLines(lines), &s, &err)) {
            EXPECT_FALSE(err.empty());
            continue;
        }
        EXPECT_FALSE(sign) << "a signed number parsed";
        ++parsed;
        const RunResult run = runScript(s, PolicyKind::Latr);
        EXPECT_EQ(run.policy, PolicyKind::Latr);
    }
    EXPECT_GT(parsed, 0u);
}

TEST(CheckScript, FileRoundTrip)
{
    GenOptions gen;
    gen.numOps = 50;
    Script original = generateScript(13, gen);
    const std::string path =
        ::testing::TempDir() + "check_script_roundtrip.script";
    ASSERT_TRUE(saveScriptFile(path, original));

    Script loaded;
    std::string err;
    ASSERT_TRUE(loadScriptFile(path, &loaded, &err)) << err;
    EXPECT_EQ(serializeScript(loaded), serializeScript(original));
}

TEST(CheckScript, LoadMissingFileFails)
{
    Script s;
    std::string err;
    EXPECT_FALSE(
        loadScriptFile("/nonexistent/no.script", &s, &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos);
}

} // namespace
} // namespace latr
