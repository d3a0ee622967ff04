// Tests for the one command-line parser every bench and tool uses
// (src/sim/args.hh): the accepted forms, and exit 2 with a one-line
// message naming the flag for each class of rejection.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/args.hh"

namespace latr
{
namespace
{

/** Owns an argv built from @p words; argv[0] is "tool". */
struct Argv
{
    explicit Argv(std::vector<std::string> words) : words_(std::move(words))
    {
        words_.insert(words_.begin(), "/some/dir/tool");
        for (std::string &w : words_)
            ptrs_.push_back(w.data());
    }

    int argc() { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> words_;
    std::vector<char *> ptrs_;
};

enum class Color
{
    Red,
    Blue,
};

/** Every kind of flag, bound to its own variable. */
struct Options
{
    bool fast = false;
    std::string out;
    unsigned jobs = 7;
    std::uint64_t seed = 1;
    double rate = 0.5;
    std::string mode = "a";
    Color color = Color::Red;
    Args args;

    Options()
    {
        args.flag("--fast", &fast)
            .text("--out", &out)
            .number("--jobs", &jobs, 1, 64)
            .number("--seed", &seed, 0, ~std::uint64_t{0})
            .real("--rate", &rate, 0, 1)
            .choice("--mode", &mode, {"a", "b"})
            .choice("--color", &color,
                    {{"red", Color::Red}, {"blue", Color::Blue}});
    }

    void
    parse(std::vector<std::string> words)
    {
        Argv a(std::move(words));
        args.parse(a.argc(), a.argv());
    }
};

TEST(Args, AbsentFlagsKeepTheirDefaults)
{
    Options o;
    o.parse({});
    EXPECT_FALSE(o.fast);
    EXPECT_EQ(o.jobs, 7u);
    EXPECT_EQ(o.rate, 0.5);
    EXPECT_EQ(o.color, Color::Red);
    EXPECT_FALSE(o.args.given("--jobs"));
}

TEST(Args, AcceptsTheEqualsForm)
{
    Options o;
    o.parse({"--fast", "--out=x.json", "--jobs=12",
             "--seed=18446744073709551615", "--rate=0.25", "--mode=b",
             "--color=blue"});
    EXPECT_TRUE(o.fast);
    EXPECT_EQ(o.out, "x.json");
    EXPECT_EQ(o.jobs, 12u);
    EXPECT_EQ(o.seed, ~std::uint64_t{0});
    EXPECT_EQ(o.rate, 0.25);
    EXPECT_EQ(o.mode, "b");
    EXPECT_EQ(o.color, Color::Blue);
    EXPECT_TRUE(o.args.given("--jobs"));
}

TEST(Args, AcceptsTheSpaceForm)
{
    Options o;
    o.parse({"--out", "dir/f=1.json", "--jobs", "64", "--rate", "1e-1",
             "--color", "blue", "--fast"});
    EXPECT_EQ(o.out, "dir/f=1.json");
    EXPECT_EQ(o.jobs, 64u);
    EXPECT_EQ(o.rate, 0.1);
    EXPECT_EQ(o.color, Color::Blue);
    EXPECT_TRUE(o.fast);
}

TEST(Args, ParseDigitsTakesPlainDecimalOnly)
{
    unsigned v = 99;
    EXPECT_TRUE(parseDigits<unsigned>("0", 0, 10, &v));
    EXPECT_EQ(v, 0u);
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "0x1", "1e1",
                            "11", "99999999999999999999"})
        EXPECT_FALSE(parseDigits<unsigned>(bad, 0, 10, &v)) << bad;
    EXPECT_EQ(v, 0u);
}

void
parseAndExit(std::vector<std::string> words)
{
    Options o;
    o.parse(std::move(words));
    std::exit(0);
}

TEST(ArgsDeathTest, RejectsUnknownAndPositionalArguments)
{
    EXPECT_EXIT(parseAndExit({"--bogus"}), ::testing::ExitedWithCode(2),
                "^tool: unknown argument '--bogus' \\(accepted: --fast");
    EXPECT_EXIT(parseAndExit({"12"}), ::testing::ExitedWithCode(2),
                "^tool: unknown argument '12'");
    EXPECT_EXIT(parseAndExit({"--Jobs=2"}), ::testing::ExitedWithCode(2),
                "unknown argument '--Jobs=2'");
}

TEST(ArgsDeathTest, RejectsRepeatedFlags)
{
    EXPECT_EXIT(parseAndExit({"--jobs=2", "--jobs", "3"}),
                ::testing::ExitedWithCode(2), "^tool: --jobs given twice");
    EXPECT_EXIT(parseAndExit({"--fast", "--fast"}),
                ::testing::ExitedWithCode(2), "--fast given twice");
}

TEST(ArgsDeathTest, RejectsValuelessFlagsAndValuedSwitches)
{
    EXPECT_EXIT(parseAndExit({"--out"}), ::testing::ExitedWithCode(2),
                "^tool: --out needs a value");
    EXPECT_EXIT(parseAndExit({"--out="}), ::testing::ExitedWithCode(2),
                "--out needs a value");
    EXPECT_EXIT(parseAndExit({"--out", "--fast"}),
                ::testing::ExitedWithCode(2), "--out needs a value");
    EXPECT_EXIT(parseAndExit({"--fast=1"}), ::testing::ExitedWithCode(2),
                "^tool: --fast takes no value");
}

TEST(ArgsDeathTest, RejectsBadNumbers)
{
    for (const char *bad : {"--jobs=abc", "--jobs=-3", "--jobs=12x",
                            "--jobs=+4", "--jobs=0", "--jobs=65",
                            "--jobs=4294967296"})
        EXPECT_EXIT(parseAndExit({bad}), ::testing::ExitedWithCode(2),
                    "^tool: --jobs wants a number in 1\\.\\.64, not '")
            << bad;
    EXPECT_EXIT(parseAndExit({"--seed=18446744073709551616"}),
                ::testing::ExitedWithCode(2), "--seed wants a number");
}

TEST(ArgsDeathTest, RejectsBadRealNumbers)
{
    for (const char *bad : {"--rate=abc", "--rate=0.5x", "--rate=inf",
                            "--rate=nan", "--rate=1.5", "--rate=-0.1",
                            "--rate= 0.5"})
        EXPECT_EXIT(parseAndExit({bad}), ::testing::ExitedWithCode(2),
                    "^tool: --rate wants a number in 0\\.\\.1, not '")
            << bad;
}

TEST(ArgsDeathTest, RejectsValuesOutsideAChoice)
{
    EXPECT_EXIT(parseAndExit({"--mode=c"}), ::testing::ExitedWithCode(2),
                "^tool: --mode wants one of a\\|b, not 'c'");
    EXPECT_EXIT(parseAndExit({"--color", "Red"}),
                ::testing::ExitedWithCode(2),
                "--color wants one of red\\|blue, not 'Red'");
}

} // namespace
} // namespace latr
