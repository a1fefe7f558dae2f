/**
 * @file
 * Unit tests for the command line option parser.
 */

#include <gtest/gtest.h>

#include "util/cli.hpp"

namespace copra {
namespace {

TEST(OptionParser, ParsesEveryType)
{
    int64_t i = 0;
    uint64_t u = 0;
    double d = 0.0;
    std::string s;
    bool f = false;

    OptionParser p("test");
    p.addInt("int", &i, "");
    p.addUint("uint", &u, "");
    p.addDouble("double", &d, "");
    p.addString("string", &s, "");
    p.addFlag("flag", &f, "");

    const char *argv[] = {"prog", "--int", "-5", "--uint", "7",
                          "--double", "2.5", "--string", "hello",
                          "--flag"};
    ASSERT_TRUE(p.parse(10, argv));
    EXPECT_EQ(i, -5);
    EXPECT_EQ(u, 7u);
    EXPECT_DOUBLE_EQ(d, 2.5);
    EXPECT_EQ(s, "hello");
    EXPECT_TRUE(f);
}

TEST(OptionParser, EqualsSyntax)
{
    uint64_t u = 0;
    bool f = true;
    OptionParser p("test");
    p.addUint("n", &u, "");
    p.addFlag("f", &f, "");
    const char *argv[] = {"prog", "--n=123", "--f=false"};
    ASSERT_TRUE(p.parse(3, argv));
    EXPECT_EQ(u, 123u);
    EXPECT_FALSE(f);
}

TEST(OptionParser, DefaultsSurviveWhenUnset)
{
    uint64_t u = 99;
    OptionParser p("test");
    p.addUint("n", &u, "");
    const char *argv[] = {"prog"};
    ASSERT_TRUE(p.parse(1, argv));
    EXPECT_EQ(u, 99u);
}

TEST(OptionParser, HelpReturnsFalse)
{
    OptionParser p("test");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(p.parse(2, argv));
}

TEST(OptionParserDeath, UnknownOptionIsFatal)
{
    OptionParser p("test");
    const char *argv[] = {"prog", "--bogus", "1"};
    EXPECT_EXIT(p.parse(3, argv), ::testing::ExitedWithCode(1),
                "unknown option");
}

TEST(OptionParserDeath, MissingValueIsFatal)
{
    uint64_t u = 0;
    OptionParser p("test");
    p.addUint("n", &u, "");
    const char *argv[] = {"prog", "--n"};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                "expects a value");
}

TEST(OptionParserDeath, MalformedNumberIsFatal)
{
    // A sign would wrap (-1 -> 2^64 - 1) and a suffix would be dropped
    // (20k -> 20); both, like overflow, are invalid values.
    for (const char *bad : {"xyz", "-1", "20k", "+5", " 7", "",
                            "18446744073709551616"}) {
        uint64_t u = 0;
        OptionParser p("test");
        p.addUint("n", &u, "");
        const char *argv[] = {"prog", "--n", bad};
        EXPECT_EXIT(p.parse(3, argv), ::testing::ExitedWithCode(1),
                    "invalid value")
            << "value '" << bad << "'";
    }
    for (const char *bad : {"5x", "9223372036854775808"}) {
        int64_t i = 0;
        OptionParser p("test");
        p.addInt("i", &i, "");
        const char *argv[] = {"prog", "--i", bad};
        EXPECT_EXIT(p.parse(3, argv), ::testing::ExitedWithCode(1),
                    "invalid value")
            << "value '" << bad << "'";
    }
}

TEST(OptionParserDeath, UintAboveItsCeilingIsFatal)
{
    uint64_t u = 0;
    OptionParser p("test");
    p.addUint("n", &u, "", 1024);
    const char *ok[] = {"prog", "--n", "1024"};
    ASSERT_TRUE(p.parse(3, ok));
    EXPECT_EQ(u, 1024u);
    const char *argv[] = {"prog", "--n", "1025"};
    EXPECT_EXIT(p.parse(3, argv), ::testing::ExitedWithCode(1),
                "invalid value '1025' for option --n \\(at most 1024\\)");
}

TEST(OptionParser, GivenReportsCommandLineOptions)
{
    uint64_t a = 5;
    uint64_t b = 5;
    OptionParser p("test");
    p.addUint("a", &a, "");
    p.addUint("b", &b, "");
    const char *argv[] = {"prog", "--b=5"};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_FALSE(p.given("a"));
    EXPECT_TRUE(p.given("b")); // given even though equal to the default
    EXPECT_FALSE(p.given("unknown"));
}

TEST(OptionParserDeath, PositionalArgumentRejected)
{
    OptionParser p("test");
    const char *argv[] = {"prog", "stray"};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                "unexpected argument");
}

} // namespace
} // namespace copra
