// Tests for the command-line parser and bench scale resolution.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/cli.hpp"
#include "common/error.hpp"

namespace xpuf {
namespace {

Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesKeyValuePairs) {
  const Cli cli = make_cli({"--seed", "42", "--name", "abc"});
  EXPECT_TRUE(cli.has("seed"));
  EXPECT_EQ(cli.get_int("seed", 0), 42);
  EXPECT_EQ(cli.get("name", ""), "abc");
}

TEST(Cli, ParsesEqualsForm) {
  const Cli cli = make_cli({"--seed=7", "--rate=0.25"});
  EXPECT_EQ(cli.get_int("seed", 0), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.25);
}

TEST(Cli, BareFlagHasEmptyValue) {
  const Cli cli = make_cli({"--verbose", "--seed", "3"});
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get("verbose", "x"), "");
  EXPECT_EQ(cli.get_int("seed", 0), 3);
}

TEST(Cli, PositionalArgumentsCollected) {
  const Cli cli = make_cli({"one", "--k", "v", "two"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "one");
  EXPECT_EQ(cli.positional()[1], "two");
}

TEST(Cli, MissingOptionsFallBack) {
  const Cli cli = make_cli({});
  EXPECT_FALSE(cli.has("seed"));
  EXPECT_EQ(cli.get_int("seed", 99), 99);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 1.5), 1.5);
  EXPECT_EQ(cli.get("name", "dflt"), "dflt");
}

TEST(Cli, MalformedNumbersThrow) {
  const Cli cli = make_cli({"--seed", "abc"});
  EXPECT_THROW(cli.get_int("seed", 0), ParseError);
  EXPECT_THROW(cli.get_double("seed", 0.0), ParseError);
}

class ScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::unsetenv("XPUF_BENCH_SCALE");
    ::unsetenv("XPUF_THREADS");
  }
  void TearDown() override {
    ::unsetenv("XPUF_BENCH_SCALE");
    ::unsetenv("XPUF_THREADS");
  }
};

TEST_F(ScaleTest, DefaultIsReduced) {
  const BenchScale s = resolve_scale(make_cli({}));
  EXPECT_FALSE(s.full);
  EXPECT_EQ(s.challenges, 100'000u);
  EXPECT_EQ(s.trials, 10'000u);
}

TEST_F(ScaleTest, FullFlagSelectsPaperScale) {
  const BenchScale s = resolve_scale(make_cli({"--scale", "full"}));
  EXPECT_TRUE(s.full);
  EXPECT_EQ(s.challenges, 1'000'000u);
  EXPECT_EQ(s.trials, 100'000u);
  EXPECT_EQ(s.chips, 10u);
}

TEST_F(ScaleTest, EnvironmentVariableSelectsFull) {
  ::setenv("XPUF_BENCH_SCALE", "full", 1);
  const BenchScale s = resolve_scale(make_cli({}));
  EXPECT_TRUE(s.full);
}

TEST_F(ScaleTest, FlagBeatsEnvironment) {
  ::setenv("XPUF_BENCH_SCALE", "full", 1);
  const BenchScale s = resolve_scale(make_cli({"--scale", "reduced"}));
  EXPECT_FALSE(s.full);
}

TEST_F(ScaleTest, IndividualOverridesApply) {
  const BenchScale s =
      resolve_scale(make_cli({"--challenges", "1234", "--trials", "99", "--chips", "2"}));
  EXPECT_EQ(s.challenges, 1234u);
  EXPECT_EQ(s.trials, 99u);
  EXPECT_EQ(s.chips, 2u);
}

TEST_F(ScaleTest, ThreadsDefaultToHardwareConcurrency) {
  const BenchScale s = resolve_scale(make_cli({}));
  EXPECT_GE(s.threads, 1u);
}

TEST_F(ScaleTest, ThreadsFlagAndEnvironment) {
  EXPECT_EQ(resolve_scale(make_cli({"--threads", "3"})).threads, 3u);
  ::setenv("XPUF_THREADS", "5", 1);
  EXPECT_EQ(resolve_scale(make_cli({})).threads, 5u);
  // Flag beats environment; nonpositive values fall back to autodetect.
  EXPECT_EQ(resolve_scale(make_cli({"--threads", "2"})).threads, 2u);
  EXPECT_GE(resolve_scale(make_cli({"--threads", "0"})).threads, 1u);
}

}  // namespace
}  // namespace xpuf
