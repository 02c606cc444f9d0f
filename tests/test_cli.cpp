// Command-line flag parsing (util::CliArgs): well-formed values parse,
// and a value that does not parse in full throws std::invalid_argument
// naming the flag and the value instead of running with a silent default.
#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace {

using mf::util::CliArgs;

CliArgs parse(std::initializer_list<const char*> flags) {
  std::vector<std::string> store{"prog"};
  store.insert(store.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (auto& s : store) argv.push_back(s.data());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

/// Runs `get` and expects an std::invalid_argument naming `--name` and
/// `value`.
template <typename Get>
void expect_rejects(const Get& get, const std::string& name,
                    const std::string& value) {
  try {
    (void)get();
    ADD_FAILURE() << "--" << name << " '" << value << "' did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--" + name), std::string::npos) << what;
    EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
  }
}

TEST(CliArgs, WellFormedValuesParse) {
  const CliArgs args = parse({"--m", "8", "--iters=-3", "--lr", "2.5e-3",
                              "--tol=1e-10", "--smoke", "--resume", "no",
                              "--paper-scale=1"});
  EXPECT_EQ(args.get_int("m", 0), 8);
  EXPECT_EQ(args.get_int("iters", 0), -3);
  EXPECT_EQ(args.get_double("lr", 0), 2.5e-3);
  EXPECT_EQ(args.get_double("tol", 0), 1e-10);
  EXPECT_TRUE(args.get_bool("smoke"));
  EXPECT_FALSE(args.get_bool("resume", true));
  EXPECT_TRUE(args.get_bool("paper-scale"));
  EXPECT_EQ(args.get_int("absent", 42), 42);
  EXPECT_EQ(args.get_double("absent", 0.5), 0.5);
  EXPECT_TRUE(args.get_bool("absent", true));
  EXPECT_EQ(args.get("m", ""), "8");
}

TEST(CliArgs, EveryBooleanSpellingParses) {
  for (const char* on : {"true", "1", "yes"}) {
    EXPECT_TRUE(parse({"--flag", on}).get_bool("flag")) << on;
  }
  for (const char* off : {"false", "0", "no"}) {
    EXPECT_FALSE(parse({"--flag", off}).get_bool("flag", true)) << off;
  }
}

TEST(CliArgs, MalformedIntegerThrows) {
  for (const char* bad : {"abc", "8x", "", "1.5", "99999999999999999999"}) {
    const CliArgs args = parse({"--m", bad});
    expect_rejects([&] { return args.get_int("m", 4); }, "m", bad);
  }
  // A bare switch read as a number is an error too, not 0.
  const CliArgs args = parse({"--iters", "--smoke"});
  expect_rejects([&] { return args.get_int("iters", 8); }, "iters", "true");
}

TEST(CliArgs, MalformedDoubleThrows) {
  for (const char* bad : {"abc", "0.5x", "", "1e999"}) {
    const CliArgs args = parse({"--lr", bad});
    expect_rejects([&] { return args.get_double("lr", 1e-2); }, "lr", bad);
  }
}

TEST(CliArgs, UnknownBooleanWordThrows) {
  for (const char* bad : {"maybe", "on", "TRUE", ""}) {
    const CliArgs args = parse({"--resume", bad});
    expect_rejects([&] { return args.get_bool("resume"); }, "resume", bad);
  }
}

}  // namespace
