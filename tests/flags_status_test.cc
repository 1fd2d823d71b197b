// Error-path coverage for util/flags.cc (empty values, overflow, duplicate
// and unknown flags) and message formatting for util/status.h.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/status.h"

namespace mobicache {
namespace {

Status ParseArgs(FlagParser& parser, std::vector<std::string> args) {
  std::string prog = "prog";
  std::vector<char*> argv;
  argv.push_back(prog.data());
  for (std::string& a : args) argv.push_back(a.data());
  return parser.Parse(static_cast<int>(argv.size()), argv.data());
}

struct ParserFixture {
  FlagParser parser{"test program"};
  std::string name;
  uint64_t units = 0;
  double rate = 0.0;
  bool verbose = false;

  ParserFixture() {
    parser.AddString("name", "cell", "a string flag", &name);
    parser.AddUint("units", 20, "a uint flag", &units);
    parser.AddDouble("rate", 0.5, "a double flag", &rate);
    parser.AddBool("verbose", false, "a bool flag", &verbose);
  }
};

TEST(FlagsTest, DefaultsPreFilledBeforeParse) {
  ParserFixture f;
  EXPECT_EQ(f.name, "cell");
  EXPECT_EQ(f.units, 20u);
  EXPECT_DOUBLE_EQ(f.rate, 0.5);
  EXPECT_FALSE(f.verbose);
}

TEST(FlagsTest, ParsesEveryType) {
  ParserFixture f;
  ASSERT_TRUE(ParseArgs(f.parser, {"--name=mega", "--units=64",
                                   "--rate=2.25", "--verbose"})
                  .ok());
  EXPECT_EQ(f.name, "mega");
  EXPECT_EQ(f.units, 64u);
  EXPECT_DOUBLE_EQ(f.rate, 2.25);
  EXPECT_TRUE(f.verbose);
}

TEST(FlagsTest, BoolAcceptsExplicitForms) {
  for (const char* text : {"true", "1"}) {
    ParserFixture f;
    ASSERT_TRUE(ParseArgs(f.parser, {std::string("--verbose=") + text}).ok());
    EXPECT_TRUE(f.verbose);
  }
  for (const char* text : {"false", "0"}) {
    ParserFixture f;
    f.verbose = true;
    ASSERT_TRUE(ParseArgs(f.parser, {std::string("--verbose=") + text}).ok());
    EXPECT_FALSE(f.verbose);
  }
  ParserFixture f;
  const Status st = ParseArgs(f.parser, {"--verbose=yes"});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, EmptyValueRejected) {
  {
    ParserFixture f;
    const Status st = ParseArgs(f.parser, {"--units="});
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("--units"), std::string::npos);
    EXPECT_EQ(f.units, 20u) << "failed parse must not clobber the default";
  }
  {
    ParserFixture f;
    EXPECT_EQ(ParseArgs(f.parser, {"--rate="}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_DOUBLE_EQ(f.rate, 0.5);
  }
  // An empty *string* value is legal: the empty string is a valid string.
  {
    ParserFixture f;
    EXPECT_TRUE(ParseArgs(f.parser, {"--name="}).ok());
    EXPECT_EQ(f.name, "");
  }
}

TEST(FlagsTest, UintOverflowAndNegativeRejected) {
  {
    ParserFixture f;
    // 2^64 — one past UINT64_MAX.
    const Status st = ParseArgs(f.parser, {"--units=18446744073709551616"});
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("range"), std::string::npos);
    EXPECT_EQ(f.units, 20u);
  }
  {
    ParserFixture f;
    // UINT64_MAX itself still parses.
    ASSERT_TRUE(
        ParseArgs(f.parser, {"--units=18446744073709551615"}).ok());
    EXPECT_EQ(f.units, UINT64_MAX);
  }
  {
    ParserFixture f;
    // strtoull would silently wrap "-3"; the parser must not.
    EXPECT_EQ(ParseArgs(f.parser, {"--units=-3"}).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(f.units, 20u);
  }
  {
    ParserFixture f;
    EXPECT_EQ(ParseArgs(f.parser, {"--units=12abc"}).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(FlagsTest, DoubleOverflowRejected) {
  ParserFixture f;
  const Status st = ParseArgs(f.parser, {"--rate=1e999"});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("range"), std::string::npos);
  EXPECT_DOUBLE_EQ(f.rate, 0.5);
}

TEST(FlagsTest, DuplicateFlagRejected) {
  ParserFixture f;
  const Status st = ParseArgs(f.parser, {"--units=1", "--units=2"});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("duplicate"), std::string::npos);
  EXPECT_EQ(f.units, 1u) << "the first occurrence was already applied";
}

TEST(FlagsTest, UnknownAndMalformedRejected) {
  {
    ParserFixture f;
    const Status st = ParseArgs(f.parser, {"--bogus=1"});
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("--bogus"), std::string::npos);
  }
  {
    ParserFixture f;
    // Non-bool flag without a value.
    EXPECT_EQ(ParseArgs(f.parser, {"--units"}).code(),
              StatusCode::kInvalidArgument);
  }
  {
    ParserFixture f;
    // Positional argument.
    EXPECT_EQ(ParseArgs(f.parser, {"unit20"}).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(FlagsTest, HelpAndUsage) {
  ParserFixture f;
  ASSERT_TRUE(ParseArgs(f.parser, {"--help"}).ok());
  EXPECT_TRUE(f.parser.help_requested());
  const std::string usage = f.parser.Usage();
  EXPECT_NE(usage.find("test program"), std::string::npos);
  for (const char* flag : {"--name", "--units", "--rate", "--verbose"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(FlagsTest, ListsParseEveryElement) {
  FlagParser parser("lists");
  std::vector<uint64_t> units;
  std::vector<double> probs;
  parser.AddUintList("units", {1000, 10000}, "a uint list", &units);
  parser.AddDoubleList("s", {0.5}, "a double list", &probs);
  EXPECT_EQ(units, (std::vector<uint64_t>{1000, 10000}));
  EXPECT_NE(parser.Usage().find("1000,10000"), std::string::npos);
  ASSERT_TRUE(ParseArgs(parser, {"--units=7", "--s=0.25,0.99"}).ok());
  EXPECT_EQ(units, (std::vector<uint64_t>{7}));
  EXPECT_EQ(probs, (std::vector<double>{0.25, 0.99}));
}

TEST(FlagsTest, MalformedListsRejected) {
  for (const char* arg :
       {"--units=", "--units=1,,2", "--units=1,", "--units=,1", "--units=1,x",
        "--units=1,-2", "--units=1,999999999999999999999", "--units"}) {
    FlagParser parser("lists");
    std::vector<uint64_t> units;
    parser.AddUintList("units", {3}, "a uint list", &units);
    const Status st = ParseArgs(parser, {arg});
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_EQ(units, (std::vector<uint64_t>{3})) << arg;
  }
}

TEST(FlagsTest, OptionalStringTakesBareOrExplicitValue) {
  for (const auto& [arg, want] :
       std::vector<std::pair<std::string, std::string>>{
           {"--json", "auto"}, {"--json=out.json", "out.json"}}) {
    FlagParser parser("optional");
    std::string json;
    parser.AddOptionalString("json", "", "auto", "an optional string", &json);
    EXPECT_EQ(json, "");
    ASSERT_TRUE(ParseArgs(parser, {arg}).ok()) << arg;
    EXPECT_EQ(json, want);
  }
}

TEST(StatusTest, ToStringFormatsCodeAndMessage) {
  EXPECT_EQ(Status::OK().ToString(), "OK");
  EXPECT_EQ(Status::InvalidArgument("bad flag").ToString(),
            "InvalidArgument: bad flag");
  EXPECT_EQ(Status::NotFound("no item 7").ToString(), "NotFound: no item 7");
  // An empty message renders as the bare code name, without a dangling ": ".
  EXPECT_EQ(Status::Internal("").ToString(), "Internal");
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::InvalidArgument("x"), Status::InvalidArgument("x"));
  EXPECT_FALSE(Status::InvalidArgument("x") == Status::InvalidArgument("y"));
  EXPECT_FALSE(Status::InvalidArgument("x") == Status::Internal("x"));
}

TEST(StatusTest, StatusOrCarriesValueOrError) {
  StatusOr<int> ok_result(41);
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.value(), 41);
  EXPECT_EQ(*ok_result + 1, 42);
  EXPECT_EQ(ok_result.value_or(7), 41);

  StatusOr<int> err_result(Status::NotFound("nope"));
  ASSERT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err_result.status().message(), "nope");
  EXPECT_EQ(err_result.value_or(7), 7);
}

}  // namespace
}  // namespace mobicache
