#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "util/bits.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"

namespace mobicache {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad latency");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad latency");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad latency");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(7), 7);
}

Status FailsThenPropagates() {
  MOBICACHE_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  EXPECT_EQ(FailsThenPropagates().code(), StatusCode::kInternal);
}

TEST(RandomTest, SplitMixIsDeterministic) {
  uint64_t a = 1, b = 1;
  EXPECT_EQ(SplitMix64(&a), SplitMix64(&b));
  EXPECT_NE(a, 1u);  // state advanced
}

TEST(RandomTest, XoshiroDeterministicAndSeedSensitive) {
  Xoshiro256 g1(99), g2(99), g3(100);
  EXPECT_EQ(g1.Next(), g2.Next());
  EXPECT_NE(g1.Next(), g3.Next());
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RandomTest, NextUint64RespectsBound) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64(13), 13u);
  }
  // Bound of 1 always yields 0.
  EXPECT_EQ(rng.NextUint64(1), 0u);
}

TEST(RandomTest, BernoulliExtremes) {
  Rng rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RandomTest, BernoulliMeanApproximatesP) {
  Rng rng(6);
  int count = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) count += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(count) / trials, 0.3, 0.01);
}

TEST(RandomTest, ExponentialMeanMatchesRate) {
  Rng rng(7);
  double sum = 0.0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / trials, 0.5, 0.01);
}

TEST(RandomTest, PoissonMeanSmallAndLarge) {
  Rng rng(8);
  for (double mean : {0.5, 5.0, 80.0}) {
    double sum = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
      sum += static_cast<double>(rng.Poisson(mean));
    }
    EXPECT_NEAR(sum / trials, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
  EXPECT_EQ(rng.Poisson(0.0), 0u);
}

TEST(ZipfTest, UniformWhenThetaZero) {
  ZipfDistribution zipf(10, 0.0);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_NEAR(zipf.Pmf(i), 0.1, 1e-12);
}

TEST(ZipfTest, PmfSumsToOneAndIsMonotone) {
  ZipfDistribution zipf(100, 0.9);
  double total = 0.0;
  for (uint64_t i = 0; i < 100; ++i) {
    total += zipf.Pmf(i);
    if (i > 0) {
      EXPECT_LE(zipf.Pmf(i), zipf.Pmf(i - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, SampleMatchesPmf) {
  ZipfDistribution zipf(5, 1.0);
  Rng rng(11);
  std::vector<int> counts(5, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[zipf.Sample(rng)];
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / trials, zipf.Pmf(i), 0.01);
  }
}

TEST(OnlineStatsTest, BasicMoments) {
  OnlineStats st;
  for (double x : {1.0, 2.0, 3.0, 4.0}) st.Add(x);
  EXPECT_EQ(st.count(), 4u);
  EXPECT_DOUBLE_EQ(st.mean(), 2.5);
  EXPECT_NEAR(st.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 4.0);
  EXPECT_DOUBLE_EQ(st.sum(), 10.0);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats st;
  EXPECT_EQ(st.mean(), 0.0);
  EXPECT_EQ(st.variance(), 0.0);
  EXPECT_EQ(st.ConfidenceHalfWidth(), 0.0);
}

TEST(OnlineStatsTest, MergeEqualsSequential) {
  OnlineStats all, a, b;
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * 10.0;
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RatioEstimatorTest, RatioAndWilson) {
  RatioEstimator est;
  for (int i = 0; i < 70; ++i) est.Add(true);
  for (int i = 0; i < 30; ++i) est.Add(false);
  EXPECT_DOUBLE_EQ(est.ratio(), 0.7);
  EXPECT_GT(est.WilsonHalfWidth(), 0.0);
  EXPECT_LT(est.WilsonHalfWidth(), 0.2);
  EXPECT_NEAR(est.WilsonCenter(), 0.7, 0.05);
}

TEST(RatioEstimatorTest, MergeAddsCounts) {
  RatioEstimator a, b;
  a.AddCounts(5, 10);
  b.AddCounts(10, 10);
  a.Merge(b);
  EXPECT_EQ(a.successes(), 15u);
  EXPECT_EQ(a.trials(), 20u);
}

TEST(HistogramTest, BucketsAndQuantiles) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.Add(static_cast<double>(i % 10) + 0.5);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_NEAR(h.Quantile(0.5), 5.0, 1.0);
  h.Add(-1.0);
  h.Add(100.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(BitsTest, CeilLog2) {
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(1024), 10u);
  EXPECT_EQ(CeilLog2(1025), 11u);
}

TEST(BitsTest, BitsForIds) {
  EXPECT_EQ(BitsForIds(1), 1u);
  EXPECT_EQ(BitsForIds(1000), 10u);
  EXPECT_EQ(BitsForIds(1000000), 20u);
}

TEST(BitsTest, FormatBitsScales) {
  EXPECT_EQ(FormatBits(512), "512 b");
  EXPECT_EQ(FormatBits(12400), "12.4 Kb");
  EXPECT_EQ(FormatBits(1.2e6), "1.2 Mb");
  EXPECT_EQ(FormatBits(3.4e9), "3.4 Gb");
}

TEST(TablePrinterTest, AlignsColumnsAndCsv) {
  TablePrinter t({"a", "long_header"});
  t.AddRow({"1", "x"});
  t.AddRow({"22", "y,with comma"});
  std::ostringstream text;
  t.RenderText(text);
  EXPECT_NE(text.str().find("long_header"), std::string::npos);
  std::ostringstream csv;
  t.RenderCsv(csv);
  EXPECT_NE(csv.str().find("\"y,with comma\""), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(FlagParserTest, ParsesTypedFlags) {
  FlagParser flags("test");
  std::string name;
  uint64_t count = 0;
  double rate = 0.0;
  bool verbose = false;
  flags.AddString("name", "default", "a name", &name);
  flags.AddUint("count", 7, "a count", &count);
  flags.AddDouble("rate", 0.5, "a rate", &rate);
  flags.AddBool("verbose", false, "verbosity", &verbose);

  const char* argv[] = {"prog", "--name=abc", "--count=42", "--rate=2.5",
                        "--verbose"};
  ASSERT_TRUE(flags.Parse(5, const_cast<char**>(argv)).ok());
  EXPECT_EQ(name, "abc");
  EXPECT_EQ(count, 42u);
  EXPECT_DOUBLE_EQ(rate, 2.5);
  EXPECT_TRUE(verbose);
}

TEST(FlagParserTest, DefaultsApplyWhenAbsent) {
  FlagParser flags("test");
  uint64_t count = 0;
  flags.AddUint("count", 7, "a count", &count);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)).ok());
  EXPECT_EQ(count, 7u);
}

TEST(FlagParserTest, RejectsUnknownAndMalformed) {
  FlagParser flags("test");
  uint64_t count = 0;
  flags.AddUint("count", 7, "a count", &count);
  {
    const char* argv[] = {"prog", "--bogus=1"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
  }
  {
    const char* argv[] = {"prog", "--count=abc"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
  }
  {
    const char* argv[] = {"prog", "--count"};  // non-bool without value
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
  }
  {
    const char* argv[] = {"prog", "positional"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
  }
}

TEST(FlagParserTest, HelpAndBoolValues) {
  FlagParser flags("test");
  bool verbose = true;
  flags.AddBool("verbose", true, "verbosity", &verbose);
  const char* argv[] = {"prog", "--help", "--verbose=false"};
  ASSERT_TRUE(flags.Parse(3, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.help_requested());
  EXPECT_FALSE(verbose);
  EXPECT_NE(flags.Usage().find("--verbose"), std::string::npos);
}

}  // namespace
}  // namespace mobicache
