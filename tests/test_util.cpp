// Unit tests for src/util: time helpers, RNG, UUniFast, bitset, stats, CSV,
// and the CLI argument parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "util/args.h"
#include "util/bitset.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/uunifast.h"

namespace rtpool::util {
namespace {

// ---------- time helpers ----------

TEST(TimeTest, EqualityTolerance) {
  EXPECT_TRUE(time_eq(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(time_eq(1.0, 1.0001));
  EXPECT_TRUE(time_eq(1e9, 1e9 + 1e-3));  // relative tolerance
}

TEST(TimeTest, Ordering) {
  EXPECT_TRUE(time_lt(1.0, 2.0));
  EXPECT_FALSE(time_lt(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(time_le(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(time_le(1.0, 2.0));
  EXPECT_FALSE(time_le(2.0, 1.0));
}

TEST(TimeTest, RobustCeilDoesNotBumpNearIntegers) {
  EXPECT_DOUBLE_EQ(ceil_robust(3.0), 3.0);
  EXPECT_DOUBLE_EQ(ceil_robust(3.0 + 1e-12), 3.0);
  EXPECT_DOUBLE_EQ(ceil_robust(3.0 - 1e-12), 3.0);
  EXPECT_DOUBLE_EQ(ceil_robust(3.1), 4.0);
  EXPECT_DOUBLE_EQ(ceil_robust(-1.5), -1.0);
}

TEST(TimeTest, CeilDiv) {
  EXPECT_DOUBLE_EQ(ceil_div(10.0, 5.0), 2.0);
  EXPECT_DOUBLE_EQ(ceil_div(10.1, 5.0), 3.0);
  // 0.3 / 0.1 is not exactly 3 in binary floating point.
  EXPECT_DOUBLE_EQ(ceil_div(0.3, 0.1), 3.0);
}

// ---------- rng ----------

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(RngTest, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(1);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(1, 4);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 4);
    saw_lo = saw_lo || x == 1;
    saw_hi = saw_hi || x == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(7);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, IndexThrowsOnEmpty) {
  Rng rng(3);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(RngTest, ForkProducesDifferentStream) {
  Rng parent(5);
  Rng child = parent.fork();
  bool differs = false;
  for (int i = 0; i < 10; ++i)
    differs = differs || parent.uniform(0, 1) != child.uniform(0, 1);
  EXPECT_TRUE(differs);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(11);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

// ---------- uunifast ----------

TEST(UUniFastTest, SumsToTarget) {
  Rng rng(123);
  for (int trial = 0; trial < 100; ++trial) {
    const auto u = uunifast(8, 4.0, rng);
    ASSERT_EQ(u.size(), 8u);
    const double sum = std::accumulate(u.begin(), u.end(), 0.0);
    EXPECT_NEAR(sum, 4.0, 1e-9);
    for (double x : u) EXPECT_GE(x, 0.0);
  }
}

TEST(UUniFastTest, SingleTask) {
  Rng rng(1);
  const auto u = uunifast(1, 0.7, rng);
  ASSERT_EQ(u.size(), 1u);
  EXPECT_DOUBLE_EQ(u[0], 0.7);
}

TEST(UUniFastTest, RejectsBadInput) {
  Rng rng(1);
  EXPECT_THROW(uunifast(0, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(uunifast(4, 0.0, rng), std::invalid_argument);
}

TEST(UUniFastTest, CappedRespectsCap) {
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const auto u = uunifast_capped(4, 2.0, 1.0, rng);
    for (double x : u) EXPECT_LE(x, 1.0);
  }
}

TEST(UUniFastTest, CappedInfeasibleThrows) {
  Rng rng(9);
  EXPECT_THROW(uunifast_capped(2, 3.0, 1.0, rng), std::invalid_argument);
}

// ---------- bitset ----------

TEST(BitsetTest, SetTestReset) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(BitsetTest, OutOfRangeThrows) {
  DynamicBitset b(10);
  EXPECT_THROW(b.test(10), std::out_of_range);
  EXPECT_THROW(b.set(10), std::out_of_range);
}

TEST(BitsetTest, SetAllRespectsTail) {
  DynamicBitset b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
}

TEST(BitsetTest, SetAlgebra) {
  DynamicBitset a(100);
  DynamicBitset b(100);
  a.set(3);
  a.set(77);
  b.set(77);
  b.set(99);
  DynamicBitset c = a;
  c.and_assign(b);
  EXPECT_EQ(c.count(), 1u);
  EXPECT_TRUE(c.test(77));
  c = b;
  c.and_not_assign(a);
  EXPECT_EQ(c.count(), 1u);
  EXPECT_TRUE(c.test(99));
}

TEST(BitsetTest, SizeMismatchThrows) {
  DynamicBitset a(10);
  DynamicBitset b(11);
  EXPECT_THROW(a.and_assign(b), std::invalid_argument);
  EXPECT_THROW(a.and_not_assign(b), std::invalid_argument);
}

TEST(BitsetTest, ForEachAscending) {
  DynamicBitset b(200);
  const std::vector<std::size_t> want{0, 63, 64, 65, 128, 199};
  for (auto i : want) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, want);
}

// ---------- stats ----------

TEST(StatsTest, RunningStats) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, EmptyStats) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(StatsTest, RatioCounter) {
  RatioCounter c;
  c.add(true);
  c.add(false);
  c.add(true);
  c.add(true);
  EXPECT_EQ(c.total(), 4u);
  EXPECT_EQ(c.hits(), 3u);
  EXPECT_DOUBLE_EQ(c.ratio(), 0.75);
}

TEST(StatsTest, Percentile) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile(v, 101), std::invalid_argument);
}

// ---------- csv ----------

TEST(CsvTest, WritesEscapedRows) {
  const auto path = std::filesystem::temp_directory_path() / "rtpool_csv_test.csv";
  {
    CsvWriter csv(path.string(), {"a", "b"});
    csv.row({"1", "plain"});
    csv.row({"2", "with,comma"});
    csv.row({"3", "with\"quote"});
    csv.row_values(4, 2.5);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,plain");
  std::getline(in, line);
  EXPECT_EQ(line, "2,\"with,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "3,\"with\"\"quote\"");
  std::getline(in, line);
  EXPECT_EQ(line, "4,2.5");
  std::filesystem::remove(path);
}

TEST(CsvTest, CellCountMismatchThrows) {
  const auto path = std::filesystem::temp_directory_path() / "rtpool_csv_test2.csv";
  CsvWriter csv(path.string(), {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
  std::filesystem::remove(path);
}

// ---------- args ----------

TEST(ArgsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--m=8", "--trials", "100", "--verbose"};
  Args args(5, argv, {"m", "trials", "verbose", "unused"});
  EXPECT_EQ(args.get_int("m", 0), 8);
  EXPECT_EQ(args.get_int("trials", 0), 100);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("unused", 7), 7);
  EXPECT_FALSE(args.has("unused"));
}

TEST(ArgsTest, RejectsUnknownKey) {
  const char* argv[] = {"prog", "--typo=1"};
  EXPECT_THROW(Args(2, argv, {"m"}), std::invalid_argument);
}

TEST(ArgsTest, RejectsPositional) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(Args(2, argv, {"m"}), std::invalid_argument);
}

TEST(ArgsTest, TypeErrors) {
  const char* argv[] = {"prog", "--m=abc"};
  Args args(2, argv, {"m"});
  EXPECT_THROW(args.get_int("m", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("m", 0), std::invalid_argument);
  EXPECT_THROW(args.get_bool("m", false), std::invalid_argument);
}

TEST(ArgsTest, Uint64ParsesFullRangeAndRejectsNegatives) {
  const char* argv[] = {"prog", "--seed=18446744073709551615", "--neg=-3",
                        "--junk=12x"};
  Args args(4, argv, {"seed", "neg", "junk"});
  EXPECT_EQ(args.get_uint64("seed", 0), 18446744073709551615ull);
  EXPECT_EQ(args.get_uint64("missing", 42), 42u);
  // get_int would silently wrap a negative into a huge unsigned; get_uint64
  // rejects it loudly, along with trailing garbage.
  EXPECT_THROW(args.get_uint64("neg", 0), std::invalid_argument);
  EXPECT_THROW(args.get_uint64("junk", 0), std::invalid_argument);
}

TEST(ArgsTest, IntList) {
  const char* argv[] = {"prog", "--ms=2,4,8"};
  Args args(2, argv, {"ms"});
  const auto v = args.get_int_list("ms", {});
  EXPECT_EQ(v, (std::vector<std::int64_t>{2, 4, 8}));
  const auto fallback = args.get_int_list("missing", {1});
  EXPECT_EQ(fallback, (std::vector<std::int64_t>{1}));
}

}  // namespace
}  // namespace rtpool::util
