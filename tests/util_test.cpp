// Tests for the utility layer: RNG determinism/uniformity, statistics,
// table rendering, CLI parsing.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace disp {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(9);
  std::array<int, 8> hist{};
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++hist[rng.below(8)];
  for (const int h : hist) {
    EXPECT_NEAR(h, kDraws / 8, kDraws / 8 * 0.1);
  }
}

// The textbook rejection rule, computed on every draw: accept r once
// r >= (2^64 - bound) mod bound, then reduce modulo bound.
std::uint64_t referenceBelow(Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = (~bound + 1) % bound;
  for (;;) {
    const std::uint64_t r = rng();
    if (r >= threshold) return r % bound;
  }
}

TEST(Rng, BelowMatchesReferenceRejection) {
  // Bounds near and above 2^63 draw r < bound (the branch that needs the
  // threshold) on a large share of calls, and reject often.
  const std::uint64_t bounds[] = {1,
                                  2,
                                  3,
                                  57,
                                  1024,
                                  (1ULL << 32) - 1,
                                  (1ULL << 32) + 1,
                                  (1ULL << 63) + 1,
                                  3 * (1ULL << 62) + 5,
                                  ~0ULL};
  for (const std::uint64_t seed : {1ULL, 2ULL, 0xfeedULL, 0x5eed5eed5eedULL}) {
    Rng fast(seed);
    Rng reference(seed);
    for (const std::uint64_t bound : bounds) {
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(fast.below(bound), referenceBelow(reference, bound))
            << "seed " << seed << " bound " << bound << " draw " << i;
      }
    }
    EXPECT_EQ(fast(), reference());  // same number of raw draws consumed
  }
}

TEST(Rng, BelowRejectsZero) { EXPECT_THROW((void)Rng(1).below(0), std::invalid_argument); }

TEST(Rng, IntInCoversBounds) {
  Rng rng(11);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.intIn(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= (v == -3);
    sawHi |= (v == 3);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, Real01InUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.real01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(17);
  const auto p = rng.permutation(100);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, ShuffleKeepsMultiset) {
  Rng rng(19);
  std::vector<int> v{1, 2, 2, 3, 3, 3};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(23);
  Rng b = a.fork();
  EXPECT_NE(a(), b());
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummaryEvenCountMedian) {
  const std::vector<double> xs{1, 2, 3, 10};
  EXPECT_DOUBLE_EQ(summarize(xs).median, 2.5);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
}

TEST(Stats, LinearFitExact) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{5, 7, 9, 11};  // y = 3 + 2x
  const LinearFit f = fitLinear(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 3.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, PowerFitRecoversExponent) {
  std::vector<double> x, y;
  for (double k = 16; k <= 4096; k *= 2) {
    x.push_back(k);
    y.push_back(7.5 * std::pow(k, 1.5));
  }
  const PowerFit f = fitPower(x, y);
  EXPECT_NEAR(f.exponent, 1.5, 1e-9);
  EXPECT_NEAR(f.coeff, 7.5, 1e-6);
}

TEST(Stats, DiagnoseGrowthLinearSeries) {
  std::vector<double> k, y;
  for (double kk = 64; kk <= 2048; kk *= 2) {
    k.push_back(kk);
    y.push_back(12.0 * kk);
  }
  const auto d = diagnoseGrowth(k, y);
  EXPECT_NEAR(d.power.exponent, 1.0, 1e-9);
  EXPECT_NEAR(d.ratioLinearSmall, d.ratioLinearLarge, 1e-9);
  // A linear series has a *decreasing* k·log k ratio.
  EXPECT_GT(d.ratioKLogKSmall, d.ratioKLogKLarge);
}

TEST(Table, MarkdownShape) {
  Table t({"a", "bb"});
  t.row().cell("x").cell(std::uint64_t{12});
  t.row().cell(3.14159, 2).cell("y");
  const std::string md = t.markdown();
  EXPECT_NE(md.find("| a "), std::string::npos);
  EXPECT_NE(md.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  // header + separator + 2 rows
  EXPECT_EQ(std::count(md.begin(), md.end(), '\n'), 4);
}

TEST(Table, CsvShape) {
  Table t({"a", "b"});
  t.row().cell("1").cell("2");
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, TooManyCellsThrows) {
  Table t({"only"});
  t.row().cell("ok");
  EXPECT_THROW(t.cell("overflow"), std::invalid_argument);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--k=128", "--verbose", "input.g", "--ratio=0.5"};
  const Cli cli(5, argv);
  EXPECT_EQ(cli.integer("k", 0), 128);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
  EXPECT_TRUE(cli.bare("verbose"));
  EXPECT_FALSE(cli.bare("k"));
  EXPECT_FALSE(cli.bare("quiet"));
  EXPECT_DOUBLE_EQ(cli.real("ratio", 0.0), 0.5);
  EXPECT_EQ(cli.str("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.g");

  // The last occurrence of a flag decides whether it is bare.
  const char* repeated[] = {"prog", "--trace", "--trace=1", "--jsonl=a", "--jsonl"};
  const Cli again(5, repeated);
  EXPECT_FALSE(again.bare("trace"));
  EXPECT_EQ(again.str("trace", ""), "1");
  EXPECT_TRUE(again.bare("jsonl"));
}

TEST(Cli, ParsesLists) {
  const char* argv[] = {"prog", "--names=a,b,,c", "--seeds=1,2,3"};
  const Cli cli(3, argv);
  EXPECT_EQ(cli.list("names"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(cli.u64list("seeds"), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(cli.u64list("missing").empty());
}

TEST(Cli, U64ListRejectsNonNumbers) {
  const char* argv[] = {"prog", "--a=1,x", "--b=-1", "--c=1.5", "--d=+2"};
  const Cli cli(5, argv);
  EXPECT_THROW((void)cli.u64list("a"), std::invalid_argument);
  EXPECT_THROW((void)cli.u64list("b"), std::invalid_argument);  // no sign wrap
  EXPECT_THROW((void)cli.u64list("c"), std::invalid_argument);
  EXPECT_THROW((void)cli.u64list("d"), std::invalid_argument);
}

TEST(Cli, IntegerIsStrict) {
  const char* argv[] = {"prog", "--a=4x",  "--b= 4", "--c=+4",
                        "--d=-12", "--e=0x10", "--f="};
  const Cli cli(7, argv);
  EXPECT_THROW((void)cli.integer("a", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.integer("b", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.integer("c", 0), std::invalid_argument);
  EXPECT_EQ(cli.integer("d", 0), -12);
  EXPECT_THROW((void)cli.integer("e", 0), std::invalid_argument);  // no hex
  EXPECT_THROW((void)cli.integer("f", 0), std::invalid_argument);
  EXPECT_EQ(cli.integer("missing", 7), 7);
}

TEST(Cli, IntegerErrorNamesTheFlag) {
  const char* argv[] = {"prog", "--threads=4x"};
  const Cli cli(2, argv);
  try {
    (void)cli.integer("threads", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("4x"), std::string::npos);
  }
}

TEST(Cli, RealIsStrict) {
  const char* argv[] = {"prog",     "--a=0.5x", "--b=1e3", "--c=.5",
                        "--d=-0.25", "--e=nan",  "--f=inf", "--g= 1"};
  const Cli cli(8, argv);
  EXPECT_THROW((void)cli.real("a", 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(cli.real("b", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(cli.real("c", 0.0), 0.5);
  EXPECT_DOUBLE_EQ(cli.real("d", 0.0), -0.25);
  EXPECT_THROW((void)cli.real("e", 0.0), std::invalid_argument);
  EXPECT_THROW((void)cli.real("f", 0.0), std::invalid_argument);
  EXPECT_THROW((void)cli.real("g", 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(cli.real("missing", 2.5), 2.5);
}

TEST(Cli, RejectsEmptyFlagNames) {
  const char* bare[] = {"prog", "--"};
  EXPECT_THROW(Cli(2, bare), std::invalid_argument);
  const char* keyless[] = {"prog", "--=value"};
  EXPECT_THROW(Cli(2, keyless), std::invalid_argument);
  // Plain positionals (and single dashes) are still fine.
  const char* ok[] = {"prog", "-", "input.g"};
  EXPECT_EQ(Cli(3, ok).positional().size(), 2u);
}

TEST(Cli, ParseU64IsStrict) {
  EXPECT_EQ(parseU64("42", "x"), 42u);
  EXPECT_THROW((void)parseU64("", "x"), std::invalid_argument);
  EXPECT_THROW((void)parseU64(" 1", "x"), std::invalid_argument);
  EXPECT_THROW((void)parseU64("99999999999999999999999", "x"),
               std::invalid_argument);  // out of range
}

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(DISP_REQUIRE(false, "boom"), std::invalid_argument);
}

TEST(Check, CheckThrowsLogicError) {
  EXPECT_THROW(DISP_CHECK(false, "boom"), std::logic_error);
}

}  // namespace
}  // namespace disp
