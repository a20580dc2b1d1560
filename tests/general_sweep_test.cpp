// Equality gate over the general protocols (general_sync, and general_async
// under all four schedulers) and over the rooted ASYNC protocols
// rooted_async, which shares its ASYNC growing phase with general_async, and
// ks_async (each under all four schedulers): a fixed grid of runScenario
// runs, each run's outcome folded into one FNV-1a digest per case.  A
// refactor of any of these protocols, or of the ASYNC engine they all run
// on, must keep every digest byte-identical.
//
// Grid: 8 graph families x k in {8, 16, 32, 64} x placements x seeds, with
// n = 2k and the seed driving graph, placement and run.  The general cases
// run 5 clustered placements, the rooted cases `rooted` and
// `adversarial:hot`.  Tier-1 runs seeds 1-2 (1,600 general runs and 512
// runs of each rooted protocol); the DISABLED_ twins run seeds 1-30 (24,000
// general runs and 7,680 of each rooted protocol) and run in CI with
// --gtest_also_run_disabled_tests.
//
// The grid holds 5 known-bad runs (ROADMAP item 1), all general.  Each is
// pinned below by name with its recorded outcome, and every sweep checks
// that no other run fails, so fixing one means moving its pin to the
// must-disperse list, as the 11 fixed general_sync runs were.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <exception>
#include <set>
#include <span>
#include <string>

#include "algo/runner.hpp"

namespace disp {
namespace {

constexpr const char* kFamilies[] = {"er",   "grid",     "path",    "randtree",
                                     "star", "lollipop", "barbell", "expander"};
constexpr std::uint32_t kKs[] = {8, 16, 32, 64};
constexpr const char* kGeneralPlacements[] = {"clusters:l=2", "clusters:l=4",
                                              "clusters:l=8", "adversarial:far,l=4",
                                              "adversarial:frontier,l=4"};
constexpr const char* kRootedPlacements[] = {"rooted", "adversarial:hot"};

struct Case {
  const char* algorithm;
  const char* scheduler;  // ignored by general_sync
  std::span<const char* const> placements;
};
constexpr Case kSync{"general_sync", "round_robin", kGeneralPlacements};
constexpr Case kRoundRobin{"general_async", "round_robin", kGeneralPlacements};
constexpr Case kShuffled{"general_async", "shuffled", kGeneralPlacements};
constexpr Case kUniform{"general_async", "uniform", kGeneralPlacements};
constexpr Case kWeighted{"general_async", "weighted", kGeneralPlacements};
constexpr Case kRootedRoundRobin{"rooted_async", "round_robin", kRootedPlacements};
constexpr Case kRootedShuffled{"rooted_async", "shuffled", kRootedPlacements};
constexpr Case kRootedUniform{"rooted_async", "uniform", kRootedPlacements};
constexpr Case kRootedWeighted{"rooted_async", "weighted", kRootedPlacements};
constexpr Case kKsRoundRobin{"ks_async", "round_robin", kRootedPlacements};
constexpr Case kKsShuffled{"ks_async", "shuffled", kRootedPlacements};
constexpr Case kKsUniform{"ks_async", "uniform", kRootedPlacements};
constexpr Case kKsWeighted{"ks_async", "weighted", kRootedPlacements};

/// A run's recorded outcome: the RunResult summary, or the exception text.
struct Outcome {
  RunResult result;
  std::string error;

  [[nodiscard]] bool failed() const { return !error.empty() || !result.dispersed; }
  [[nodiscard]] std::string text() const {
    return error.empty() ? result.summary() : "threw: " + error;
  }
};

Outcome runOne(const Case& c, const std::string& family, std::uint32_t k,
               const std::string& placement, std::uint64_t seed) {
  RunOptions opts;
  opts.algorithm = c.algorithm;
  opts.scheduler = c.scheduler;
  opts.seed = seed;
  Outcome out;
  try {
    out.result = runScenario(family, placement, k, opts);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

std::string runName(const std::string& family, std::uint32_t k,
                    const std::string& placement, std::uint64_t seed) {
  return family + " k=" + std::to_string(k) + " " + placement +
         " seed=" + std::to_string(seed);
}

/// FNV-1a, 64-bit, over little-endian words and raw string bytes.
class Fnv {
 public:
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(w >> (8 * i)));
  }
  void text(const std::string& s) {
    word(s.size());
    for (const char ch : s) byte(static_cast<std::uint8_t>(ch));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void mixOutcome(Fnv& h, const Outcome& o) {
  const RunResult& r = o.result;
  h.word(r.dispersed ? 1 : 0);
  h.word(r.time);
  h.word(r.activations);
  h.word(r.totalMoves);
  h.word(r.maxMemoryBits);
  h.word(r.finalPositions.size());
  for (const NodeId v : r.finalPositions) h.word(v);
  h.text(o.error);
}

std::string hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s = "0x";
  for (int shift = 60; shift >= 0; shift -= 4) s += digits[(v >> shift) & 0xf];
  return s;
}

/// A pinned run and the outcome it had when it was pinned.
struct PinnedRun {
  const Case* c;
  const char* family;
  std::uint32_t k;
  const char* placement;
  std::uint64_t seed;
  const char* outcome;
};

// Known-bad: silent double settlement, the run ends with two settlers on a
// node.
const PinnedRun kKnownBad[] = {
    {&kSync, "er", 8, "clusters:l=2", 30,
     "NOT dispersed time=13 moves=44 memBits=53 activations=104"},
    {&kRoundRobin, "er", 8, "clusters:l=2", 30,
     "NOT dispersed time=18 moves=48 memBits=105 activations=140"},
    {&kShuffled, "expander", 16, "clusters:l=4", 11,
     "NOT dispersed time=20 moves=84 memBits=116 activations=317"},
    {&kShuffled, "expander", 16, "adversarial:far,l=4", 24,
     "NOT dispersed time=41 moves=134 memBits=130 activations=650"},
    {&kWeighted, "lollipop", 32, "clusters:l=8", 19,
     "NOT dispersed time=32 moves=774 memBits=171 activations=8071"},
};

// Fixed: these general_sync runs livelocked until the round cap while the
// DFS re-probed the node where a rescan had stopped, discarding the rescan's
// finding; now each must disperse.
const PinnedRun kFixed[] = {
    {&kSync, "randtree", 16, "clusters:l=4", 5,
     "dispersed time=123 moves=435 memBits=62 activations=1968"},
    {&kSync, "randtree", 16, "clusters:l=4", 10,
     "dispersed time=131 moves=504 memBits=62 activations=2096"},
    {&kSync, "randtree", 16, "clusters:l=4", 14,
     "dispersed time=78 moves=239 memBits=62 activations=1248"},
    {&kSync, "randtree", 16, "clusters:l=4", 30,
     "dispersed time=196 moves=635 memBits=62 activations=3136"},
    {&kSync, "randtree", 16, "adversarial:frontier,l=4", 10,
     "dispersed time=132 moves=481 memBits=62 activations=2112"},
    {&kSync, "randtree", 16, "adversarial:frontier,l=4", 27,
     "dispersed time=131 moves=484 memBits=62 activations=2096"},
    {&kSync, "randtree", 32, "clusters:l=8", 1,
     "dispersed time=251 moves=978 memBits=93 activations=8032"},
    {&kSync, "randtree", 32, "clusters:l=8", 14,
     "dispersed time=207 moves=1183 memBits=83 activations=6624"},
    {&kSync, "randtree", 32, "clusters:l=8", 25,
     "dispersed time=308 moves=1977 memBits=109 activations=9856"},
    {&kSync, "randtree", 64, "clusters:l=8", 9,
     "dispersed time=452 moves=5072 memBits=101 activations=28928"},
    {&kSync, "path", 64, "clusters:l=4", 24,
     "dispersed time=780 moves=7112 memBits=65 activations=49920"},
};

/// Runs the grid for one case over seeds [first, last] and returns its
/// digest.  Every failing run must be one of the pinned known-bad runs.
std::uint64_t sweepDigest(const Case& c, std::uint64_t first, std::uint64_t last) {
  std::set<std::string> expectedBad;
  for (const PinnedRun& bad : kKnownBad) {
    if (bad.c == &c && bad.seed >= first && bad.seed <= last) {
      expectedBad.insert(runName(bad.family, bad.k, bad.placement, bad.seed));
    }
  }
  std::set<std::string> bad;
  Fnv h;
  for (const char* family : kFamilies) {
    for (const std::uint32_t k : kKs) {
      for (const char* placement : c.placements) {
        for (std::uint64_t seed = first; seed <= last; ++seed) {
          const Outcome o = runOne(c, family, k, placement, seed);
          mixOutcome(h, o);
          if (o.failed()) bad.insert(runName(family, k, placement, seed));
        }
      }
    }
  }
  EXPECT_EQ(bad, expectedBad) << "the failing runs are not the pinned known-bad runs";
  return h.value();
}

void expectDigest(const Case& c, std::uint64_t first, std::uint64_t last,
                  std::uint64_t expected) {
  const std::uint64_t got = sweepDigest(c, first, last);
  EXPECT_EQ(hex(got), hex(expected))
      << c.algorithm << " " << c.scheduler << " seeds " << first << "-" << last;
}

// Digests recorded before the subsumption rules were shared by the two
// protocols (general_sync's re-recorded when it began acting on a rescan's
// finding); seeds 1-2 (tier-1) and 1-30 (full sweep).
TEST(GeneralSweep, SyncSeeds1To2) { expectDigest(kSync, 1, 2, 0x076c089030a0f989ULL); }
TEST(GeneralSweep, AsyncRoundRobinSeeds1To2) {
  expectDigest(kRoundRobin, 1, 2, 0xc3ff93338b79dccdULL);
}
TEST(GeneralSweep, AsyncShuffledSeeds1To2) {
  expectDigest(kShuffled, 1, 2, 0xcacb1a9b0def769fULL);
}
TEST(GeneralSweep, AsyncUniformSeeds1To2) {
  expectDigest(kUniform, 1, 2, 0xdc0fbe0aebc05eaeULL);
}
TEST(GeneralSweep, AsyncWeightedSeeds1To2) {
  expectDigest(kWeighted, 1, 2, 0x65f124436e702572ULL);
}

TEST(GeneralSweep, DISABLED_SyncSeeds1To30) {
  expectDigest(kSync, 1, 30, 0x9a236c36e99263c8ULL);
}
TEST(GeneralSweep, DISABLED_AsyncRoundRobinSeeds1To30) {
  expectDigest(kRoundRobin, 1, 30, 0x122bc7406d066dc0ULL);
}
TEST(GeneralSweep, DISABLED_AsyncShuffledSeeds1To30) {
  expectDigest(kShuffled, 1, 30, 0xc8178e1071c1b82fULL);
}
TEST(GeneralSweep, DISABLED_AsyncUniformSeeds1To30) {
  expectDigest(kUniform, 1, 30, 0x7b055f9fb0037c90ULL);
}
TEST(GeneralSweep, DISABLED_AsyncWeightedSeeds1To30) {
  expectDigest(kWeighted, 1, 30, 0x6453038a6f3a01b6ULL);
}

// Digests recorded before rooted_async and general_async shared their ASYNC
// growing phase; seeds 1-2 (tier-1) and 1-30 (full sweep).
TEST(GeneralSweep, RootedAsyncRoundRobinSeeds1To2) {
  expectDigest(kRootedRoundRobin, 1, 2, 0xbbe468619ff77692ULL);
}
TEST(GeneralSweep, RootedAsyncShuffledSeeds1To2) {
  expectDigest(kRootedShuffled, 1, 2, 0x6d272628deb5cfb5ULL);
}
TEST(GeneralSweep, RootedAsyncUniformSeeds1To2) {
  expectDigest(kRootedUniform, 1, 2, 0x30705905f64e453aULL);
}
TEST(GeneralSweep, RootedAsyncWeightedSeeds1To2) {
  expectDigest(kRootedWeighted, 1, 2, 0x10541ae60642260dULL);
}

TEST(GeneralSweep, DISABLED_RootedAsyncRoundRobinSeeds1To30) {
  expectDigest(kRootedRoundRobin, 1, 30, 0x28cfb1359a4e1cd6ULL);
}
TEST(GeneralSweep, DISABLED_RootedAsyncShuffledSeeds1To30) {
  expectDigest(kRootedShuffled, 1, 30, 0x824288d864c2adbaULL);
}
TEST(GeneralSweep, DISABLED_RootedAsyncUniformSeeds1To30) {
  expectDigest(kRootedUniform, 1, 30, 0xa65419679a0f3959ULL);
}
TEST(GeneralSweep, DISABLED_RootedAsyncWeightedSeeds1To30) {
  expectDigest(kRootedWeighted, 1, 30, 0x6be50218378c8543ULL);
}

// Digests recorded before the ASYNC engine parked idle agents; seeds 1-2
// (tier-1) and 1-30 (full sweep).
TEST(GeneralSweep, KsAsyncRoundRobinSeeds1To2) {
  expectDigest(kKsRoundRobin, 1, 2, 0x33869eea15f8cea2ULL);
}
TEST(GeneralSweep, KsAsyncShuffledSeeds1To2) {
  expectDigest(kKsShuffled, 1, 2, 0x3d23547b72525b38ULL);
}
TEST(GeneralSweep, KsAsyncUniformSeeds1To2) {
  expectDigest(kKsUniform, 1, 2, 0xfdb4a696718f62baULL);
}
TEST(GeneralSweep, KsAsyncWeightedSeeds1To2) {
  expectDigest(kKsWeighted, 1, 2, 0x8b5f0d14b7d1c71aULL);
}

TEST(GeneralSweep, DISABLED_KsAsyncRoundRobinSeeds1To30) {
  expectDigest(kKsRoundRobin, 1, 30, 0xd23071c114ce3896ULL);
}
TEST(GeneralSweep, DISABLED_KsAsyncShuffledSeeds1To30) {
  expectDigest(kKsShuffled, 1, 30, 0x88360ef4687e8fa4ULL);
}
TEST(GeneralSweep, DISABLED_KsAsyncUniformSeeds1To30) {
  expectDigest(kKsUniform, 1, 30, 0xb7728171da60e889ULL);
}
TEST(GeneralSweep, DISABLED_KsAsyncWeightedSeeds1To30) {
  expectDigest(kKsWeighted, 1, 30, 0x43d46e6b02f933baULL);
}

// Each pinned run keeps its recorded outcome: a known-bad run until it is
// fixed, a fixed run as a must-disperse regression.  One test per run, named
// after it.
class KnownBadRun : public ::testing::TestWithParam<PinnedRun> {};
class FixedRun : public ::testing::TestWithParam<PinnedRun> {};

Outcome runPinned(const PinnedRun& pin) {
  return runOne(*pin.c, pin.family, pin.k, pin.placement, pin.seed);
}

TEST_P(KnownBadRun, KeepsItsOutcome) {
  EXPECT_EQ(runPinned(GetParam()).text(), GetParam().outcome);
}

TEST_P(FixedRun, Disperses) {
  const Outcome o = runPinned(GetParam());
  EXPECT_FALSE(o.failed());
  EXPECT_EQ(o.text(), GetParam().outcome);
}

std::string pinnedName(const ::testing::TestParamInfo<PinnedRun>& info) {
  const PinnedRun& pin = info.param;
  std::string name = std::string(pin.c->algorithm) == "general_sync"
                         ? std::string("sync")
                         : std::string("async_") + pin.c->scheduler;
  name += "_" + runName(pin.family, pin.k, pin.placement, pin.seed);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(GeneralSweep, KnownBadRun, ::testing::ValuesIn(kKnownBad),
                         pinnedName);
INSTANTIATE_TEST_SUITE_P(GeneralSweep, FixedRun, ::testing::ValuesIn(kFixed), pinnedName);

}  // namespace
}  // namespace disp
