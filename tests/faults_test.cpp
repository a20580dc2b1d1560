// Tests for the fault-injection axis (core/faults.hpp, DESIGN.md §11):
// FaultSpec grammar round-trips, seed-deterministic schedules, engine
// integration verdicts (recovery, cap-as-verdict, protocol-error capture)
// and the faults="none" zero-overhead parity contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "algo/runner.hpp"
#include "core/faults.hpp"
#include "graph/generators.hpp"
#include "graph/spec.hpp"
#include "util/rng.hpp"

namespace disp {
namespace {

// ------------------------------------------------------------ spec grammar

TEST(FaultSpec, ParsesEveryKind) {
  EXPECT_EQ(FaultSpec::parse("none").kind(), FaultSpec::Kind::None);
  EXPECT_FALSE(FaultSpec::parse("none").any());

  const FaultSpec crash = FaultSpec::parse("crash:rate=0.25,restart=64");
  EXPECT_EQ(crash.kind(), FaultSpec::Kind::Crash);
  EXPECT_DOUBLE_EQ(crash.rate(), 0.25);
  EXPECT_EQ(crash.restart(), 64u);
  EXPECT_EQ(crash.window(), 0u);  // auto

  const FaultSpec churn = FaultSpec::parse("churn:edges=4,every=32,count=3");
  EXPECT_EQ(churn.kind(), FaultSpec::Kind::Churn);
  EXPECT_EQ(churn.edges(), 4u);
  EXPECT_EQ(churn.every(), 32u);
  EXPECT_EQ(churn.count(), 3u);
  EXPECT_EQ(FaultSpec::parse("churn:edges=1,every=5").count(), 8u);  // default

  const FaultSpec silent = FaultSpec::parse("silent:count=2");
  EXPECT_EQ(silent.kind(), FaultSpec::Kind::Silent);
  EXPECT_EQ(silent.count(), 2u);
}

TEST(FaultSpec, ToStringIsCanonicalAndRoundTrips) {
  // Parameters print in sorted key order; integer values normalize.
  EXPECT_EQ(FaultSpec::parse("crash:restart=064,rate=0.25").toString(),
            "crash:rate=0.25,restart=64");
  EXPECT_EQ(FaultSpec::parse("churn:count=3,every=32,edges=4").toString(),
            "churn:count=3,edges=4,every=32");
  EXPECT_EQ(FaultSpec::parse("none").toString(), "none");
  for (const char* s : {"none", "crash:rate=0.5", "crash:rate=1,restart=2",
                        "crash:rate=0.1,window=100", "churn:edges=2,every=7",
                        "silent:count=5"}) {
    const std::string canon = FaultSpec::parse(s).toString();
    EXPECT_EQ(FaultSpec::parse(canon).toString(), canon) << s;
    EXPECT_EQ(FaultSpec::parse(canon), FaultSpec::parse(s)) << s;
  }
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                            // empty
      "meteor:rate=1",               // unknown kind
      "none:x=1",                    // none takes no parameters
      "crash",                       // missing required rate
      "crash:restart=4",             // missing required rate
      "crash:rate=0",                // rate out of (0, 1]
      "crash:rate=1.5",              // rate out of (0, 1]
      "crash:rate=abc",              // non-numeric
      "crash:rate=0.5,rate=0.5",     // duplicate
      "crash:rate=0.5,bogus=1",      // unknown parameter
      "crash:rate=0.5,restart=0",    // restart must be >= 1
      "crash:rate=0.5,window=0",     // window must be >= 1
      "churn:edges=4",               // missing every
      "churn:every=4",               // missing edges
      "churn:edges=0,every=4",       // edges must be >= 1
      "churn:edges=4,every=0",       // every must be >= 1
      "churn:edges=4,every=4,count=0",     // count must be >= 1
      "churn:edges=4,every=4,count=5000",  // count capped at 4096
      "silent",                      // missing count
      "silent:count=0",              // count must be >= 1
  };
  for (const char* s : bad) {
    EXPECT_THROW((void)FaultSpec::parse(s), std::invalid_argument) << "'" << s << "'";
  }
}

// parse ↔ print round-trip fuzz (mirrors GraphSpec::RoundTripFuzz): random
// parameter subsets in random order must reach a canonical fixpoint.
TEST(FaultSpec, RoundTripFuzz) {
  Rng rng(20260807);
  const char* rates[] = {"0.1", "0.25", "0.5", "0.75", "1"};
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::string> parts;
    std::string head;
    switch (rng.below(3)) {
      case 0:
        head = "crash";
        parts.push_back(std::string("rate=") + rates[rng.below(5)]);
        if (rng.chance(0.5)) {
          parts.push_back("restart=" + std::to_string(1 + rng.below(512)));
        }
        if (rng.chance(0.5)) {
          parts.push_back("window=" + std::to_string(1 + rng.below(512)));
        }
        break;
      case 1:
        head = "churn";
        parts.push_back("edges=" + std::to_string(1 + rng.below(64)));
        parts.push_back("every=" + std::to_string(1 + rng.below(128)));
        if (rng.chance(0.5)) {
          parts.push_back("count=" + std::to_string(1 + rng.below(32)));
        }
        break;
      default:
        head = "silent";
        parts.push_back("count=" + std::to_string(1 + rng.below(64)));
        break;
    }
    rng.shuffle(parts);
    std::string text = head;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      text += (i == 0 ? ":" : ",") + parts[i];
    }
    const std::string canon = FaultSpec::parse(text).toString();
    EXPECT_EQ(FaultSpec::parse(canon).toString(), canon) << "from: " << text;
    EXPECT_EQ(FaultSpec::parse(canon), FaultSpec::parse(text)) << "from: " << text;
  }
}

// ------------------------------------------------------- schedule material

TEST(FaultInjector, ScheduleIsSeedDeterministic) {
  const Graph g = makeGraph("er:n=64,p=0.1", 0, 7);
  const FaultSpec spec = FaultSpec::parse("crash:rate=0.5,restart=16");
  const FaultInjector a(spec, g, 32, 42, /*async=*/false);
  const FaultInjector b(spec, g, 32, 42, /*async=*/false);
  ASSERT_FALSE(a.schedule().empty());
  EXPECT_EQ(a.schedule(), b.schedule());

  const FaultInjector c(spec, g, 32, 43, /*async=*/false);
  EXPECT_NE(a.schedule(), c.schedule());  // seed drives the schedule
}

TEST(FaultInjector, ScheduleIsTimeSortedAndCrashPairsWithRestart) {
  const Graph g = makeGraph("er:n=64,p=0.1", 0, 7);
  const FaultSpec spec = FaultSpec::parse("crash:rate=1,restart=20,window=10");
  const FaultInjector inj(spec, g, 16, 5, /*async=*/false);
  const auto& sched = inj.schedule();
  // rate=1: every agent crashes exactly once and restarts 20 units later.
  ASSERT_EQ(sched.size(), 32u);
  for (std::size_t i = 1; i < sched.size(); ++i) {
    EXPECT_LE(sched[i - 1].time, sched[i].time) << i;
  }
  std::uint64_t crashAt[16] = {};
  int crashes = 0, restarts = 0;
  for (const FaultEvent& e : sched) {
    if (e.type == FaultEvent::Type::Crash) {
      ++crashes;
      crashAt[e.agent] = e.time;
      EXPECT_GE(e.time, 1u);
      EXPECT_LE(e.time, 10u);  // inside the explicit window
    } else {
      ASSERT_EQ(e.type, FaultEvent::Type::Restart);
      ++restarts;
      EXPECT_EQ(e.time, crashAt[e.agent] + 20);
    }
  }
  EXPECT_EQ(crashes, 16);
  EXPECT_EQ(restarts, 16);
}

TEST(FaultInjector, AsyncScheduleScalesTimesByK) {
  const Graph g = makeGraph("er:n=64,p=0.1", 0, 7);
  const FaultSpec spec = FaultSpec::parse("crash:rate=1,restart=3,window=4");
  const std::uint32_t k = 16;
  const FaultInjector inj(spec, g, k, 5, /*async=*/true);
  for (const FaultEvent& e : inj.schedule()) {
    if (e.type == FaultEvent::Type::Crash) {
      EXPECT_LE(e.time, 1 + 4u * k);  // window scaled by k
    }
  }
}

TEST(FaultInjector, ChurnRestoresEveryEdgeAtTheEnd) {
  const Graph g = makeGraph("er:n=64,p=0.1", 0, 7);
  const FaultSpec spec = FaultSpec::parse("churn:edges=4,every=10,count=3");
  const FaultInjector inj(spec, g, 16, 9, /*async=*/false);
  const auto& sched = inj.schedule();
  ASSERT_EQ(sched.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sched[i].type, FaultEvent::Type::ChurnSet);
    EXPECT_EQ(sched[i].time, (i + 1) * 10u);
    EXPECT_EQ(sched[i].churnIndex, i);
  }
  EXPECT_FALSE(inj.churnSet(0).empty());
  EXPECT_TRUE(inj.churnSet(2).empty());  // final event restores all edges
}

TEST(FaultInjector, SilentRequiresFewerVictimsThanAgents) {
  const Graph g = makeGraph("er:n=16,p=0.3", 0, 7);
  const FaultSpec spec = FaultSpec::parse("silent:count=8");
  const FaultInjector ok(spec, g, 9, 1, /*async=*/false);
  std::set<AgentIx> victims;
  for (const FaultEvent& e : ok.schedule()) {
    EXPECT_EQ(e.type, FaultEvent::Type::Silent);
    EXPECT_EQ(e.time, 0u);
    victims.insert(e.agent);
  }
  EXPECT_EQ(victims.size(), 8u);  // distinct
  EXPECT_THROW((FaultInjector(spec, g, 8, 1, false)), std::invalid_argument);
}

// --------------------------------------------------------- session verdicts

TEST(FaultSession, AsyncCrashRestartSelfStabilizes) {
  RunOptions opts;
  opts.algorithm = "rooted_async";
  opts.seed = 17;
  opts.limit = 200000;
  opts.faults = "crash:rate=0.25,restart=64";
  const RunResult r = runScenario("er", "rooted", 24, opts);
  EXPECT_TRUE(r.dispersed);
  EXPECT_TRUE(r.recovered);
  EXPECT_FALSE(r.limitHit);
  EXPECT_GT(r.faultsInjected, 0u);
  EXPECT_GE(r.recoveredAt, 1u);
  EXPECT_TRUE(r.protocolError.empty());
}

TEST(FaultSession, CrashStopHitsTheCapAsAVerdictNotAnError) {
  RunOptions opts;
  opts.algorithm = "rooted_async";
  opts.seed = 17;
  opts.limit = 50000;
  opts.faults = "crash:rate=0.25";  // no restart: crash-stop
  const RunResult r = runScenario("er", "rooted", 24, opts);
  EXPECT_TRUE(r.limitHit);  // reported, not thrown
  EXPECT_FALSE(r.recovered);
  EXPECT_FALSE(r.dispersed);
  EXPECT_GT(r.faultsInjected, 0u);
}

TEST(FaultSession, SyncProtocolInvariantViolationIsReported) {
  // SYNC group protocols desync their belief when staged moves are dropped;
  // their internal invariants trip.  Under faults that is a robustness
  // verdict (protocolError), never a throw.
  RunOptions opts;
  opts.algorithm = "rooted_sync";
  opts.seed = 17;
  opts.limit = 4000;
  opts.faults = "crash:rate=0.25,restart=64";
  const RunResult r = runScenario("er", "rooted", 24, opts);
  EXPECT_FALSE(r.protocolError.empty());
  EXPECT_FALSE(r.recovered);
  EXPECT_FALSE(r.dispersed);
}

TEST(FaultSession, SilentAgentsPreventDispersionButNotTheRun) {
  RunOptions opts;
  opts.algorithm = "rooted_async";
  opts.seed = 17;
  opts.limit = 50000;
  opts.faults = "silent:count=2";
  const RunResult r = runScenario("er", "rooted", 24, opts);
  EXPECT_EQ(r.faultsInjected, 2u);
  EXPECT_TRUE(r.limitHit);
  EXPECT_FALSE(r.recovered);
}

// Every registered protocol, run twice under crash-restart faults, reports
// the same facts and verdicts.  The SYNC protocols do not recover from
// crash-restart (E20), so their runs get a round cap instead of the auto
// limit; a capped run must hit it, or fail, the same way both times.
TEST(FaultSession, FaultRunsAreSeedDeterministic) {
  struct Case {
    const char* algo;
    std::uint64_t limit;
  };
  const Case cases[] = {
      {"rooted_sync", 4000},    {"general_sync", 4000},    {"ks_sync", 4000},
      {"rooted_async", 200000}, {"general_async", 200000}, {"ks_async", 200000},
  };
  const auto runOnce = [](const Case& c) {
    RunOptions opts;
    opts.algorithm = c.algo;
    opts.seed = 11;
    opts.limit = c.limit;
    opts.faults = "crash:rate=0.3,restart=32";
    return runScenario("er", "rooted", 20, opts);
  };
  for (const Case& c : cases) {
    const RunResult a = runOnce(c);
    const RunResult b = runOnce(c);
    EXPECT_EQ(a.dispersed, b.dispersed) << c.algo;
    EXPECT_EQ(a.time, b.time) << c.algo;
    EXPECT_EQ(a.totalMoves, b.totalMoves) << c.algo;
    EXPECT_EQ(a.finalPositions, b.finalPositions) << c.algo;
    EXPECT_EQ(a.recovered, b.recovered) << c.algo;
    EXPECT_EQ(a.recoveredAt, b.recoveredAt) << c.algo;
    EXPECT_EQ(a.faultsInjected, b.faultsInjected) << c.algo;
    EXPECT_EQ(a.limitHit, b.limitHit) << c.algo;
    EXPECT_EQ(a.protocolError, b.protocolError) << c.algo;
    EXPECT_GT(a.faultsInjected, 0u) << c.algo;
  }
}

TEST(FaultSession, FaultTraceEventsAreEmittedAndTimeSorted) {
  RunOptions opts;
  opts.algorithm = "rooted_async";
  opts.seed = 17;
  opts.limit = 200000;
  opts.faults = "crash:rate=0.5,restart=32";
  std::vector<TraceEvent> events;
  opts.onEvent = [&events](const TraceEvent& e) { events.push_back(e); };
  const RunResult r = runScenario("er", "rooted", 24, opts);
  std::uint64_t crashes = 0, restarts = 0, lastT = 0;
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.time, lastT);
    lastT = e.time;
    if (e.kind == TraceEventKind::FaultCrash) ++crashes;
    if (e.kind == TraceEventKind::FaultRestart) ++restarts;
  }
  EXPECT_EQ(crashes + restarts, r.faultsInjected);
  EXPECT_EQ(crashes, restarts);  // every crash-restart pair fired
  EXPECT_GT(crashes, 0u);
}

// -------------------------------------------------- zero-overhead parity

TEST(FaultSession, NoneIsByteIdenticalToDefaultOptions) {
  for (const char* algo : {"rooted_sync", "general_sync", "ks_sync",
                           "rooted_async", "general_async", "ks_async"}) {
    RunOptions plain;
    plain.algorithm = algo;
    plain.seed = 9;
    const RunResult a = runScenario("er", "rooted", 24, plain);

    RunOptions none = plain;
    none.faults = "none";
    const RunResult b = runScenario("er", "rooted", 24, none);

    EXPECT_EQ(a.dispersed, b.dispersed) << algo;
    EXPECT_EQ(a.time, b.time) << algo;
    EXPECT_EQ(a.activations, b.activations) << algo;
    EXPECT_EQ(a.totalMoves, b.totalMoves) << algo;
    EXPECT_EQ(a.maxMemoryBits, b.maxMemoryBits) << algo;
    EXPECT_EQ(a.finalPositions, b.finalPositions) << algo;
    // Fault-free verdicts: recovery mirrors dispersal, nothing injected.
    EXPECT_EQ(b.recovered, b.dispersed) << algo;
    EXPECT_EQ(b.recoveredAt, 0u) << algo;
    EXPECT_EQ(b.faultsInjected, 0u) << algo;
    EXPECT_FALSE(b.limitHit) << algo;
  }
}

}  // namespace
}  // namespace disp
