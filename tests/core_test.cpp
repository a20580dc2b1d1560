// Tests for the simulation core: world moves/pin semantics, SYNC rounds and
// fiber scheduling, ASYNC activations, park/wake and the epoch counter,
// schedulers, memory ledger, placements.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "algo/placement.hpp"
#include "core/async_engine.hpp"
#include "core/fiber.hpp"
#include "core/memory.hpp"
#include "core/metrics.hpp"
#include "core/scheduler.hpp"
#include "core/sync_engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algos.hpp"
#include "graph/spec.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace disp {
namespace {

std::vector<AgentId> seqIds(std::uint32_t k) {
  std::vector<AgentId> ids(k);
  for (std::uint32_t i = 0; i < k; ++i) ids[i] = i + 1;
  return ids;
}

// ------------------------------------------------------------------ world

TEST(World, RejectsBadConstruction) {
  const Graph g = makePath(3).build();
  EXPECT_THROW(World(g, {}, {}), std::invalid_argument);                 // no agents
  EXPECT_THROW(World(g, {0, 1}, {1}), std::invalid_argument);           // size mismatch
  EXPECT_THROW(World(g, {0, 0, 0, 0}, seqIds(4)), std::invalid_argument);  // k > n
  EXPECT_THROW(World(g, {0, 1}, {5, 5}), std::invalid_argument);        // dup ids
  EXPECT_THROW(World(g, {7, 0}, seqIds(2)), std::invalid_argument);     // bad node
}

TEST(World, MoveUpdatesPinAndOccupancy) {
  const Graph g = makePath(3).build();
  World w(g, {0, 0}, seqIds(2));
  EXPECT_EQ(w.pinOf(0), kNoPort);
  w.applyMove(0, 1);  // 0 -> 1
  EXPECT_EQ(w.positionOf(0), 1u);
  EXPECT_EQ(w.pinOf(0), g.reversePort(0, 1));
  EXPECT_EQ(w.agentsAt(0).size(), 1u);
  EXPECT_EQ(w.agentsAt(1).size(), 1u);
  EXPECT_EQ(w.totalMoves(), 1u);
  // Return trip restores co-location.
  w.applyMove(0, w.pinOf(0));
  EXPECT_EQ(w.positionOf(0), 0u);
  EXPECT_EQ(w.agentsAt(0).size(), 2u);
}

TEST(World, RejectsInvalidPort) {
  const Graph g = makePath(3).build();
  World w(g, {0}, seqIds(1));
  EXPECT_THROW(w.applyMove(0, 0), std::invalid_argument);
  EXPECT_THROW(w.applyMove(0, 2), std::invalid_argument);  // endpoint has degree 1
}

// ------------------------------------------------------------ sync engine

// A fiber that walks one agent to the end of a path, one edge per round.
Task walkRight(SyncEngine& e, AgentIx a, std::uint32_t steps) {
  for (std::uint32_t i = 0; i < steps; ++i) {
    const NodeId at = e.positionOf(a);
    // On a path built in insertion order, the "right" port is 2 internally,
    // 1 at the left endpoint.
    const Port p = (at == 0) ? 1 : 2;
    e.stageMove(a, p);
    co_await e.nextRound();
  }
}

TEST(SyncEngine, MovesCommitPerRound) {
  const Graph g = makePath(6).build();
  SyncEngine e(g, {0}, seqIds(1));
  e.addFiber(walkRight(e, 0, 5));
  e.run(100);
  EXPECT_EQ(e.positionOf(0), 5u);
  EXPECT_EQ(e.round(), 5u);
  EXPECT_EQ(e.totalMoves(), 5u);
}

Task meetInMiddle(SyncEngine& e, AgentIx left, AgentIx right, bool& met) {
  // left starts at 0, right at 2 on a path of 3; they swap toward node 1.
  e.stageMove(left, 1);
  e.stageMove(right, 1);
  co_await e.nextRound();
  met = e.agentsAt(1).size() == 2;
}

TEST(SyncEngine, SimultaneousMovesMeet) {
  const Graph g = makePath(3).build();
  SyncEngine e(g, {0, 2}, seqIds(2));
  bool met = false;
  e.addFiber(meetInMiddle(e, 0, 1, met));
  e.run(10);
  EXPECT_TRUE(met);
}

Task doubleStage(SyncEngine& e, AgentIx a) {
  e.stageMove(a, 1);
  e.stageMove(a, 1);  // must throw
  co_await e.nextRound();
}

TEST(SyncEngine, DoubleStageIsRejected) {
  const Graph g = makePath(3).build();
  SyncEngine e(g, {1}, seqIds(1));
  e.addFiber(doubleStage(e, 0));
  EXPECT_THROW(e.run(10), std::logic_error);
}

Task idleForever(SyncEngine& e) {
  for (;;) co_await e.nextRound();
}

TEST(SyncEngine, RoundLimitGuardsDeadlock) {
  const Graph g = makePath(3).build();
  SyncEngine e(g, {0}, seqIds(1));
  e.addFiber(idleForever(e));
  EXPECT_THROW(e.run(50), std::runtime_error);
}

Task nestedInner(SyncEngine& e, int& log) {
  log = log * 10 + 2;
  co_await e.nextRound();
  log = log * 10 + 3;
}

Task nestedOuter(SyncEngine& e, int& log) {
  log = log * 10 + 1;
  co_await nestedInner(e, log);
  log = log * 10 + 4;
  co_await e.nextRound();
  log = log * 10 + 5;
}

TEST(SyncEngine, NestedTasksInterleaveWithRounds) {
  const Graph g = makePath(3).build();
  SyncEngine e(g, {0}, seqIds(1));
  int log = 0;
  e.addFiber(nestedOuter(e, log));
  e.run(10);
  EXPECT_EQ(log, 12345);
  EXPECT_EQ(e.round(), 2u);  // two awaited rounds
}

Task throwingFiber(SyncEngine& e) {
  co_await e.nextRound();
  throw std::runtime_error("protocol bug");
}

TEST(SyncEngine, FiberExceptionsPropagate) {
  const Graph g = makePath(3).build();
  SyncEngine e(g, {0}, seqIds(1));
  e.addFiber(throwingFiber(e));
  EXPECT_THROW(e.run(10), std::runtime_error);
}

Task twoFiberPing(SyncEngine& e, AgentIx a, std::uint32_t rounds) {
  for (std::uint32_t i = 0; i < rounds; ++i) {
    const NodeId at = e.positionOf(a);
    const Port out = (at == 0) ? 1 : e.pinOf(a);
    e.stageMove(a, out);
    co_await e.nextRound();
  }
}

TEST(SyncEngine, MultipleFibersAdvanceInLockstep) {
  const Graph g = makeStar(5).build();
  SyncEngine e(g, {0, 0}, seqIds(2));
  e.addFiber(twoFiberPing(e, 0, 4));
  e.addFiber(twoFiberPing(e, 1, 6));
  e.run(20);
  // Both walked an even number of hops from the hub: back at the hub.
  EXPECT_EQ(e.positionOf(0), 0u);
  EXPECT_EQ(e.positionOf(1), 0u);
  EXPECT_EQ(e.round(), 6u);
}

TEST(SyncEngine, RoundHookRunsEveryRound) {
  const Graph g = makePath(4).build();
  SyncEngine e(g, {0}, seqIds(1));
  int hookCount = 0;
  e.addRoundHook([&] { ++hookCount; });
  e.addFiber(walkRight(e, 0, 3));
  e.run(10);
  EXPECT_EQ(hookCount, 3);
}

// ----------------------------------------------------------- async engine

// Agent program: walk right `steps` edges, one per activation, then stop.
Task asyncWalk(AsyncEngine& e, AgentIx a, std::uint32_t steps, bool leader) {
  for (std::uint32_t i = 0; i < steps; ++i) {
    co_await e.nextActivation(a);
    const NodeId at = e.positionOf(a);
    e.move(a, at == 0 ? 1 : 2);
  }
  if (leader) e.finish();
  for (;;) co_await e.nextActivation(a);
}

TEST(AsyncEngine, RoundRobinEpochsMatchSweeps) {
  const Graph g = makePath(8).build();
  AsyncEngine e(g, {0, 0}, seqIds(2), makeRoundRobinScheduler(2));
  e.setAgentFiber(0, asyncWalk(e, 0, 6, false));
  e.setAgentFiber(1, asyncWalk(e, 1, 6, true));
  e.run(10000);
  EXPECT_EQ(e.positionOf(0), 6u);
  EXPECT_EQ(e.positionOf(1), 6u);
  // Under round-robin, each sweep of k activations is exactly one epoch.
  EXPECT_EQ(e.epochs(), 6u);
}

TEST(AsyncEngine, EpochCountsUnderAllSchedulers) {
  for (const auto& name : knownSchedulers()) {
    const Graph g = makePath(12).build();
    AsyncEngine e(g, {0, 0, 0}, seqIds(3), makeSchedulerByName(name, 3, 99));
    e.setAgentFiber(0, asyncWalk(e, 0, 10, false));
    e.setAgentFiber(1, asyncWalk(e, 1, 10, false));
    e.setAgentFiber(2, asyncWalk(e, 2, 10, true));
    e.run(1000000);
    EXPECT_EQ(e.positionOf(2), 10u) << name;
    // Epochs track the *slowest* agent: an agent may complete many cycles
    // inside one epoch, so the only universal bounds are these.
    EXPECT_GE(e.epochs(), 1u) << name;
    EXPECT_LE(e.epochs(), e.activations() / 3 + 1) << name;
    EXPECT_GT(e.activations(), 0u) << name;
  }
}

Task moveTwicePerActivation(AsyncEngine& e, AgentIx a) {
  co_await e.nextActivation(a);
  e.move(a, 1);
  e.move(a, 1);  // must throw: one move per CCM cycle
}

TEST(AsyncEngine, SecondMoveInOneActivationRejected) {
  const Graph g = makePath(4).build();
  AsyncEngine e(g, {0}, seqIds(1), makeRoundRobinScheduler(1));
  e.setAgentFiber(0, moveTwicePerActivation(e, 0));
  EXPECT_THROW(e.run(100), std::logic_error);
}

TEST(AsyncEngine, ActivationCapGuardsNonTermination) {
  const Graph g = makePath(4).build();
  AsyncEngine e(g, {0}, seqIds(1), makeRoundRobinScheduler(1));
  e.setAgentFiber(0, asyncWalk(e, 0, 2, false));  // never calls finish()
  EXPECT_THROW(e.run(500), std::runtime_error);
}

// Park/wake: a boss (agent 0) writes `orders` walk orders into a shared
// mailbox, one every third activation; the worker (agent 1) takes one per
// activation, stepping right along the path.  The boss finishes once every
// order is done.
struct Mailbox {
  std::uint32_t pending = 0;
  std::uint32_t done = 0;
  std::uint32_t unwoken = 0;  // worker resumes the idle audit made
};

Task boss(AsyncEngine& e, Mailbox& box, std::uint32_t orders, bool wake) {
  for (std::uint32_t i = 0; i < orders; ++i) {
    for (int j = 0; j < 3; ++j) co_await e.nextActivation(0);
    ++box.pending;
    if (wake) e.wake(1);
  }
  while (box.done < orders) co_await e.nextActivation(0);
  e.finish();
  for (;;) co_await e.nextActivation(0);
}

Task worker(AsyncEngine& e, Mailbox& box, bool park) {
  for (;;) {
    if (park && box.pending == 0) {
      for (bool woken = false; !woken;) {
        woken = co_await e.park(1);
        if (!woken) ++box.unwoken;
        DISP_CHECK(woken || box.pending == 0, "parked agent given work without a wake");
      }
    } else {
      co_await e.nextActivation(1);
    }
    if (box.pending > 0) {
      --box.pending;
      ++box.done;
      e.move(1, e.positionOf(1) == 0 ? 1 : 2);
    }
  }
}

TEST(AsyncEngine, ParkedAgentMatchesItsPollingTwin) {
  const Graph g = makePath(12).build();
  for (const auto& name : knownSchedulers()) {
    const auto run = [&](bool park, bool wake, Mailbox& box) {
      AsyncEngine e(g, {0, 0}, seqIds(2), makeSchedulerByName(name, 2, 5));
      e.setAgentFiber(0, boss(e, box, 8, wake));
      e.setAgentFiber(1, worker(e, box, park));
      e.run(100000);
      return std::tuple{e.positionsSnapshot(), e.activations(), e.epochs()};
    };
    Mailbox polled, polledWoken, parked;
    const auto want = run(false, false, polled);
    EXPECT_EQ(std::get<0>(want)[1], 8u) << name;
    // Waking an agent that is not parked (it awaits nextActivation) is a
    // no-op.
    EXPECT_EQ(run(false, true, polledWoken), want) << name;
    EXPECT_EQ(run(true, true, parked), want) << name;
#ifdef NDEBUG
    EXPECT_EQ(parked.unwoken, 0u) << name;  // parked activations never resume
#else
    EXPECT_GT(parked.unwoken, 0u) << name;  // the audit resumes them unwoken
#endif
  }
}

Task parkOther(AsyncEngine& e) { co_await e.park(1); }

TEST(AsyncEngine, ParkOutsideTheAgentsOwnTurnThrows) {
  const Graph g = makePath(4).build();
  AsyncEngine e(g, {0, 0}, seqIds(2), makeRoundRobinScheduler(2));
  EXPECT_THROW((void)e.park(0), std::logic_error);  // no agent's turn
  e.setAgentFiber(0, parkOther(e));                 // agent 0 parks agent 1
  e.setAgentFiber(1, asyncWalk(e, 1, 1, true));
  EXPECT_THROW(e.run(100), std::logic_error);
}

TEST(AsyncEngine, IdleAuditCatchesWorkWrittenWithoutAWake) {
#ifdef NDEBUG
  GTEST_SKIP() << "the idle audit runs only in !NDEBUG builds";
#else
  const Graph g = makePath(12).build();
  Mailbox box;
  AsyncEngine e(g, {0, 0}, seqIds(2), makeRoundRobinScheduler(2));
  e.setAgentFiber(0, boss(e, box, 1, /*wake=*/false));
  e.setAgentFiber(1, worker(e, box, /*park=*/true));
  try {
    e.run(1000);
    FAIL() << "the idle audit missed an order written without a wake";
  } catch (const std::logic_error& err) {
    EXPECT_NE(std::string(err.what()).find("without a wake"), std::string::npos)
        << err.what();
  }
#endif
}

// ------------------------------------------------------------- schedulers

TEST(Scheduler, AllAreFairOverLongRuns) {
  constexpr std::uint32_t k = 5;
  for (const auto& name : knownSchedulers()) {
    auto s = makeSchedulerByName(name, k, 7);
    std::map<std::uint32_t, int> hist;
    for (int i = 0; i < 20000; ++i) ++hist[s->next()];
    EXPECT_EQ(hist.size(), k) << name << " starved an agent";
    for (const auto& [agent, count] : hist) {
      EXPECT_GT(count, 100) << name << " agent " << agent;
    }
  }
}

TEST(Scheduler, WeightedSkewsRatios) {
  auto s = makeWeightedScheduler(4, {0}, 10, 13);
  std::map<std::uint32_t, int> hist;
  for (int i = 0; i < 40000; ++i) ++hist[s->next()];
  // Agent 0 should be activated ~10x less often than others.
  EXPECT_LT(hist[0] * 5, hist[1]);
}

TEST(Scheduler, UnknownNameThrows) {
  EXPECT_THROW((void)makeSchedulerByName("bogus", 3, 1), std::invalid_argument);
}

// ------------------------------------------------------------- memory

TEST(Memory, BitsForWidths) {
  EXPECT_EQ(bitsFor(0), 1u);
  EXPECT_EQ(bitsFor(1), 1u);
  EXPECT_EQ(bitsFor(7), 3u);
  EXPECT_EQ(bitsFor(8), 4u);
}

TEST(Memory, LedgerTracksHighWater) {
  MemoryLedger ledger(3);
  ledger.record(0, 10);
  ledger.record(1, 25);
  ledger.record(0, 5);  // lower than before; high water stays
  EXPECT_EQ(ledger.maxBits(), 25u);
  EXPECT_EQ(ledger.bitsOf(0), 10u);
}

TEST(Memory, WidthsForRun) {
  const auto w = BitWidths::forRun(/*maxId=*/4096, /*maxDegree=*/100, /*k=*/1024);
  EXPECT_EQ(w.id, 13u);
  EXPECT_EQ(w.port, 7u);   // values 0..101
  EXPECT_EQ(w.count, 11u);  // values 0..1024
}

// ------------------------------------------------------------- metrics

TEST(Metrics, IsDispersedDetectsCollisions) {
  EXPECT_TRUE(isDispersed({0, 1, 2}));
  EXPECT_FALSE(isDispersed({0, 1, 0}));
  EXPECT_TRUE(isDispersed({5}));
}

// ------------------------------------------------------------ placements

TEST(Placement, RootedAllOnRoot) {
  const Graph g = makePath(10).build();
  const auto p = rootedPlacement(g, 6, 3, 42);
  EXPECT_EQ(p.positions.size(), 6u);
  for (const NodeId v : p.positions) EXPECT_EQ(v, 3u);
  std::set<AgentId> ids(p.ids.begin(), p.ids.end());
  EXPECT_EQ(ids.size(), 6u);
  for (const AgentId id : ids) {
    EXPECT_GE(id, 1u);
    EXPECT_LE(id, 24u);
  }
}

TEST(Placement, ClusteredUsesExactlyLClusters) {
  const Graph g = makeGraph("er", 40, 11);
  const auto p = clusteredPlacement(g, 20, 4, 17);
  std::set<NodeId> nodes(p.positions.begin(), p.positions.end());
  EXPECT_EQ(nodes.size(), 4u);
}

TEST(Placement, ScatteredIsDispersed) {
  const Graph g = makeGraph("er", 50, 19);
  const auto p = scatteredPlacement(g, 30, 21);
  EXPECT_TRUE(isDispersed(p.positions));
}

TEST(Placement, RejectsBadParameters) {
  const Graph g = makePath(5).build();
  EXPECT_THROW((void)rootedPlacement(g, 9, 0, 1), std::invalid_argument);   // k > n
  EXPECT_THROW((void)clusteredPlacement(g, 3, 9, 1), std::invalid_argument);  // l > k
}

// ---------------------------------------------------------- placement spec

TEST(PlacementSpec, ParsePrintRoundTrip) {
  // Canonical strings are fixpoints; defaults are elided.
  for (const std::string canon :
       {"rooted", "rooted:root=5", "clusters:l=8", "spread", "adversarial:far",
        "adversarial:far,l=4", "adversarial:frontier", "adversarial:frontier,l=4",
        "adversarial:hot"}) {
    EXPECT_EQ(PlacementSpec::parse(canon).toString(), canon);
  }
  EXPECT_EQ(PlacementSpec::parse("rooted:root=0").toString(), "rooted");
  EXPECT_EQ(PlacementSpec::parse("clusters:l=02").toString(), "clusters:l=2");
  EXPECT_EQ(PlacementSpec::parse("adversarial:far,l=2").toString(),
            "adversarial:far");
  EXPECT_EQ(PlacementSpec::parse("adversarial:frontier,l=2").toString(),
            "adversarial:frontier");
}

// Round-trip fuzz across the whole grammar: any generated spelling must
// reach a canonical fixpoint in one parse+print.
TEST(PlacementSpec, RoundTripFuzz) {
  Rng rng(0x5ca1ab1eULL);
  for (int iter = 0; iter < 300; ++iter) {
    std::string text;
    switch (rng.below(6)) {
      case 0:
        text = rng.chance(0.5) ? "rooted"
                               : "rooted:root=" + std::to_string(rng.below(1000));
        break;
      case 1:
        text = "clusters:l=" + std::to_string(1 + rng.below(64));
        break;
      case 2:
        text = "spread";
        break;
      case 3:
        text = rng.chance(0.5)
                   ? "adversarial:far"
                   : "adversarial:far,l=" + std::to_string(1 + rng.below(64));
        break;
      case 4:
        text = rng.chance(0.5)
                   ? "adversarial:frontier"
                   : "adversarial:frontier,l=" + std::to_string(1 + rng.below(64));
        break;
      default:
        text = "adversarial:hot";
        break;
    }
    const std::string canon = PlacementSpec::parse(text).toString();
    EXPECT_EQ(PlacementSpec::parse(canon).toString(), canon) << "from: " << text;
  }
}

TEST(PlacementSpec, ParseRejectsUnknownKindsAndParams) {
  for (const std::string bad :
       {"cluster:l=2", "rooted:x=1", "clusters:l=abc", "adversarial:cold",
        "adversarial", "spread:l=2", "clusters:l=0", "",
        "adversarial:frontier,x=2", "adversarial:frontier,l=0"}) {
    EXPECT_THROW((void)PlacementSpec::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(PlacementSpec, KindsMapToTheFreeFunctions) {
  const Graph g = makeGraph("er", 40, 11);
  const auto eq = [](const Placement& a, const Placement& b) {
    EXPECT_EQ(a.positions, b.positions);
    EXPECT_EQ(a.ids, b.ids);
  };
  eq(PlacementSpec::parse("rooted").place(g, 10, 7), rootedPlacement(g, 10, 0, 7));
  eq(PlacementSpec::parse("rooted:root=3").place(g, 10, 7),
     rootedPlacement(g, 10, 3, 7));
  eq(PlacementSpec::parse("clusters:l=4").place(g, 10, 7),
     clusteredPlacement(g, 10, 4, 7));
  eq(PlacementSpec::parse("spread").place(g, 10, 7), scatteredPlacement(g, 10, 7));
  eq(PlacementSpec::parse("adversarial:hot").place(g, 10, 7),
     adversarialHotPlacement(g, 10, 7));
  eq(PlacementSpec::parse("adversarial:far,l=3").place(g, 9, 7),
     adversarialFarPlacement(g, 9, 3, 7));
  eq(PlacementSpec::parse("adversarial:frontier,l=3").place(g, 9, 7),
     adversarialFrontierPlacement(g, 9, 3, 7));
}

TEST(Placement, FrontierMatchesStableSortReference) {
  // The historical rule: stable-sort every node reachable from node 0 by
  // BFS depth, deepest first (ties in id order), and keep the first l.
  for (const char* spec : {"er", "randtree", "grid", "ba"}) {
    for (const std::uint64_t seed : {3ULL, 8ULL}) {
      const Graph g = makeGraph(spec, 300, seed);
      const std::vector<std::uint32_t> dist = bfsDistances(g, 0);
      std::vector<NodeId> order;
      for (NodeId v = 0; v < g.nodeCount(); ++v) {
        if (dist[v] != kUnreachable) order.push_back(v);
      }
      std::stable_sort(order.begin(), order.end(),
                       [&dist](NodeId a, NodeId b) { return dist[a] > dist[b]; });
      for (const std::uint32_t l : {1U, 2U, 3U, 7U, 40U}) {
        const Placement p = adversarialFrontierPlacement(g, 80, l, seed);
        ASSERT_EQ(p.positions.size(), 80u);
        for (std::uint32_t a = 0; a < 80; ++a) {
          EXPECT_EQ(p.positions[a], order[a % l])
              << spec << " seed " << seed << " l " << l << " agent " << a;
        }
      }
    }
  }
}

TEST(PlacementSpec, TableLabelsMatchHistoricalClusterColumn) {
  EXPECT_EQ(PlacementSpec::parse("rooted").tableLabel(), "1");
  EXPECT_EQ(PlacementSpec::parse("clusters:l=8").tableLabel(), "8");
  EXPECT_EQ(PlacementSpec::parse("spread").tableLabel(), "spread");
  EXPECT_EQ(PlacementSpec::parse("adversarial:far").tableLabel(), "far:2");
  EXPECT_EQ(PlacementSpec::parse("adversarial:frontier,l=3").tableLabel(),
            "frontier:3");
  EXPECT_EQ(PlacementSpec::parse("adversarial:hot").tableLabel(), "hot");
}

// The adversarial:far invariant (ISSUE satellite): with the default l = 2
// the two centers sit a full diameter apart — in particular >= diameter/2.
TEST(Placement, AdversarialFarSeparatesClustersByDiameter) {
  for (const std::string spec :
       {"path:n=40", "grid:rows=7,cols=7", "er:n=100", "randtree:n=80",
        "cycle:n=30", "lollipop:n=40,clique=10"}) {
    const Graph g = makeGraph(spec, 0, 13);
    const std::uint32_t diam = diameter(g);
    const Placement p = adversarialFarPlacement(g, 12, 2, 13);
    std::set<NodeId> centers(p.positions.begin(), p.positions.end());
    ASSERT_EQ(centers.size(), 2u) << spec;
    const NodeId a = *centers.begin();
    const NodeId b = *std::next(centers.begin());
    const std::uint32_t dist = bfsDistances(g, a)[b];
    EXPECT_EQ(dist, diam) << spec;  // far:2 achieves the full diameter
    EXPECT_GE(dist, (diam + 1) / 2) << spec;
    // Deterministic: same graph, any seed -> same centers.
    const Placement q = adversarialFarPlacement(g, 12, 2, 999);
    EXPECT_EQ(p.positions, q.positions) << spec;
  }
  // l = 4 on a grid: four pairwise-distinct, pairwise-remote centers.
  const Graph g = makeGraph("grid:rows=8,cols=8", 0, 3);
  const Placement p = adversarialFarPlacement(g, 16, 4, 3);
  std::set<NodeId> centers(p.positions.begin(), p.positions.end());
  EXPECT_EQ(centers.size(), 4u);
}

// The adversarial:frontier invariant: centers are the deepest BFS levels
// from node 0 — every center is at least as deep as every non-center.
TEST(Placement, AdversarialFrontierPicksTheDeepestBfsLevels) {
  // Exact on a path: BFS depth from node 0 is the node id, so the l = 2
  // centers are the two far-end nodes.
  const Graph path = makePath(12).build();
  const Placement onPath = adversarialFrontierPlacement(path, 6, 2, 5);
  const std::set<NodeId> pathCenters(onPath.positions.begin(),
                                     onPath.positions.end());
  EXPECT_EQ(pathCenters, (std::set<NodeId>{10, 11}));

  for (const std::string spec :
       {"path:n=40", "grid:rows=7,cols=7", "er:n=100", "randtree:n=80",
        "cycle:n=30", "lollipop:n=40,clique=10"}) {
    const Graph g = makeGraph(spec, 0, 13);
    const std::uint32_t l = 4;
    const Placement p = adversarialFrontierPlacement(g, 12, l, 13);
    const std::set<NodeId> centers(p.positions.begin(), p.positions.end());
    ASSERT_EQ(centers.size(), l) << spec;
    // Recompute the property from scratch: min depth over centers >= max
    // depth over excluded nodes (the centers are a deepest-first prefix).
    const std::vector<std::uint32_t> dist = bfsDistances(g, 0);
    std::uint32_t minCenter = kUnreachable;
    for (const NodeId c : centers) minCenter = std::min(minCenter, dist[c]);
    for (NodeId v = 0; v < g.nodeCount(); ++v) {
      if (centers.count(v) > 0) continue;
      EXPECT_GE(minCenter, dist[v]) << spec << " node " << v;
    }
    // Deterministic positions: the seed only drives the agent IDs.
    const Placement q = adversarialFrontierPlacement(g, 12, l, 999);
    EXPECT_EQ(p.positions, q.positions) << spec;
    EXPECT_NE(p.ids, q.ids) << spec;
  }
}

// The adversarial:hot invariant: every agent starts on an argmax-degree
// node.
TEST(Placement, AdversarialHotCoLocatesOnMaxDegreeNode) {
  for (const std::string spec : {"star:n=30", "er:n=80", "wheel:n=20"}) {
    const Graph g = makeGraph(spec, 0, 23);
    const Placement p = adversarialHotPlacement(g, 10, 23);
    ASSERT_FALSE(p.positions.empty());
    const NodeId hub = p.positions.front();
    EXPECT_EQ(g.degree(hub), g.maxDegree()) << spec;
    for (const NodeId v : p.positions) EXPECT_EQ(v, hub) << spec;
  }
}

}  // namespace
}  // namespace disp
