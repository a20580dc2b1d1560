// Tests for the oscillator subsystem: trip shapes, the ≤ 6-round cycle
// (Lemma 2), the "every covered node visited within any 7 consecutive
// snapshots" property that Sync_Probe relies on, stop addition/removal
// rules and Lemma 3 type exclusivity; and that oscillators moved on read
// (no observer) show every reader the state the per-round stepper (an
// observer installed) leaves.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "algo/oscillation.hpp"
#include "core/sync_engine.hpp"
#include "graph/generators.hpp"

namespace disp {
namespace {

std::vector<AgentId> seqIds(std::uint32_t k) {
  std::vector<AgentId> ids(k);
  for (std::uint32_t i = 0; i < k; ++i) ids[i] = i + 1;
  return ids;
}

// Observer fiber: record the oscillator's position for `rounds` rounds.
Task observe(SyncEngine& e, AgentIx a, std::uint32_t rounds,
             std::vector<NodeId>& trace) {
  for (std::uint32_t i = 0; i < rounds; ++i) {
    trace.push_back(e.positionOf(a));
    co_await e.nextRound();
  }
  trace.push_back(e.positionOf(a));
}

TEST(Oscillation, ChildTripVisitsEveryStopEachCycle) {
  // Star: agent 0 at hub covers children via ports 1..3.
  const Graph g = makeStar(6).build();
  SyncEngine e(g, {0}, seqIds(1));
  OscillatorSystem osc(e);
  osc.install();
  osc.addChildStop(0, 1);
  osc.addChildStop(0, 2);
  osc.addChildStop(0, 3);
  EXPECT_EQ(osc.maxCycleRounds(), 6u);

  std::vector<NodeId> trace;
  e.addFiber(observe(e, 0, 24, trace));
  e.run(100);

  // In any window of 7 consecutive snapshots, every covered node appears.
  for (std::size_t start = 0; start + 7 <= trace.size(); ++start) {
    for (Port p = 1; p <= 3; ++p) {
      const NodeId covered = g.neighbor(0, p);
      bool seen = false;
      for (std::size_t i = start; i < start + 7; ++i) seen |= trace[i] == covered;
      EXPECT_TRUE(seen) << "window " << start << " misses stop " << covered;
    }
  }
}

TEST(Oscillation, HomeVisitedEveryCycle) {
  const Graph g = makeStar(6).build();
  SyncEngine e(g, {0}, seqIds(1));
  OscillatorSystem osc(e);
  osc.install();
  osc.addChildStop(0, 1);
  osc.addChildStop(0, 2);
  osc.addChildStop(0, 3);
  std::vector<NodeId> trace;
  e.addFiber(observe(e, 0, 24, trace));
  e.run(100);
  for (std::size_t start = 0; start + 7 <= trace.size(); ++start) {
    bool home = false;
    for (std::size_t i = start; i < start + 7; ++i) home |= trace[i] == 0;
    EXPECT_TRUE(home);
  }
}

TEST(Oscillation, SiblingTripShape) {
  // Path 0-1-2-3: agent at node 0... use a star-of-3: parent=hub(0),
  // settler at leaf 1, covers leaves 2 and 3.
  const Graph g = makeStar(4).build();
  // Agent 0 placed at leaf reached via hub port 1.
  const NodeId home = g.neighbor(0, 1);
  SyncEngine e(g, {home}, seqIds(1));
  OscillatorSystem osc(e);
  osc.install();
  const Port parentPort = 1;  // leaves have exactly one port
  osc.addSiblingStop(0, parentPort, 2);
  osc.addSiblingStop(0, parentPort, 3);
  EXPECT_EQ(osc.maxCycleRounds(), 6u);

  std::vector<NodeId> trace;
  e.addFiber(observe(e, 0, 18, trace));
  e.run(100);

  const NodeId sib1 = g.neighbor(0, 2), sib2 = g.neighbor(0, 3);
  for (std::size_t start = 0; start + 7 <= trace.size(); ++start) {
    bool s1 = false, s2 = false, hm = false;
    for (std::size_t i = start; i < start + 7; ++i) {
      s1 |= trace[i] == sib1;
      s2 |= trace[i] == sib2;
      hm |= trace[i] == home;
    }
    EXPECT_TRUE(s1 && s2 && hm) << "window " << start;
  }
}

Task idleRounds(SyncEngine& e, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) co_await e.nextRound();
}

TEST(Oscillation, TypeMixingRejected) {
  const Graph g = makeStar(5).build();
  SyncEngine e(g, {0}, seqIds(1));
  OscillatorSystem osc(e);
  osc.addChildStop(0, 1);
  EXPECT_THROW(osc.addSiblingStop(0, 2, 3), std::logic_error);
}

TEST(Oscillation, ChildCapacityIsThree) {
  const Graph g = makeStar(6).build();
  SyncEngine e(g, {0}, seqIds(1));
  OscillatorSystem osc(e);
  osc.addChildStop(0, 1);
  osc.addChildStop(0, 2);
  osc.addChildStop(0, 3);
  EXPECT_THROW(osc.addChildStop(0, 4), std::logic_error);
}

TEST(Oscillation, SiblingCapacityIsTwo) {
  const Graph g = makeStar(5).build();
  const NodeId home = g.neighbor(0, 1);
  SyncEngine e(g, {home}, seqIds(1));
  OscillatorSystem osc(e);
  osc.addSiblingStop(0, 1, 2);
  osc.addSiblingStop(0, 1, 3);
  EXPECT_THROW(osc.addSiblingStop(0, 1, 4), std::logic_error);
}

TEST(Oscillation, AddRequiresIdleAtHome) {
  const Graph g = makeStar(6).build();
  SyncEngine e(g, {0}, seqIds(1));
  OscillatorSystem osc(e);
  osc.install();
  osc.addChildStop(0, 1);
  // Let one round pass: the oscillator is now away.
  e.addFiber(idleRounds(e, 1));
  e.run(10);
  EXPECT_FALSE(osc.isIdleAtHome(0));
  EXPECT_THROW(osc.addChildStop(0, 2), std::logic_error);
}

// Fiber that waits until the oscillator stands on its stop, then drops it.
Task dropWhenAtStop(SyncEngine& e, OscillatorSystem& osc, AgentIx a, bool& dropped) {
  for (std::uint32_t i = 0; i < 20; ++i) {
    if (osc.currentStopPort(a).has_value()) {
      osc.dropCurrentStop(a);
      dropped = true;
      co_return;
    }
    co_await e.nextRound();
  }
}

TEST(Oscillation, DropLastStopStopsOscillating) {
  const Graph g = makeStar(4).build();
  SyncEngine e(g, {0}, seqIds(1));
  OscillatorSystem osc(e);
  osc.install();
  osc.addChildStop(0, 1);
  bool dropped = false;
  e.addFiber(dropWhenAtStop(e, osc, 0, dropped));
  e.run(50);
  EXPECT_TRUE(dropped);
  // Let the trip finish: run a no-op fiber for a few rounds.
  SyncEngine e2(g, {0}, seqIds(1));  // fresh engine to check idle default
  OscillatorSystem osc2(e2);
  EXPECT_TRUE(osc2.isIdleAtHome(0));
  EXPECT_FALSE(osc2.isOscillating(0));
}

TEST(Oscillation, DropRequiresStandingOnStop) {
  const Graph g = makeStar(4).build();
  SyncEngine e(g, {0}, seqIds(1));
  OscillatorSystem osc(e);
  osc.addChildStop(0, 1);
  EXPECT_THROW(osc.dropCurrentStop(0), std::logic_error);  // still at home
}

TEST(Oscillation, NonParticipantsAreIdleAtHome) {
  const Graph g = makeStar(4).build();
  SyncEngine e(g, {0, 0}, seqIds(2));
  OscillatorSystem osc(e);
  EXPECT_TRUE(osc.isIdleAtHome(1));
  EXPECT_FALSE(osc.isOscillating(1));
  EXPECT_EQ(osc.currentStopPort(1), std::nullopt);
}

// ------------------------------------------- deferred vs per-round moves

/// An oscillator operation, issued from a fiber at the first round at or
/// after `from` in which it may be: an add once the agent idles at home, a
/// drop once it stands on stop `port` (kNoPort: on any stop), a retire at
/// once.  Steps run in order, at most one per round.
struct Step {
  enum class Op { AddChild, AddSibling, Drop, Retire } op;
  std::uint32_t from;
  AgentIx agent;
  Port port = kNoPort;        // child / sibling port, or the stop to drop at
  Port parentPort = kNoPort;  // AddSibling
};

bool stepReady(const OscillatorSystem& osc, const Step& step) {
  switch (step.op) {
    case Step::Op::AddChild:
    case Step::Op::AddSibling:
      return osc.isIdleAtHome(step.agent);
    case Step::Op::Drop: {
      const auto stop = osc.currentStopPort(step.agent);
      return stop.has_value() && (step.port == kNoPort || *stop == step.port);
    }
    case Step::Op::Retire:
      return true;
  }
  return false;
}

void applyStep(OscillatorSystem& osc, const Step& step) {
  switch (step.op) {
    case Step::Op::AddChild:
      osc.addChildStop(step.agent, step.port);
      break;
    case Step::Op::AddSibling:
      osc.addSiblingStop(step.agent, step.parentPort, step.port);
      break;
    case Step::Op::Drop:
      osc.dropCurrentStop(step.agent);
      break;
    case Step::Op::Retire:
      osc.retire(step.agent);
      break;
  }
}

/// What every reader sees in one round: per agent its position, pin, idle,
/// stop and duty state; per node its count and sorted occupants.  The
/// reads go node-first or agent-first, so that deferred oscillators are
/// caught up through either entry point.
std::string snapshot(const SyncEngine& e, const OscillatorSystem& osc, bool nodesFirst) {
  const std::uint32_t n = e.graph().nodeCount();
  std::vector<std::string> nodes(n), agents(e.agentCount());
  const auto readNodes = [&] {
    for (NodeId v = 0; v < n; ++v) {
      std::ostringstream os;
      os << " n" << v << ':' << e.countAt(v) << '[';
      for (const AgentIx a : e.agentsAt(v)) os << a << ',';
      nodes[v] = os.str() + ']';
    }
  };
  const auto readAgents = [&] {
    for (AgentIx a = 0; a < e.agentCount(); ++a) {
      std::ostringstream os;
      const auto stop = osc.currentStopPort(a);
      os << " a" << a << '@' << e.positionOf(a) << '/' << e.pinOf(a)
         << " idle=" << osc.isIdleAtHome(a) << " stop=" << (stop ? *stop : kNoPort)
         << " osc=" << osc.isOscillating(a);
      agents[a] = os.str();
    }
  };
  if (nodesFirst) {
    readNodes();
    readAgents();
  } else {
    readAgents();
    readNodes();
  }
  std::string out;
  for (const auto& line : agents) out += line;
  for (const auto& line : nodes) out += line;
  return out;
}

/// One engine's record: the round each step fired, and a snapshot every
/// `stride` rounds (keyed by round).
struct Record {
  std::vector<std::uint32_t> fired;
  std::map<std::uint32_t, std::string> snaps;
  std::uint64_t moves = 0;
  std::vector<NodeId> finalPositions;
};

Task script(SyncEngine& e, OscillatorSystem& osc, const std::vector<Step>& steps,
            std::uint32_t rounds, std::uint32_t stride, Record& rec) {
  std::size_t next = 0;
  for (std::uint32_t r = 0;; ++r) {
    if (next < steps.size() && steps[next].from <= r && stepReady(osc, steps[next])) {
      applyStep(osc, steps[next++]);
      rec.fired.push_back(r);
    }
    if (r % stride == 0) rec.snaps[r] = snapshot(e, osc, (r / stride) % 2 == 0);
    if (r == rounds) co_return;
    co_await e.nextRound();
  }
}

/// Runs `steps` on a fresh engine; `eager` installs an observer first, so
/// the oscillators step every round instead of moving on read.
Record runScript(const Graph& g, const std::vector<NodeId>& start,
                 const std::vector<Step>& steps, std::uint32_t rounds,
                 std::uint32_t stride, bool eager) {
  SyncEngine e(g, start, seqIds(static_cast<std::uint32_t>(start.size())));
  if (eager) {
    EngineObserver obs;
    obs.onEvent = [](const TraceEvent&) {};
    e.installObserver(std::move(obs));
  }
  OscillatorSystem osc(e);
  osc.install();
  Record rec;
  e.addFiber(script(e, osc, steps, rounds, stride, rec));
  e.run(rounds + 1);
  rec.moves = e.totalMoves();
  rec.finalPositions = e.positionsSnapshot();
  return rec;
}

/// The deferred oscillators agree with the per-round stepper at every
/// snapshot, for snapshots every round and for ones far enough apart that
/// a single read catches up several whole cycles.
void expectDeferredMatchesEager(const Graph& g, const std::vector<NodeId>& start,
                                const std::vector<Step>& steps, std::uint32_t rounds) {
  const Record eager = runScript(g, start, steps, rounds, 1, true);
  ASSERT_EQ(eager.fired.size(), steps.size()) << "the script did not run to its end";
  for (const std::uint32_t stride : {1u, 2u, 5u, 13u}) {
    SCOPED_TRACE("snapshot stride " + std::to_string(stride));
    const Record lazy = runScript(g, start, steps, rounds, stride, false);
    EXPECT_EQ(lazy.fired, eager.fired);
    for (const auto& [round, snap] : lazy.snaps) {
      EXPECT_EQ(snap, eager.snaps.at(round)) << "round " << round;
    }
    EXPECT_EQ(lazy.moves, eager.moves);
    EXPECT_EQ(lazy.finalPositions, eager.finalPositions);
  }
}

TEST(OscillationDeferred, ChildTripsMatchThePerRoundStepper) {
  // Wheel: hub 0, rim 1..9.  Agent 0 at the hub covers three rim nodes;
  // agent 1 sits on the hub and agent 2 on a covered node, so counts and
  // views mix oscillators with settled agents.  Drop mid-cycle (the trip
  // goes on over the old route, the next cycle over the shorter one), add
  // at a cycle boundary, and drop everything so the duty goes off.
  const Graph g = makeWheel(10).build(PortLabeling::RandomPermutation, 7);
  const auto hubPort = [&](NodeId rim) { return g.portTo(0, rim); };
  const std::vector<Step> steps = {
      {Step::Op::AddChild, 0, 0, hubPort(1)},
      {Step::Op::AddChild, 0, 0, hubPort(2)},
      {Step::Op::AddChild, 0, 0, hubPort(3)},
      {Step::Op::Drop, 9, 0, hubPort(1)},
      {Step::Op::AddChild, 20, 0, hubPort(4)},
      {Step::Op::Drop, 33, 0, hubPort(3)},
      {Step::Op::Drop, 40, 0, kNoPort},
      {Step::Op::Drop, 40, 0, kNoPort},
      {Step::Op::AddChild, 61, 0, hubPort(5)},
      {Step::Op::Drop, 62, 0, kNoPort},
  };
  expectDeferredMatchesEager(g, {0, 0, g.neighbor(0, hubPort(2))}, steps, 80);
}

TEST(OscillationDeferred, SiblingTripsThroughASharedParentMatchThePerRoundStepper) {
  // Agents 0 and 1 settle on rim nodes 4 and 7 and cover other children of
  // the hub, so both pass through it; agent 2 covers rim nodes from the hub
  // at the same time, and agent 3 sits on the hub.  Agent 1 gains a stop at
  // a cycle boundary and is retired mid-trip.
  const Graph g = makeWheel(10).build(PortLabeling::RandomPermutation, 11);
  const auto hubPort = [&](NodeId rim) { return g.portTo(0, rim); };
  const Port up4 = g.portTo(4, 0), up7 = g.portTo(7, 0);
  const std::vector<Step> steps = {
      {Step::Op::AddSibling, 0, 0, hubPort(5), up4},
      {Step::Op::AddSibling, 0, 0, hubPort(6), up4},
      {Step::Op::AddSibling, 0, 1, hubPort(8), up7},
      {Step::Op::AddChild, 0, 2, hubPort(1)},
      {Step::Op::AddChild, 0, 2, hubPort(2)},
      {Step::Op::AddSibling, 15, 1, hubPort(9), up7},
      {Step::Op::Drop, 24, 0, hubPort(5)},
      {Step::Op::Drop, 30, 2, hubPort(2)},
      {Step::Op::Drop, 31, 0, hubPort(6)},
      {Step::Op::Retire, 47, 1},
      {Step::Op::Drop, 50, 2, kNoPort},
  };
  expectDeferredMatchesEager(g, {4, 7, 0, 0}, steps, 70);
}

TEST(OscillationDeferred, ObserverAndFaultsMustComeBeforeTheOscillators) {
  const Graph g = makeStar(4).build();
  SyncEngine e(g, {0}, seqIds(1));
  OscillatorSystem osc(e);
  osc.install();
  EngineObserver obs;
  obs.onEvent = [](const TraceEvent&) {};
  EXPECT_THROW(e.installObserver(std::move(obs)), std::logic_error);
  EXPECT_THROW(e.installFaults(nullptr), std::logic_error);
}

Task recordMovesAfter(SyncEngine& e, std::uint32_t rounds, std::uint64_t& moves) {
  for (std::uint32_t i = 0; i < rounds; ++i) co_await e.nextRound();
  moves = e.totalMoves();
}

TEST(OscillationDeferred, MovesAreCountedWhenTheRunEnds) {
  // Nothing reads the oscillator during the run, so its deferred hops are
  // not counted yet in its last round; by the end of the run its hop in
  // each of the 9 rounds counts, and it ends on its stop, as with the
  // per-round stepper.
  const Graph g = makeStar(4).build();
  for (const bool eager : {false, true}) {
    SCOPED_TRACE(eager ? "per-round" : "deferred");
    SyncEngine e(g, {0}, seqIds(1));
    if (eager) {
      EngineObserver obs;
      obs.onEvent = [](const TraceEvent&) {};
      e.installObserver(std::move(obs));
    }
    OscillatorSystem osc(e);
    osc.install();
    osc.addChildStop(0, 1);
    std::uint64_t midRun = 0;
    e.addFiber(recordMovesAfter(e, 9, midRun));
    e.run(20);
    EXPECT_EQ(midRun, eager ? 9u : 0u);
    EXPECT_EQ(e.totalMoves(), 9u);
    EXPECT_EQ(e.positionsSnapshot(), std::vector<NodeId>{g.neighbor(0, 1)});
  }
}

}  // namespace
}  // namespace disp
