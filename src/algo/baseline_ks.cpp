#include "algo/baseline_ks.hpp"

#include <algorithm>

#include "algo/protocol_common.hpp"
#include "util/check.hpp"

namespace disp {

// --------------------------------------------------------------- SYNC

KsSyncDispersion::KsSyncDispersion(SyncEngine& engine)
    : engine_(engine),
      st_(engine.agentCount()),
      widths_(BitWidths::forRun(/*maxId=*/4ULL * engine.agentCount(),
                                engine.graph().maxDegree(), engine.agentCount())) {
  const NodeId root = engine_.positionOf(0);
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    DISP_REQUIRE(engine_.positionOf(a) == root,
                 "KS baseline expects a rooted initial configuration");
    group_.push_back(a);
  }
  std::sort(group_.begin(), group_.end(), [&](AgentIx a, AgentIx b) {
    return engine_.idOf(a) < engine_.idOf(b);
  });
}

void KsSyncDispersion::start() { engine_.addFiber(protocol()); }

bool KsSyncDispersion::dispersed() const {
  std::vector<NodeId> where;
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    if (!st_[a].settled) return false;
    where.push_back(engine_.positionOf(a));
  }
  return isDispersed(where);
}

std::uint64_t KsSyncDispersion::agentBits(AgentIx a) const {
  // settled flag + parentPort + checked + own ID.
  (void)a;
  return 1 + widths_.port + widths_.port + widths_.id;
}

void KsSyncDispersion::recordMemory() {
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    engine_.memory().record(a, agentBits(a));
  }
}

Task KsSyncDispersion::moveGroup(Port p) {
  for (const AgentIx a : group_) engine_.stageMove(a, p);
  co_await engine_.nextRound();
}

Task KsSyncDispersion::protocol() {
  const Graph& g = engine_.graph();
  const auto isSettler = [this](AgentIx a) { return st_[a].settled; };

  // Settle the smallest-ID agent at the root.
  AgentIx first = group_.front();
  group_.erase(group_.begin());
  st_[first].settled = true;
  st_[first].parentPort = kNoPort;
  engine_.traceSettle(first);
  recordMemory();

  NodeId w = engine_.positionOf(first);
  while (!group_.empty()) {
    AgentIx keeper = settlerAt(engine_, w, isSettler);
    DISP_CHECK(keeper != kNoAgent, "KS: current node must hold a settler");
    AgentState& rec = st_[keeper];

    if (rec.checked == g.degree(w)) {
      // All ports probed: backtrack to the parent.
      DISP_CHECK(rec.parentPort != kNoPort,
                 "KS: DFS exhausted the graph before settling everyone (k > n?)");
      co_await moveGroup(rec.parentPort);
      w = engine_.positionOf(group_.back());
      continue;
    }

    const Port p = ++rec.checked;
    if (p == rec.parentPort) continue;  // tree edge to parent, already known

    co_await moveGroup(p);
    const NodeId v = engine_.positionOf(group_.back());
    if (settlerAt(engine_, v, isSettler) != kNoAgent) {
      // Occupied: retreat to w (every group member arrived via the same
      // edge, so its own pin points back).
      co_await moveGroup(engine_.pinOf(group_.back()));
    } else {
      // Fully unsettled: settle the smallest-ID group member here.
      AgentIx amin = group_.front();
      group_.erase(group_.begin());
      st_[amin].settled = true;
      st_[amin].parentPort = engine_.pinOf(amin);
      engine_.traceSettle(amin);
      recordMemory();
      w = v;
    }
  }
}

// -------------------------------------------------------------- ASYNC

KsAsyncDispersion::KsAsyncDispersion(AsyncEngine& engine)
    : engine_(engine),
      st_(engine.agentCount()),
      widths_(BitWidths::forRun(4ULL * engine.agentCount(), engine.graph().maxDegree(),
                                engine.agentCount())) {
  const NodeId root = engine_.positionOf(0);
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    DISP_REQUIRE(engine_.positionOf(a) == root,
                 "KS baseline expects a rooted initial configuration");
    if (leader_ == kNoAgent || engine_.idOf(a) > engine_.idOf(leader_)) leader_ = a;
  }
  groupSize_ = engine_.agentCount();
}

void KsAsyncDispersion::start() {
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    engine_.setAgentFiber(a, a == leader_ ? leaderFiber(a) : followerFiber(a));
  }
}

bool KsAsyncDispersion::dispersed() const {
  std::vector<NodeId> where;
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    if (!st_[a].settled) return false;
    where.push_back(engine_.positionOf(a));
  }
  return isDispersed(where);
}

std::uint64_t KsAsyncDispersion::agentBits(AgentIx a) const {
  std::uint64_t bits = 1 /*settled*/ + 3 * widths_.port + widths_.id;
  if (a == leader_) bits += widths_.count;  // groupSize
  return bits;
}

void KsAsyncDispersion::recordMemory() {
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    engine_.memory().record(a, agentBits(a));
  }
}

Task KsAsyncDispersion::followerFiber(AgentIx self) {
  AgentState& me = st_[self];
  // Settlers idle (they answer reads passively); a follower idles until the
  // leader's order, which wakes it.
  const auto idle = [&me] { return me.settled || me.orderPort == kNoPort; };
  for (;;) {
    if (!idle()) {
      co_await engine_.nextActivation(self);
    } else {
      // The !NDEBUG audit resumes a parked follower unwoken.
      for (bool woken = false; !woken;) {
        woken = co_await engine_.park(self);
        DISP_CHECK(woken || idle(), "parked agent given an order without a wake");
      }
    }
    if (me.settled) continue;
    if (me.orderPort != kNoPort) {
      const Port p = me.orderPort;
      me.orderPort = kNoPort;
      engine_.move(self, p);
    }
  }
}

void KsAsyncDispersion::orderGroupMove(AgentIx self, Port p, bool usePin) {
  // Communicate phase: write a movement order into every co-located
  // unsettled agent (the group), except the leader itself which moves now.
  const NodeId here = engine_.positionOf(self);
  for (const AgentIx a : engine_.agentsAt(here)) {
    if (a == self || st_[a].settled) continue;
    st_[a].orderPort = usePin ? engine_.pinOf(a) : p;
    engine_.wake(a);
  }
}

Task KsAsyncDispersion::awaitGroupAssembled(AgentIx self, std::uint32_t expected) {
  for (;;) {
    const NodeId here = engine_.positionOf(self);
    std::uint32_t present = 0;
    for (const AgentIx a : engine_.agentsAt(here)) present += !st_[a].settled;
    if (present >= expected) co_return;
    co_await engine_.nextActivation(self);
  }
}

Task KsAsyncDispersion::leaderFiber(AgentIx self) {
  const Graph& g = engine_.graph();
  const auto isSettler = [this](AgentIx a) { return st_[a].settled; };

  co_await engine_.nextActivation(self);

  // Settle the smallest-ID co-located agent at the root.
  {
    AgentIx amin = minIdAgentAt(engine_, engine_.positionOf(self),
                                [&](AgentIx a) { return !st_[a].settled; });
    DISP_CHECK(amin != kNoAgent, "no agent to settle at root");
    st_[amin].settled = true;
    st_[amin].parentPort = kNoPort;
    --groupSize_;
    engine_.traceSettle(amin);
    recordMemory();
    if (groupSize_ == 0) {  // k == 1
      engine_.finish();
      co_return;
    }
  }

  for (;;) {
    const NodeId w = engine_.positionOf(self);
    AgentIx keeper = settlerAt(engine_, w, isSettler);
    DISP_CHECK(keeper != kNoAgent, "KS: current node must hold a settler");
    AgentState& rec = st_[keeper];

    Port moveVia = kNoPort;
    if (rec.checked == g.degree(w)) {
      DISP_CHECK(rec.parentPort != kNoPort, "KS: DFS exhausted graph early");
      moveVia = rec.parentPort;
    } else {
      const Port p = ++rec.checked;
      if (p == rec.parentPort) continue;  // skip the tree edge upward
      moveVia = p;
    }

    // Order the group across the edge; leader crosses in this same cycle
    // and then lets the activation end (one move per CCM cycle).
    orderGroupMove(self, moveVia, /*usePin=*/false);
    engine_.move(self, moveVia);
    co_await engine_.nextActivation(self);
    co_await awaitGroupAssembled(self, groupSize_);

    const NodeId v = engine_.positionOf(self);
    const bool backtracked = (moveVia == rec.parentPort);
    if (backtracked) continue;

    if (settlerAt(engine_, v, isSettler) != kNoAgent) {
      // Occupied neighbor: return to w (each agent retreats via its own pin).
      orderGroupMove(self, kNoPort, /*usePin=*/true);
      engine_.move(self, engine_.pinOf(self));
      co_await engine_.nextActivation(self);
      co_await awaitGroupAssembled(self, groupSize_);
      continue;
    }

    // Fully unsettled node: settle the smallest-ID group member.
    AgentIx amin = minIdAgentAt(engine_, v, [&](AgentIx a) { return !st_[a].settled; });
    DISP_CHECK(amin != kNoAgent, "nobody to settle");
    if (amin == self) {
      // Leader is alone: settle itself, dispersion complete.
      st_[self].settled = true;
      st_[self].parentPort = engine_.pinOf(self);
      engine_.traceSettle(self);
      recordMemory();
      engine_.finish();
      co_return;
    }
    // Communicate-phase write into the co-located agent: it is settled now.
    st_[amin].settled = true;
    st_[amin].parentPort = engine_.pinOf(amin);
    --groupSize_;
    engine_.traceSettle(amin);
    recordMemory();
  }
}

}  // namespace disp
