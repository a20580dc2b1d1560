#include "algo/async_rooted.hpp"

#include "algo/protocol_common.hpp"
#include "util/check.hpp"

namespace disp {

RootedAsyncDispersion::RootedAsyncDispersion(AsyncEngine& engine)
    : AsyncGrowth(engine),
      engine_(engine),
      st_(engine.agentCount()),
      widths_(BitWidths::forRun(4ULL * engine.agentCount(), engine.graph().maxDegree(),
                                engine.agentCount())) {
  const NodeId root = engine_.positionOf(0);
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    DISP_REQUIRE(engine_.positionOf(a) == root,
                 "RootedAsyncDisp expects a rooted initial configuration");
    if (leader_ == kNoAgent || engine_.idOf(a) > engine_.idOf(leader_)) leader_ = a;
    st_[a].label = kLabel;
  }
  initLabels(1);
  groupSize_ = engine_.agentCount();
  engine_.setMoveHook(
      [this](AgentIx a, NodeId /*from*/, NodeId to) { proberIdx_.relocate(a, to); });
}

void RootedAsyncDispersion::start() {
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    engine_.setAgentFiber(a, a == leader_ ? leaderFiber(a) : participantFiber(a));
  }
}

bool RootedAsyncDispersion::dispersed() const {
  std::vector<NodeId> where;
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    if (!st_[a].settled || st_[a].isGuest) return false;
    if (engine_.positionOf(a) != st_[a].settledAt) return false;
    where.push_back(engine_.positionOf(a));
  }
  return isDispersed(where);
}

std::uint64_t RootedAsyncDispersion::agentBits(AgentIx a) const {
  // id + settled + guest flags + parent/checked/next + order slots (ports)
  // + probe counters (bounded by k) + entry port.  The shared record's
  // label (always 0 here) and reportMet (no foreign label to see) carry no
  // information in this protocol and are not charged.
  std::uint64_t bits = widths_.id + 4 + 9ULL * widths_.port + 6ULL * widths_.count;
  if (a == leader_) bits += widths_.count + widths_.port;  // groupSize + next
  return bits;
}

void RootedAsyncDispersion::recordMemory() {
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    engine_.memory().record(a, agentBits(a));
  }
}

// ----------------------------------------------------------------- fibers

Task RootedAsyncDispersion::participantFiber(AgentIx self) {
  for (;;) {
    if (hasErrand(self)) {
      co_await engine_.nextActivation(self);
    } else {
      // Idle until an order wakes us; the !NDEBUG audit resumes us unwoken.
      for (bool woken = false; !woken;) {
        woken = co_await engine_.park(self);
        DISP_CHECK(woken || !hasErrand(self),
                   "parked agent given an errand without a wake");
      }
    }
    if (hasErrand(self)) co_await participantStep(self);
  }
}

void RootedAsyncDispersion::settle(AgentIx a, NodeId at, Port parentPort) {
  st_[a].settled = true;
  st_[a].settledAt = at;
  st_[a].parentPort = parentPort;
  proberIdx_.erase(a);  // settlers stop being prober-eligible
  --groupSize_;
  engine_.traceSettle(a);
  recordMemory();
}

Task RootedAsyncDispersion::moveGroup(AgentIx self, Port p) {
  // Order every follower through p, cross, and wait until the whole
  // unsettled group has reassembled at the far end.
  for (const AgentIx a : engine_.agentsAt(engine_.positionOf(self))) {
    if (!st_[a].settled && a != self) orderInto(a).orderFollow = p;
  }
  engine_.move(self, p);
  co_await engine_.nextActivation(self);
  for (;;) {
    std::uint32_t present = 0;
    for (const AgentIx a : engine_.agentsAt(engine_.positionOf(self))) {
      present += !st_[a].settled;
    }
    if (present >= groupSize_) break;
    co_await engine_.nextActivation(self);
  }
}

Task RootedAsyncDispersion::leaderFiber(AgentIx self) {
  co_await engine_.nextActivation(self);

  // Settle the smallest-ID co-located agent at the root (Algorithm 8 line 1).
  {
    const NodeId s = engine_.positionOf(self);
    const AgentIx amin =
        minIdAgentAt(engine_, s, [this](AgentIx a) { return !st_[a].settled; });
    DISP_CHECK(amin != kNoAgent, "no agent to settle at the root");
    settle(amin, s, kNoPort);
    if (groupSize_ == 0) {  // k == 1
      engine_.finish();
      co_return;
    }
  }

  for (;;) {
    const NodeId w = engine_.positionOf(self);

    co_await probePhase(kLabel, self, engine_.graph().degree(w));
    const Port next = probeNext_[kLabel];
    co_await seeOffPhase(kLabel, self);

    if (next != kNoPort) {
      // Forward move: the whole unsettled group crosses to u.
      co_await moveGroup(self, next);
      ++stats_.forwardMoves;

      const NodeId u = engine_.positionOf(self);
      DISP_CHECK(homeSettlerAt(engine_, st_, u, kLabel) == kNoAgent,
                 "forward move into an occupied node");
      const AgentIx amin =
          minIdAgentAt(engine_, u, [this](AgentIx a) { return !st_[a].settled; });
      settle(amin, u, engine_.pinOf(amin));
      if (amin == self || groupSize_ == 0) {
        DISP_CHECK(amin == self, "leader must settle last");
        engine_.finish();
        co_return;
      }
    } else {
      // Backtrack to the parent.
      const AgentIx aw = homeSettlerAt(engine_, st_, w, kLabel);
      DISP_CHECK(aw != kNoAgent, "backtrack from a node without a settler");
      const Port pp = st_[aw].parentPort;
      DISP_CHECK(pp != kNoPort, "DFS exhausted at the root before settling everyone");
      co_await moveGroup(self, pp);
      ++stats_.backtracks;
    }
  }
}

}  // namespace disp
