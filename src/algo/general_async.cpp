#include "algo/general_async.hpp"

#include <algorithm>

#include "algo/protocol_common.hpp"
#include "util/check.hpp"

namespace disp {

GeneralAsyncDispersion::GeneralAsyncDispersion(AsyncEngine& engine)
    : AsyncGrowth(engine),
      engine_(engine),
      st_(engine.agentCount()),
      posIdx_(0),  // resized below once the group count is known
      widths_(BitWidths::forRun(4ULL * engine.agentCount(), engine.graph().maxDegree(),
                                engine.agentCount())),
      leadQueued_(engine.agentCount(), kNoGroup),
      anchorOf_(engine.agentCount(), kNoGroup) {
  initGroups();
  ledGroups_.assign(engine_.agentCount(), 0);
  for (const GroupCtx& ctx : groups_) {
    leadQueued_[ctx.leader] = ctx.label;
    ++ledGroups_[ctx.leader];
  }
  initLabels(groupCount());

  // Seed the position index (everyone starts unsettled) and keep both probe
  // indexes in lock-step with the world through the engine's move hook;
  // membership and label transitions are maintained at the protocol sites.
  posIdx_ = GroupPositionIndex(groupCount());
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    posIdx_.add(st_[a].label, engine_.positionOf(a));
  }
  engine_.setMoveHook([this](AgentIx a, NodeId from, NodeId to) {
    proberIdx_.relocate(a, to);
    if (!st_[a].settled) posIdx_.move(st_[a].label, from, to);
  });
}

void GeneralAsyncDispersion::start() {
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    engine_.setAgentFiber(a, agentFiber(a));
  }
}

std::uint64_t GeneralAsyncDispersion::agentBits(AgentIx a) const {
  // id + 2 labels (label, reportMet) + 7 flags (settled, isGuest,
  // orderGoHome, needRegister, needReport, reportEmpty, reportGuest) +
  // 12 ports (tree record: parent + 3 child-chain; blackboard: checked,
  // nextFound; orders: probe, guestGoTo, chaperone, escort, follow; guest
  // entry) + 6 counters (probe/guest/see-off blackboard), plus a leadership
  // record (two size counters + head port) per group whose leader field is
  // `a` — counted by ledGroups_ instead of a scan of all groups.
  return widths_.id + 2ULL * widths_.count + 7 + 12ULL * widths_.port +
         6ULL * widths_.count + ledGroups_[a] * (2ULL * widths_.count + widths_.port);
}

void GeneralAsyncDispersion::recordMemory() {
  // As in general_sync: an agent's bits rise only when it gains a group to
  // lead, so after one full flush only the agents marked then (memoryDirty_)
  // can raise their high-water mark.
  if (!memoryPrimed_) {
    for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
      engine_.memory().record(a, agentBits(a));
    }
    memoryPrimed_ = true;
    memoryDirty_.clear();
    return;
  }
  for (const AgentIx a : memoryDirty_) {
    engine_.memory().record(a, agentBits(a));
  }
  memoryDirty_.clear();
}

// ------------------------------------------------------------- helpers

bool GeneralAsyncDispersion::groupConsolidatedAt(Label label, NodeId v) const {
  const bool consolidated = posIdx_.consolidatedAt(label, v);
#ifndef NDEBUG
  // Cross-check the fingerprint against the naive all-agent scan.
  bool any = false, naive = true;
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    if (st_[a].label != label || st_[a].settled) continue;
    if (engine_.positionOf(a) != v) naive = false;
    any = true;
  }
  naive = naive && any;
  DISP_CHECK(consolidated == naive, "GroupPositionIndex drifted from the world");
#endif
  return consolidated;
}

// --------------------------------------------------------------- fibers

bool GeneralAsyncDispersion::idle(AgentIx self) const {
  return leadQueued_[self] == kNoGroup && anchorOf_[self] == kNoGroup && !hasErrand(self);
}

Task GeneralAsyncDispersion::agentFiber(AgentIx self) {
  for (;;) {
    if (!idle(self)) {
      co_await engine_.nextActivation(self);
    } else {
      // Idle until an order or a leadership hand-off wakes us; the !NDEBUG
      // audit resumes us unwoken.
      for (bool woken = false; !woken;) {
        woken = co_await engine_.park(self);
        DISP_CHECK(woken || idle(self), "parked agent given work without a wake");
      }
    }
    if (leadQueued_[self] != kNoGroup) {
      const std::uint32_t gi = leadQueued_[self];
      leadQueued_[self] = kNoGroup;
      co_await leaderLoop(gi, self);
      continue;  // fall back to participant mode with a fresh activation
    }
    dormantDuties(self);
    if (hasErrand(self)) co_await participantStep(self);
  }
}

void GeneralAsyncDispersion::dormantDuties(AgentIx self) {
  const std::uint32_t gi = anchorOf_[self];
  if (gi == kNoGroup) return;
  GroupCtx& ctx = groups_[gi];
  if (ctx.dissolved || ctx.leader != self || !st_[self].settled ||
      st_[self].isGuest || st_[self].label != ctx.label) {
    anchorOf_[self] = kNoGroup;  // collapsed away or leadership moved on
    return;
  }
  if (unsettledTotal_ == 0) {
    engine_.finish();
    return;
  }
  if (ctx.frozen) return;  // a winner is collapsing this tree: hold still

  // Absorb fully arrived marcher groups aimed at us, then hand leadership
  // to the largest-ID newcomer (the SYNC version's leader re-election).
  const NodeId here = engine_.positionOf(self);
  for (std::uint32_t mi = 0; mi < groups_.size(); ++mi) {
    const GroupCtx& m = groups_[mi];
    if (!m.marching || m.dissolved || resolveGroup(m.marchTarget) != gi) continue;
    if (marcherArrived(mi, gi)) absorbGroup(gi, mi);
  }
  if (ctx.unsettled > 0) {
    const AgentIx fresh = maxIdAgentAt(engine_, here, [&](AgentIx a) {
      return st_[a].label == ctx.label && !st_[a].settled;
    });
    DISP_CHECK(fresh != kNoAgent, "no co-located candidate for leader handoff");
    --ledGroups_[ctx.leader];
    ctx.leader = fresh;
    ++ledGroups_[fresh];
    memoryDirty_.push_back(fresh);  // bits rose; flushed by next recordMemory
    leadQueued_[fresh] = gi;
    engine_.wake(fresh);
    anchorOf_[self] = kNoGroup;
    ++stats_.handoffs;
  }
}

// --------------------------------------------------------- leader moves

Task GeneralAsyncDispersion::moveGroup(std::uint32_t gi, Port p) {
  GroupCtx& ctx = groups_[gi];
  const AgentIx self = ctx.leader;
  const NodeId w = engine_.positionOf(self);
  for (const AgentIx a : engine_.agentsAt(w)) {
    if (a != self && !st_[a].settled && st_[a].label == ctx.label) {
      orderInto(a).orderFollow = p;
    }
  }
  engine_.move(self, p);
  co_await engine_.nextActivation(self);
  // Reassemble fully before anything else: no collision/retreat decision
  // may strand a follower mid-edge.  A marching group can be absorbed by
  // its winner mid-hop (every member relabeled while this fiber sleeps);
  // the dissolved check lets the ex-leader unwind instead of waiting for a
  // label nobody carries any more.
  for (std::uint64_t guard = 0; guard < kWaitBound; ++guard) {
    if (ctx.dissolved) co_return;
    if (groupConsolidatedAt(ctx.label, engine_.positionOf(self))) {
      ++stats_.collapseHops;  // generic hop counter (collapses and marches)
      co_return;
    }
    co_await engine_.nextActivation(self);
  }
  DISP_CHECK(false, "group move never reassembled");
}

Task GeneralAsyncDispersion::linkSibling(std::uint32_t gi, Port prevChildPort,
                                         Port newChildPort) {
  // The leader hops to the previous child alone (the group idles at w) and
  // links the sibling chain used by future collapse walks.
  const AgentIx self = groups_[gi].leader;
  engine_.move(self, prevChildPort);
  co_await engine_.nextActivation(self);
  const AgentIx prev =
      homeSettlerAt(engine_, st_, engine_.positionOf(self), groups_[gi].label);
  DISP_CHECK(prev != kNoAgent, "previous child lost its settler");
  st_[prev].nextSiblingPort = newChildPort;
  engine_.move(self, engine_.pinOf(self));
  co_await engine_.nextActivation(self);
}

// --------------------------------------------------------------- probe

Task GeneralAsyncDispersion::probe(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  const AgentIx self = ctx.leader;
  const NodeId w = engine_.positionOf(self);
  const Port limit = static_cast<Port>(
      std::min<std::uint32_t>(engine_.graph().degree(w), engine_.agentCount()));
  ctx.phase = "probe";
  co_await probePhase(ctx.label, self, limit);
  ctx.phase = "seeOff";
  co_await seeOffPhase(ctx.label, self);
}

// ---------------------------------------------------------- leader loop

void GeneralAsyncDispersion::settleForward(std::uint32_t gi, NodeId u) {
  // Settle the smallest-ID follower; the leader settles itself only when it
  // is the last unsettled member of its group, and then stays as the
  // group's dormant anchor.
  const AgentIx self = groups_[gi].leader;
  const Label label = groups_[gi].label;
  AgentIx amin = minIdAgentAt(engine_, u, [&](AgentIx a) {
    return a != self && st_[a].label == label && !st_[a].settled;
  });
  if (amin == kNoAgent) amin = self;
  settle(gi, amin, u, engine_.pinOf(amin));
  if (groups_[gi].unsettled == 0) becomeAnchor(gi);
}

void GeneralAsyncDispersion::becomeAnchor(std::uint32_t gi) {
  groups_[gi].phase = "dormant";
  anchorOf_[groups_[gi].leader] = gi;
  if (unsettledTotal_ == 0) engine_.finish();
}

Task GeneralAsyncDispersion::leaderLoop(std::uint32_t gi, AgentIx self) {
  GroupCtx& ctx = groups_[gi];
  settleStart(gi);  // first lead only; a hand-off resumes the grown tree

  for (;;) {
    // Dormant / parked / absorbed handling (safe points).
    if (ctx.dissolved) co_return;
    if (ctx.frozen) {
      ctx.parked = true;
      co_return;  // fall back to participant mode; a winner collects us
    }
    co_await absorbMarchers(gi);
    if (ctx.dissolved || ctx.frozen) continue;
    co_await retryPending(gi);
    if (ctx.dissolved || ctx.frozen) continue;
    if (ctx.unsettled == 0) {
      // Dispersed: become the group's dormant anchor.  Marchers navigate
      // to us; dormantDuties absorbs them and hands leadership on.
      becomeAnchor(gi);
      co_return;
    }
    co_await dfsStep(gi);
    if (anchorOf_[self] == gi) co_return;  // the step settled our last member
  }
}

}  // namespace disp
