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
  for (const GroupCtx& ctx : groups_) leadQueued_[ctx.leader] = ctx.label;
  initLabels(groupCount());
  rescanFound_.assign(groups_.size(), 0);

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
  // entry) + 6 counters (probe/guest/see-off blackboard).
  std::uint64_t bits = widths_.id + 2ULL * widths_.count + 7 +
                       12ULL * widths_.port + 6ULL * widths_.count;
  for (const auto& g : groups_) {
    if (g.leader == a) bits += 2ULL * widths_.count + widths_.port;
  }
  return bits;
}

void GeneralAsyncDispersion::recordMemory() {
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    engine_.memory().record(a, agentBits(a));
  }
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

void GeneralAsyncDispersion::settle(std::uint32_t gi, AgentIx a, NodeId at,
                                    Port parentPort) {
  AgentState& s = st_[a];
  DISP_CHECK(!s.settled, "double settle");
  s.settled = true;
  s.settledAt = at;
  s.parentPort = parentPort;
  s.checked = 0;
  s.firstChildPort = s.latestChildPort = s.nextSiblingPort = kNoPort;
  proberIdx_.erase(a);  // settlers stop being prober-eligible
  posIdx_.remove(s.label, at);
  --groups_[gi].unsettled;
  --unsettledTotal_;
  engine_.traceSettle(a, groups_[gi].label);
  recordMemory();
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
    ctx.leader = fresh;
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

Task GeneralAsyncDispersion::sideTripSetNextSibling(std::uint32_t gi, AgentIx self,
                                                    Port prevChildPort,
                                                    Port newChildPort) {
  // The leader hops to the previous child alone (the group idles at w) and
  // links the sibling chain used by future collapse walks.
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

Task GeneralAsyncDispersion::probeAndSeeOff(std::uint32_t gi, AgentIx self) {
  GroupCtx& ctx = groups_[gi];
  const NodeId w = engine_.positionOf(self);
  const Port limit = static_cast<Port>(
      std::min<std::uint32_t>(engine_.graph().degree(w), engine_.agentCount()));
  ctx.phase = "probe";
  co_await probePhase(ctx.label, self, limit);
  ctx.phase = "seeOff";
  co_await seeOffPhase(ctx.label, self);
}

// --------------------------------------------------------------- rescan

Task GeneralAsyncDispersion::rescanVisit(std::uint32_t gi, AgentIx self) {
  // Blocked-DFS recovery: Euler-walk the own tree, resetting probe progress
  // and re-probing at every node, because a collapse can free nodes behind
  // ports this DFS already advanced past (checked is monotone).  Stops at
  // the first node with a finding; the DFS resumes from there.
  GroupCtx& ctx = groups_[gi];
  ctx.phase = "rescan";
  const NodeId cur = engine_.positionOf(self);
  const AgentIx settler = homeSettlerAt(engine_, st_, cur, ctx.label);
  DISP_CHECK(settler != kNoAgent, "rescan reached a non-own node");

  st_[settler].checked = 0;
  co_await probeAndSeeOff(gi, self);
  if (probeNext_[gi] != kNoPort || !probeMet_[gi].empty()) {
    rescanFound_[gi] = 1;  // resume the DFS right here
    co_return;
  }

  Port c = st_[settler].firstChildPort;
  while (c != kNoPort) {
    co_await moveGroup(gi, c);
    const Port backUp = engine_.pinOf(self);
    const AgentIx cs = homeSettlerAt(engine_, st_, engine_.positionOf(self), ctx.label);
    DISP_CHECK(cs != kNoAgent, "rescan child without settler");
    const Port sib = st_[cs].nextSiblingPort;
    co_await rescanVisit(gi, self);
    if (rescanFound_[gi]) co_return;  // stay put; frames unwind without moving
    co_await moveGroup(gi, backUp);
    c = sib;
  }
}

// ----------------------------------------------------------------- main

Task GeneralAsyncDispersion::leaderLoop(std::uint32_t gi, AgentIx self) {
  GroupCtx& ctx = groups_[gi];

  // Settle the smallest-ID member at the start node (first lead only).
  if (ctx.treeSize == 0) {
    const NodeId s = engine_.positionOf(self);
    const AgentIx amin = minIdAgentAt(engine_, s, [&](AgentIx a) {
      return st_[a].label == ctx.label && !st_[a].settled;
    });
    DISP_CHECK(amin != kNoAgent, "no agent to settle at the start node");
    settle(gi, amin, s, kNoPort);
    ctx.treeSize = 1;
  }

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
      ctx.phase = "dormant";
      anchorOf_[self] = gi;
      if (unsettledTotal_ == 0) engine_.finish();
      co_return;
    }

    const NodeId w = engine_.positionOf(self);
    if (rescanFound_[gi]) {
      // A rescan stopped here because its probe found an empty port or a
      // meeting; consume those results directly.  Re-probing would clear
      // probeMet_ and exit at once (this node's `checked` is already
      // exhausted when only a meeting was found), silently discarding the
      // finding and rescanning forever.
      rescanFound_[gi] = 0;
    } else {
      co_await probeAndSeeOff(gi, self);
    }

    // Meetings discovered by this probe (report order).
    for (const auto& [label, port] : probeMet_[gi]) {
      co_await handleMeeting(gi, label, port);
      if (ctx.frozen || ctx.dissolved) break;
    }
    if (ctx.dissolved || ctx.frozen) continue;

    const Port next = probeNext_[gi];
    const AgentIx aw = homeSettlerAt(engine_, st_, w, ctx.label);
    DISP_CHECK(aw != kNoAgent, "head lost its settler");

    if (next != kNoPort) {
      // Sibling-chain bookkeeping for future collapse walks (undone below
      // if the move has to retreat).
      const Port prevFirst = st_[aw].firstChildPort;
      const Port prevLatest = st_[aw].latestChildPort;
      if (st_[aw].firstChildPort == kNoPort) {
        st_[aw].firstChildPort = next;
      } else {
        co_await sideTripSetNextSibling(gi, self, st_[aw].latestChildPort, next);
      }
      st_[aw].latestChildPort = next;

      co_await moveGroup(gi, next);
      const NodeId u = engine_.positionOf(self);
      const Collision hit = forwardCollision(gi, u);
      if (hit.retreat) {
        ++stats_.retreats;
        co_await moveGroup(gi, engine_.pinOf(self));
        // Undo the speculative sibling link: the child was not created.
        st_[aw].firstChildPort = prevFirst;
        st_[aw].latestChildPort = prevLatest;
        if (prevLatest != kNoPort) {
          co_await sideTripSetNextSibling(gi, self, prevLatest, kNoPort);
        }
        if (hit.met != kNoLabel) co_await handleMeeting(gi, hit.met, next);
        continue;
      }

      ++stats_.forwardMoves;
      ++ctx.treeSize;
      // Settle the smallest-ID follower; the leader settles itself only
      // when it is the last unsettled member of its group.
      AgentIx amin = minIdAgentAt(engine_, u, [&](AgentIx a) {
        return a != self && st_[a].label == ctx.label && !st_[a].settled;
      });
      if (amin == kNoAgent) amin = self;
      settle(gi, amin, u, engine_.pinOf(amin));
      if (ctx.unsettled == 0) {
        ctx.phase = "dormant";
        anchorOf_[self] = gi;
        if (unsettledTotal_ == 0) engine_.finish();
        co_return;
      }
    } else {
      const Port pp = st_[aw].parentPort;
      if (pp == kNoPort) {
        // Root exhausted while agents remain.  A collapse may have freed
        // nodes behind already-checked ports anywhere along our tree, so
        // sweep the whole tree re-probing (rescanVisit); if that finds
        // nothing every frontier peer is busy — pend/retry after a pause.
        if (ctx.pending.empty()) {
          rescanFound_[gi] = 0;
          co_await rescanVisit(gi, self);
          if (!rescanFound_[gi]) {
            for (int i = 0; i < 16; ++i) co_await engine_.nextActivation(self);
          }
        } else {
          for (int i = 0; i < 16; ++i) co_await engine_.nextActivation(self);
        }
        continue;
      }
      ++stats_.backtracks;
      co_await moveGroup(gi, pp);
    }
  }
}

}  // namespace disp
