#include "algo/general_async.hpp"

#include <algorithm>
#include <string>

#include "algo/protocol_common.hpp"
#include "util/check.hpp"

namespace disp {

GeneralAsyncDispersion::GeneralAsyncDispersion(AsyncEngine& engine)
    : engine_(engine),
      st_(engine.agentCount()),
      proberIdx_(engine.agentCount(), engine.graph().nodeCount()),
      posIdx_(0),  // resized below once the group count is known
      widths_(BitWidths::forRun(4ULL * engine.agentCount(), engine.graph().maxDegree(),
                                engine.agentCount())),
      leadQueued_(engine.agentCount(), kNoGroup),
      anchorOf_(engine.agentCount(), kNoGroup) {
  initGroups();
  for (const GroupCtx& ctx : groups_) leadQueued_[ctx.leader] = ctx.label;
  probeNext_.assign(groups_.size(), kNoPort);
  probeMet_.assign(groups_.size(), {});
  rescanFound_.assign(groups_.size(), 0);

  // Seed the probe indexes (everyone starts unsettled) and keep them in
  // lock-step with the world through the engine's move hook; membership
  // and label transitions are maintained at the protocol sites.
  posIdx_ = GroupPositionIndex(static_cast<std::uint32_t>(groups_.size()));
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    proberIdx_.insert(a, engine_.positionOf(a));
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

const std::vector<AgentIx>& GeneralAsyncDispersion::availableProbersAt(
    NodeId w, Label label) const {
  // Own-label unsettled agents and guest helpers, idle (no pending orders),
  // ascending by ID so the leader is drafted as late as its ID allows.
  // The index bucket already holds exactly the followers and guests at w;
  // the label and the fast-changing order flags are filtered here
  // (DESIGN.md §9.4).  Scratch reuse is safe: every caller consumes the
  // list before its next co_await (single-threaded engine), so no
  // interleaved call clobbers it.
  std::vector<AgentIx>& avail = probersScratch_;
  avail.clear();
  for (const AgentIx a : proberIdx_.membersAt(w)) {
    const AgentState& s = st_[a];
    if (s.label != label) continue;
    if (s.orderProbePort != kNoPort || s.needReport || s.needRegister) continue;
    if (s.orderGoHome || s.orderChaperone != kNoPort) continue;
    if (s.orderFollow != kNoPort) continue;
    avail.push_back(a);
  }
  std::sort(avail.begin(), avail.end(),
            [&](AgentIx a, AgentIx b) { return engine_.idOf(a) < engine_.idOf(b); });
#ifndef NDEBUG
  // Cross-check the index against the naive occupant scan it replaced.
  std::vector<AgentIx> naive;
  for (const AgentIx a : engine_.agentsAt(w)) {
    const AgentState& s = st_[a];
    if (s.label != label) continue;
    const bool follower = !s.settled;
    const bool guest = s.settled && s.isGuest;
    if (!follower && !guest) continue;
    if (s.orderProbePort != kNoPort || s.needReport || s.needRegister) continue;
    if (s.orderGoHome || s.orderChaperone != kNoPort) continue;
    if (s.orderFollow != kNoPort) continue;
    naive.push_back(a);
  }
  std::sort(naive.begin(), naive.end(),
            [&](AgentIx a, AgentIx b) { return engine_.idOf(a) < engine_.idOf(b); });
  DISP_CHECK(avail == naive, "IdleProberIndex drifted from the world");
#endif
  return avail;
}

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

GeneralAsyncDispersion::ProbeSight GeneralAsyncDispersion::observeAndRecruit(
    AgentIx self, Label label) {
  // The communicate step of a probe, shared by participant probers and the
  // leader's own trips: classify the probed node and recruit an own-label
  // home settler as a guest helper, routed back through the prober's pin.
  const NodeId ui = engine_.positionOf(self);
  ProbeSight sight;
  sight.settler = homeSettlerAt(ui, label);
  for (const AgentIx b : engine_.agentsAt(ui)) {
    if (b != self && st_[b].label != label) {
      if (sight.met == kNoLabel || st_[b].label < sight.met) sight.met = st_[b].label;
    }
  }
  sight.empty = (engine_.countAt(ui) == 1);
  if (sight.settler != kNoAgent) {
    st_[sight.settler].orderGuestGoTo = engine_.pinOf(self);
    st_[sight.settler].isGuest = true;
    proberIdx_.insert(sight.settler, ui);  // guests are prober-eligible
  }
  return sight;
}

// ---------------------------------------------------------- participant

Task GeneralAsyncDispersion::participantStep(AgentIx self) {
  AgentState& me = st_[self];

  // --- prober errand (followers and guests) ---
  if (me.orderProbePort != kNoPort) {
    const Port p = me.orderProbePort;
    me.orderProbePort = kNoPort;
    engine_.move(self, p);  // arrive at the neighbor u_i
    co_await engine_.nextActivation(self);
    const ProbeSight sight = observeAndRecruit(self, me.label);
    me.reportEmpty = sight.empty;
    me.reportGuest = (sight.settler != kNoAgent);
    me.reportMet = sight.met;
    engine_.move(self, engine_.pinOf(self));  // return to w
    me.needReport = true;
    co_return;
  }

  // --- report probe results at w (next activation after returning) ---
  if (me.needReport) {
    me.needReport = false;
    const NodeId w = engine_.positionOf(self);
    const AgentIx aw = homeSettlerAt(w, me.label);
    DISP_CHECK(aw != kNoAgent, "probe report: no settler at w");
    AgentState& bb = st_[aw];
    ++bb.retCount;
    if (me.reportEmpty) {
      // The port of w this prober was assigned is recoverable from its own
      // pin: it returned through the same edge.
      const Port portOfW = engine_.pinOf(self);
      if (bb.nextFound == kNoPort || portOfW < bb.nextFound) bb.nextFound = portOfW;
    }
    if (me.reportGuest) ++bb.guestExpected;
    if (me.reportMet != kNoLabel) {
      probeMet_[me.label].emplace_back(me.reportMet, engine_.pinOf(self));
    }
    me.reportEmpty = me.reportGuest = false;
    me.reportMet = kNoLabel;
    co_return;
  }

  // --- settled agent recruited as guest: travel to w ---
  if (me.orderGuestGoTo != kNoPort) {
    const Port p = me.orderGuestGoTo;
    me.orderGuestGoTo = kNoPort;
    me.needRegister = true;
    engine_.move(self, p);
    co_return;
  }
  if (me.needRegister) {
    me.needRegister = false;
    me.guestEntryPort = engine_.pinOf(self);  // port of w back toward home
    const AgentIx aw = homeSettlerAt(engine_.positionOf(self), me.label);
    DISP_CHECK(aw != kNoAgent, "guest registration: no settler at w");
    ++st_[aw].guestArrived;
    co_return;
  }

  // --- see-off: guest walking home ---
  if (me.orderGoHome) {
    me.orderGoHome = false;
    engine_.move(self, me.guestEntryPort);
    me.guestEntryPort = kNoPort;
    me.isGuest = false;  // home again (position == settledAt)
    proberIdx_.erase(self);
    co_return;
  }

  // --- see-off: guest chaperoning a partner to the partner's home ---
  if (me.orderChaperone != kNoPort) {
    const Port p = me.orderChaperone;
    me.orderChaperone = kNoPort;
    engine_.move(self, p);
    // Wait at the partner's home until the partner (a settled own-label
    // occupant) is present, then return to w and report.
    for (;;) {
      co_await engine_.nextActivation(self);
      const NodeId here = engine_.positionOf(self);
      if (homeSettlerAt(here, me.label) != kNoAgent) {
        engine_.move(self, engine_.pinOf(self));
        break;
      }
    }
    co_await engine_.nextActivation(self);
    const AgentIx aw = homeSettlerAt(engine_.positionOf(self), me.label);
    DISP_CHECK(aw != kNoAgent, "chaperone report: no settler at w");
    ++st_[aw].seeOffReturned;
    co_return;
  }

  // --- settler α(w) escorting the final guest home ---
  if (me.orderEscort != kNoPort) {
    const Port p = me.orderEscort;
    me.orderEscort = kNoPort;
    engine_.move(self, p);
    for (;;) {
      co_await engine_.nextActivation(self);
      const NodeId here = engine_.positionOf(self);
      if (homeSettlerAt(here, me.label) != kNoAgent) {
        engine_.move(self, engine_.pinOf(self));
        break;
      }
    }
    co_return;  // back at w; the leader detects the settler's presence
  }

  // --- plain group move order ---
  if (me.orderFollow != kNoPort) {
    const Port p = me.orderFollow;
    me.orderFollow = kNoPort;
    engine_.move(self, p);
    co_return;
  }
}

// --------------------------------------------------------------- fibers

Task GeneralAsyncDispersion::agentFiber(AgentIx self) {
  for (;;) {
    co_await engine_.nextActivation(self);
    if (leadQueued_[self] != kNoGroup) {
      const std::uint32_t gi = leadQueued_[self];
      leadQueued_[self] = kNoGroup;
      co_await leaderLoop(gi, self);
      continue;  // fall back to participant mode with a fresh activation
    }
    dormantDuties(self);
    co_await participantStep(self);
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
      st_[a].orderFollow = p;
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
  const AgentIx prev = homeSettlerAt(engine_.positionOf(self), groups_[gi].label);
  DISP_CHECK(prev != kNoAgent, "previous child lost its settler");
  st_[prev].nextSiblingPort = newChildPort;
  engine_.move(self, engine_.pinOf(self));
  co_await engine_.nextActivation(self);
}

// --------------------------------------------------------------- probe

Task GeneralAsyncDispersion::leaderProbeTrip(std::uint32_t gi, AgentIx self,
                                             Port port) {
  engine_.move(self, port);
  co_await engine_.nextActivation(self);
  const ProbeSight sight = observeAndRecruit(self, groups_[gi].label);
  engine_.move(self, engine_.pinOf(self));
  co_await engine_.nextActivation(self);
  // Report (the leader is back at w).
  const AgentIx aw = homeSettlerAt(engine_.positionOf(self), groups_[gi].label);
  DISP_CHECK(aw != kNoAgent, "leader probe report: no settler at w");
  AgentState& bb = st_[aw];
  ++bb.retCount;
  if (sight.empty) {
    const Port portOfW = engine_.pinOf(self);
    if (bb.nextFound == kNoPort || portOfW < bb.nextFound) bb.nextFound = portOfW;
  }
  if (sight.settler != kNoAgent) ++bb.guestExpected;
  if (sight.met != kNoLabel) probeMet_[gi].emplace_back(sight.met, engine_.pinOf(self));
}

Task GeneralAsyncDispersion::probePhase(std::uint32_t gi, AgentIx self) {
  GroupCtx& ctx = groups_[gi];
  ctx.phase = "probe";
  ++stats_.probes;
  const Graph& g = engine_.graph();
  const NodeId w = engine_.positionOf(self);
  const AgentIx aw = homeSettlerAt(w, ctx.label);
  DISP_CHECK(aw != kNoAgent, "probe at a node without an own settler");
  const Port limit =
      static_cast<Port>(std::min<std::uint32_t>(g.degree(w), engine_.agentCount()));

  probeNext_[gi] = kNoPort;
  probeMet_[gi].clear();

  for (;;) {
    AgentState& bb = st_[aw];
    if (bb.checked >= limit) break;  // exhausted: probeNext_ stays ⊥

    const auto& avail = availableProbersAt(w, ctx.label);
    DISP_CHECK(!avail.empty(), "Async_Probe with no available agents");
    const Port delta = static_cast<Port>(std::min<std::uint32_t>(
        static_cast<std::uint32_t>(avail.size()), limit - bb.checked));
    ++stats_.probeIterations;

    bb.outCount = delta;
    bb.retCount = 0;
    bb.guestExpected = 0;
    bb.guestArrived = 0;
    bb.nextFound = kNoPort;

    bool selfProbes = false;
    Port selfPort = kNoPort;
    for (Port i = 0; i < delta; ++i) {
      const Port port = bb.checked + 1 + i;
      if (avail[i] == self) {
        selfProbes = true;
        selfPort = port;
      } else {
        st_[avail[i]].orderProbePort = port;
      }
    }
    if (selfProbes) co_await leaderProbeTrip(gi, self, selfPort);

    // Wait for every prober's report and every recruited guest's arrival.
    for (;;) {
      const AgentState& bbr = st_[aw];
      if (bbr.retCount == bbr.outCount && bbr.guestArrived == bbr.guestExpected) break;
      co_await engine_.nextActivation(self);
    }
    stats_.guestsRecruited += st_[aw].guestArrived;

    if (st_[aw].nextFound != kNoPort) {
      probeNext_[gi] = st_[aw].nextFound;
      break;  // checked intentionally not advanced (Algorithm 3 line 14–15)
    }
    st_[aw].checked = st_[aw].checked + delta;
  }
}

Task GeneralAsyncDispersion::seeOffPhase(std::uint32_t gi, AgentIx self) {
  GroupCtx& ctx = groups_[gi];
  ctx.phase = "seeOff";
  const NodeId w = engine_.positionOf(self);
  for (;;) {
    // Collect co-located own-label guests, ascending by ID (Algorithm 4).
    std::vector<AgentIx> guests;
    for (const AgentIx a : engine_.agentsAt(w)) {
      if (st_[a].label == ctx.label && st_[a].settled && st_[a].isGuest) {
        guests.push_back(a);
      }
    }
    if (guests.empty()) co_return;
    std::sort(guests.begin(), guests.end(),
              [&](AgentIx a, AgentIx b) { return engine_.idOf(a) < engine_.idOf(b); });
    ++stats_.seeOffSweeps;

    if (guests.size() == 1) {
      // α(w) escorts the last guest home (Algorithm 4 lines 2–4).
      const AgentIx g = guests.front();
      const AgentIx aw = homeSettlerAt(w, ctx.label);
      DISP_CHECK(aw != kNoAgent, "see-off without a settler at w");
      st_[aw].orderEscort = st_[g].guestEntryPort;
      st_[g].orderGoHome = true;
      // Wait until the guest is gone and the settler is back *with its
      // escort order consumed*.  Without the order check the guest can walk
      // home on its own before the settler ever leaves, the leader would
      // move on, and the stale escort order would later pull the settler
      // away from w mid-protocol — exactly the §4.3 in-transit hazard.
      for (;;) {
        co_await engine_.nextActivation(self);
        bool guestGone = true;
        for (const AgentIx a : engine_.agentsAt(w)) {
          guestGone &= !(st_[a].label == ctx.label && st_[a].settled && st_[a].isGuest);
        }
        const AgentIx back = homeSettlerAt(w, ctx.label);
        if (guestGone && back != kNoAgent && st_[back].orderEscort == kNoPort) co_return;
      }
    }

    // Pair (g1,g2), (g3,g4), ...: the pair walks to the odd member's home;
    // the even member chaperones and returns.  A trailing unpaired guest
    // waits for the next sweep.
    const AgentIx aw = homeSettlerAt(w, ctx.label);
    DISP_CHECK(aw != kNoAgent, "see-off without a settler at w");
    const auto pairs = static_cast<std::uint32_t>(guests.size() / 2);
    st_[aw].seeOffExpected = pairs;
    st_[aw].seeOffReturned = 0;
    for (std::uint32_t i = 0; i < pairs; ++i) {
      const AgentIx gHome = guests[2 * i];
      const AgentIx gBack = guests[2 * i + 1];
      st_[gBack].orderChaperone = st_[gHome].guestEntryPort;
      st_[gHome].orderGoHome = true;
    }
    for (;;) {
      if (st_[aw].seeOffReturned == st_[aw].seeOffExpected) break;
      co_await engine_.nextActivation(self);
    }
  }
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
  const AgentIx settler = homeSettlerAt(cur, ctx.label);
  DISP_CHECK(settler != kNoAgent, "rescan reached a non-own node");

  st_[settler].checked = 0;
  co_await probePhase(gi, self);
  co_await seeOffPhase(gi, self);
  if (probeNext_[gi] != kNoPort || !probeMet_[gi].empty()) {
    rescanFound_[gi] = 1;  // resume the DFS right here
    co_return;
  }

  Port c = st_[settler].firstChildPort;
  while (c != kNoPort) {
    co_await moveGroup(gi, c);
    const Port backUp = engine_.pinOf(self);
    const AgentIx cs = homeSettlerAt(engine_.positionOf(self), ctx.label);
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
      co_await probePhase(gi, self);
      co_await seeOffPhase(gi, self);
    }

    // Meetings discovered by this probe (report order).
    for (const auto& [label, port] : probeMet_[gi]) {
      co_await handleMeeting(gi, label, port);
      if (ctx.frozen || ctx.dissolved) break;
    }
    if (ctx.dissolved || ctx.frozen) continue;

    const Port next = probeNext_[gi];
    const AgentIx aw = homeSettlerAt(w, ctx.label);
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
