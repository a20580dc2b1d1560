#include "algo/general_sync.hpp"

#include <algorithm>

#include "algo/protocol_common.hpp"
#include "graph/graph_algos.hpp"
#include "util/check.hpp"

namespace disp {

GeneralSyncDispersion::GeneralSyncDispersion(SyncEngine& engine)
    : engine_(engine),
      st_(engine.agentCount()),
      widths_(BitWidths::forRun(4ULL * engine.agentCount(), engine.graph().maxDegree(),
                                engine.agentCount())) {
  // One group per initially occupied node (ascending node order, as the
  // historical std::set iteration produced).
  std::vector<NodeId> startNodes;
  startNodes.reserve(engine_.agentCount());
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    startNodes.push_back(engine_.positionOf(a));
  }
  std::sort(startNodes.begin(), startNodes.end());
  startNodes.erase(std::unique(startNodes.begin(), startNodes.end()),
                   startNodes.end());
  ledGroups_.assign(engine_.agentCount(), 0);
  for (const NodeId s : startNodes) {
    GroupCtx ctx;
    ctx.label = static_cast<Label>(groups_.size());
    ctx.head = s;
    for (const AgentIx a : engine_.agentsAt(s)) {
      st_[a].label = ctx.label;
      ++ctx.total;
      if (ctx.leader == kNoAgent || engine_.idOf(a) > engine_.idOf(ctx.leader)) {
        ctx.leader = a;
      }
    }
    ctx.unsettled = ctx.total;
    ++ledGroups_[ctx.leader];
    unsettledTotal_ += ctx.unsettled;
    groups_.push_back(ctx);
  }
  probeNext_.assign(groups_.size(), kNoPort);
  probeMet_.assign(groups_.size(), {});
}

void GeneralSyncDispersion::start() {
  for (std::uint32_t gi = 0; gi < groups_.size(); ++gi) {
    engine_.addFiber(groupFiber(gi));
  }
}

bool GeneralSyncDispersion::dispersed() const {
  std::vector<NodeId> where;
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    if (!st_[a].settled || st_[a].isGuest) return false;
    if (engine_.positionOf(a) != st_[a].settledAt) return false;
    where.push_back(engine_.positionOf(a));
  }
  return isDispersed(where);
}

std::uint64_t GeneralSyncDispersion::agentBits(AgentIx a) const {
  // id + label + flags + settler record (6 ports) + guest entry + checked,
  // plus a constant-size leadership record (two size counters + head port)
  // per group whose leader field is `a`.  ledGroups_ caches the group scan:
  // the leader field changes only at construction and re-election, where
  // the cache is maintained — so this is the historical sum, in O(1).
  return widths_.id + widths_.count + 3 + 7ULL * widths_.port +
         ledGroups_[a] * (2ULL * widths_.count + widths_.port);
}

void GeneralSyncDispersion::recordMemory() {
  // The ledger keeps a running max per agent, and an agent's bits change
  // only when its ledGroups_ count moves (re-election).  So after one full
  // flush, re-recording agents whose bits did not *rise* is a no-op; only
  // re-elected leaders (memoryDirty_) need a fresh record.  This turns the
  // historical O(k·ℓ) sweep per settle into O(k) once plus O(1) amortized.
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

AgentIx GeneralSyncDispersion::homeSettlerAt(NodeId v, Label label) const {
  for (const AgentIx a : engine_.agentsAt(v)) {
    if (st_[a].settled && !st_[a].isGuest && st_[a].settledAt == v &&
        st_[a].label == label) {
      return a;
    }
  }
  return kNoAgent;
}

AgentIx GeneralSyncDispersion::anySettlerAt(NodeId v) const {
  for (const AgentIx a : engine_.agentsAt(v)) {
    if (st_[a].settled && !st_[a].isGuest && st_[a].settledAt == v) return a;
  }
  return kNoAgent;
}

std::vector<AgentIx> GeneralSyncDispersion::groupAt(NodeId v, Label label) const {
  std::vector<AgentIx> g;
  for (const AgentIx a : engine_.agentsAt(v)) {
    if (!st_[a].settled && st_[a].label == label) g.push_back(a);
  }
  return g;
}

Task GeneralSyncDispersion::moveGroup(std::uint32_t gi, Port p) {
  const NodeId at = engine_.positionOf(groups_[gi].leader);
  for (const AgentIx a : groupAt(at, groups_[gi].label)) engine_.stageMove(a, p);
  co_await engine_.nextRound();
  ++stats_.collapseHops;  // re-used as a generic hop counter during collapses
}

void GeneralSyncDispersion::settle(std::uint32_t gi, AgentIx a, NodeId at,
                                   Port parentPort) {
  AgentState& s = st_[a];
  DISP_CHECK(!s.settled, "double settle");
  s.settled = true;
  s.settledAt = at;
  s.parentPort = parentPort;
  s.checked = 0;
  s.firstChildPort = s.latestChildPort = s.nextSiblingPort = kNoPort;
  --groups_[gi].unsettled;
  --unsettledTotal_;
  engine_.traceSettle(a, groups_[gi].label);
  recordMemory();
}

// --------------------------------------------------------------- probe

Task GeneralSyncDispersion::probeStep(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  ctx.phase = "probe";
  const Graph& g = engine_.graph();
  const NodeId w = engine_.positionOf(ctx.leader);
  const AgentIx aw = homeSettlerAt(w, ctx.label);
  DISP_CHECK(aw != kNoAgent, "probe at a node without an own settler");
  const Port limit =
      static_cast<Port>(std::min<std::uint32_t>(g.degree(w), engine_.agentCount()));

  probeNext_[gi] = kNoPort;
  probeMet_[gi].clear();

  while (st_[aw].checked < limit) {
    std::vector<AgentIx> avail;
    for (const AgentIx a : engine_.agentsAt(w)) {
      if (st_[a].label != ctx.label) continue;
      if (!st_[a].settled || st_[a].isGuest) avail.push_back(a);
    }
    if (avail.empty()) {
      std::string diag = "probe without available agents: label=" +
                         std::to_string(ctx.label) +
                         " unsettled=" + std::to_string(ctx.unsettled) + " strays:";
      for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
        if (st_[a].label == ctx.label && !st_[a].settled) {
          diag += " a" + std::to_string(a) + "@" +
                  std::to_string(engine_.positionOf(a)) +
                  (a == ctx.leader ? "(leader)" : "");
        }
      }
      diag += " head=" + std::to_string(w);
      DISP_CHECK(false, diag);
    }
    const Port delta = static_cast<Port>(std::min<std::uint32_t>(
        static_cast<std::uint32_t>(avail.size()), limit - st_[aw].checked));
    // Only the δ smallest-ID agents probe.  IDs are unique, so this prefix
    // is exactly the one a full sort by ID would produce.
    std::partial_sort(avail.begin(), avail.begin() + delta, avail.end(),
                      [&](AgentIx a, AgentIx b) { return engine_.idOf(a) < engine_.idOf(b); });
    ++stats_.probeIterations;

    // Out (one round): prober i takes port checked+1+i.
    for (Port i = 0; i < delta; ++i) {
      engine_.stageMove(avail[i], st_[aw].checked + 1 + i);
    }
    co_await engine_.nextRound();

    // Observe and recruit; then everyone returns together (one round).
    std::vector<std::uint8_t> empty(delta, 1);
    for (Port i = 0; i < delta; ++i) {
      const Port port = st_[aw].checked + 1 + i;
      const NodeId ui = engine_.positionOf(avail[i]);
      const AgentIx own = homeSettlerAt(ui, ctx.label);
      bool foreign = false;
      Label foreignLabel = kNoLabel;
      for (const AgentIx b : engine_.agentsAt(ui)) {
        if (b != avail[i] && st_[b].label != ctx.label) {
          foreign = true;
          if (foreignLabel == kNoLabel || st_[b].label < foreignLabel) {
            foreignLabel = st_[b].label;
          }
        }
      }
      if (own != kNoAgent) {
        // Recruit the settler as a helper: it walks back with the prober.
        st_[own].isGuest = true;
        st_[own].guestEntryPort = port;  // port of w leading home
        engine_.stageMove(own, engine_.pinOf(avail[i]));
      }
      if (foreign) probeMet_[gi].emplace_back(foreignLabel, port);
      // Fully unsettled iff the prober stands there alone.
      empty[i] = (engine_.countAt(ui) == 1) ? 1 : 0;
      engine_.stageMove(avail[i], engine_.pinOf(avail[i]));
    }
    co_await engine_.nextRound();

    Port found = kNoPort;
    for (Port i = 0; i < delta; ++i) {
      if (empty[i]) {
        found = st_[aw].checked + 1 + i;
        break;
      }
    }
    if (found != kNoPort) {
      probeNext_[gi] = found;
      co_return;  // checked not advanced: skipped ports re-examined later
    }
    st_[aw].checked = st_[aw].checked + delta;
  }
}

Task GeneralSyncDispersion::returnGuests(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  const NodeId w = engine_.positionOf(ctx.leader);
  bool any = false;
  for (const AgentIx a : engine_.agentsAt(w)) {
    if (st_[a].label == ctx.label && st_[a].isGuest) {
      engine_.stageMove(a, st_[a].guestEntryPort);
      st_[a].isGuest = false;
      st_[a].guestEntryPort = kNoPort;
      any = true;
    }
  }
  if (any) co_await engine_.nextRound();  // all helpers go home in one round
}

Task GeneralSyncDispersion::sideTripSetNextSibling(std::uint32_t gi, NodeId w,
                                                   Port prevChildPort,
                                                   Port newChildPort) {
  // Any unsettled group member (possibly the leader itself) hops to the
  // previous child and links the sibling chain (used by collapse walks).
  const auto members = groupAt(w, groups_[gi].label);
  DISP_CHECK(!members.empty(), "no messenger available");
  const AgentIx m = members.front();
  engine_.stageMove(m, prevChildPort);
  co_await engine_.nextRound();
  const AgentIx prev = homeSettlerAt(engine_.positionOf(m), groups_[gi].label);
  DISP_CHECK(prev != kNoAgent, "previous child lost its settler");
  st_[prev].nextSiblingPort = newChildPort;
  engine_.stageMove(m, engine_.pinOf(m));
  co_await engine_.nextRound();
}

// ---------------------------------------------------------- subsumption

Task GeneralSyncDispersion::awaitParked(std::uint32_t loser) {
  // (caller sets phase)
  // The loser acknowledges the freeze at its next safe point; a group whose
  // fiber already finished (fully settled) counts as parked.
  for (std::uint64_t i = 0; i < 1u << 20; ++i) {
    const GroupCtx& L = groups_[loser];
    if (L.parked || (L.unsettled == 0 && !L.marching)) co_return;
    co_await engine_.nextRound();
  }
  DISP_CHECK(false, "loser never parked");
}

Task GeneralSyncDispersion::collapseVisit(std::uint32_t gi, Label loserLabel,
                                          Port exclPort) {
  GroupCtx& ctx = groups_[gi];
  const NodeId cur = engine_.positionOf(ctx.leader);

  // Collect any parked loser-group agents stranded here (including the
  // loser's leader): they simply change allegiance and walk with us.
  for (const AgentIx a : engine_.agentsAt(cur)) {
    if (st_[a].label == loserLabel && !st_[a].settled) {
      st_[a].label = ctx.label;
      ++ctx.total;
      ++ctx.unsettled;
      --groups_[loserLabel].total;
      --groups_[loserLabel].unsettled;
    }
  }

  const AgentIx ls = homeSettlerAt(cur, loserLabel);
  if (ls == kNoAgent) {
    std::string diag = "collapse walk: loser tree node without settler: node=" +
                       std::to_string(cur) + " loser=" + std::to_string(loserLabel) +
                       " walker=" + std::to_string(ctx.label) + " occupants:";
    for (const AgentIx b : engine_.agentsAt(cur)) {
      diag += " a" + std::to_string(b) + "(l" + std::to_string(st_[b].label) +
              (st_[b].settled ? ",s" : ",u") + (st_[b].isGuest ? ",g)" : ")");
    }
    DISP_CHECK(false, diag);
  }
  const Port parentPort = st_[ls].parentPort;
  const Port firstChild = st_[ls].firstChildPort;

  // Children chain (skipping the direction we came from; for that child we
  // only peek its sibling pointer to continue the chain).
  Port c = firstChild;
  while (c != kNoPort) {
    if (c == exclPort) {
      co_await moveGroup(gi, c);
      const AgentIx cs = homeSettlerAt(engine_.positionOf(ctx.leader), loserLabel);
      const Port sib = (cs != kNoAgent) ? st_[cs].nextSiblingPort : kNoPort;
      co_await moveGroup(gi, engine_.pinOf(ctx.leader));
      c = sib;
      continue;
    }
    co_await moveGroup(gi, c);
    const Port backUp = engine_.pinOf(ctx.leader);
    const AgentIx cs = homeSettlerAt(engine_.positionOf(ctx.leader), loserLabel);
    DISP_CHECK(cs != kNoAgent, "collapse walk: child without settler");
    const Port sib = st_[cs].nextSiblingPort;
    co_await collapseVisit(gi, loserLabel, backUp);
    co_await moveGroup(gi, backUp);
    c = sib;
  }

  // Parent direction (when we entered from a child or from outside).
  if (parentPort != kNoPort && parentPort != exclPort) {
    co_await moveGroup(gi, parentPort);
    const Port backDown = engine_.pinOf(ctx.leader);
    co_await collapseVisit(gi, loserLabel, backDown);
    co_await moveGroup(gi, backDown);
  }

  // Finally collect this node's settler; its record dies with it.
  AgentState& s = st_[ls];
  s.settled = false;
  s.settledAt = kInvalidNode;
  s.label = ctx.label;
  ++ctx.total;
  ++ctx.unsettled;
  ++unsettledTotal_;
  --groups_[loserLabel].total;
  --groups_[loserLabel].treeSize;
  engine_.traceUnsettle(ls, loserLabel, ctx.label);
}

Task GeneralSyncDispersion::marchToward(std::uint32_t gi, AgentIx anchor) {
  // BFS walk of the whole group toward the anchor agent's (possibly
  // moving) position; every hop is a real staged move.
  for (std::uint64_t guard = 0; guard < 1u << 20; ++guard) {
    const NodeId here = engine_.positionOf(groups_[gi].leader);
    const NodeId there = engine_.positionOf(anchor);
    if (here == there) co_return;
    const Port step = stepToward(engine_.graph(), here, there, route_);
    DISP_CHECK(step != kNoPort, "march lost its way");
    co_await moveGroup(gi, step);
  }
  DISP_CHECK(false, "march never arrived");
}

Task GeneralSyncDispersion::collapseForeign(std::uint32_t gi, std::uint32_t loser,
                                            Port metPort) {
  bool usedPort = false;
  if (metPort != kNoPort) {
    // Enter the loser tree through the met port, Euler-walk it collecting
    // everyone, end back at the entry node, and hop home.  The met node may
    // turn out not to be a loser *tree* node (the meeting was with agents
    // in transit); fall back to the march path then.
    co_await moveGroup(gi, metPort);
    const Port backToHead = engine_.pinOf(groups_[gi].leader);
    if (homeSettlerAt(engine_.positionOf(groups_[gi].leader), groups_[loser].label) !=
        kNoAgent) {
      usedPort = true;
      co_await collapseVisit(gi, groups_[loser].label, kNoPort);
    }
    co_await moveGroup(gi, backToHead);
  }
  if (!usedPort) {
    // Pended retry: no fresh adjacency.  March to the loser's parked group
    // (its leader rests on a loser tree node), collapse from there, then
    // march back to our own head to resume the DFS.
    const NodeId myHead = engine_.positionOf(groups_[gi].leader);
    const AgentIx loserAnchor = groups_[loser].leader;
    co_await marchToward(gi, loserAnchor);
    co_await collapseVisit(gi, groups_[loser].label, kNoPort);
    // March home: anchor on our own settler at the head (the head always
    // holds one).
    const AgentIx homeAnchor = homeSettlerAt(myHead, groups_[gi].label);
    DISP_CHECK(homeAnchor != kNoAgent, "head lost its settler during collapse");
    co_await marchToward(gi, homeAnchor);
  }
  groups_[gi].head = engine_.positionOf(groups_[gi].leader);
  recordMemory();
}

std::uint32_t GeneralSyncDispersion::resolveGroup(std::uint32_t g) const {
  while (groups_[g].dissolved) g = groups_[g].absorbedBy;
  return g;
}

Task GeneralSyncDispersion::selfCollapseAndMarch(std::uint32_t gi,
                                                 std::uint32_t winner, Port metPort) {
  GroupCtx& ctx = groups_[gi];
  // Collapse our own tree starting from the head (a tree node), collecting
  // all our settlers into the walking group.
  co_await collapseVisit(gi, ctx.label, kNoPort);
  // Chase the winner's leader (the group anchor: with the group while
  // active, at its settle node when dormant).  The winner idles at its
  // next safe point until we arrive and absorbs us (absorbMarchers);
  // routing uses engine-side position tracking standing in for KS's
  // head-pointer maintenance, with every hop a real move.
  if (metPort != kNoPort) co_await moveGroup(gi, metPort);
  ctx.marchTarget = winner;
  ctx.marching = true;
  ++marchingCount_;
  for (std::uint64_t guard = 0; guard < 1u << 20; ++guard) {
    if (ctx.dissolved) co_return;  // the winner absorbed us
    const std::uint32_t target = resolveGroup(ctx.marchTarget);
    const NodeId here = engine_.positionOf(ctx.leader);
    const NodeId head = engine_.positionOf(groups_[target].leader);
    if (here == head) {
      co_await engine_.nextRound();  // co-located: wait for the absorb
      continue;
    }
    const Port step = stepToward(engine_.graph(), here, head, route_);
    DISP_CHECK(step != kNoPort, "march lost its way");
    co_await moveGroup(gi, step);
  }
  DISP_CHECK(false, "march never absorbed");
}

Task GeneralSyncDispersion::absorbMarchers(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  for (;;) {
    // Junction locking (DESIGN.md §4.7): a group that has been frozen or
    // dissolved must not take marchers in.  Its winner's collapse walk
    // collects only tree settlers, so members absorbed mid-freeze would be
    // orphaned unsettled when this fiber parks — the seed-dependent
    // grid/ℓ=8 round-cap divergence.  Bailing out is safe: the marchers'
    // loop re-resolves their target through the dissolution chain and
    // delivers them to the eventual winner instead.
    if (ctx.frozen || ctx.dissolved) co_return;
    // Nothing marching anywhere ⇒ the scan below finds nothing; skip it.
    // marchingCount_ mirrors the `marching` flag's two mutation sites.
    if (marchingCount_ == 0) co_return;
    std::int64_t marcher = -1;
    for (std::uint32_t mi = 0; mi < groups_.size(); ++mi) {
      if (groups_[mi].marching && !groups_[mi].dissolved &&
          resolveGroup(groups_[mi].marchTarget) == gi) {
        marcher = mi;
        break;
      }
    }
    if (marcher < 0) co_return;
    ctx.phase = "absorbWait";
    auto& m = groups_[static_cast<std::uint32_t>(marcher)];
    // Idle until the marcher's group reaches our leader, then take them in
    // — unless a winner freezes us first (see above), or the marcher is
    // rerouted meanwhile.
    while (!ctx.frozen && !ctx.dissolved && !m.dissolved &&
           engine_.positionOf(m.leader) != engine_.positionOf(ctx.leader)) {
      co_await engine_.nextRound();
    }
    if (ctx.frozen || ctx.dissolved) co_return;
    if (m.dissolved) continue;  // absorbed elsewhere; rescan
    std::uint32_t joined = 0;
    for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
      if (st_[a].label == m.label && !st_[a].settled) {
        DISP_CHECK(engine_.positionOf(a) == engine_.positionOf(ctx.leader),
                   "marcher group not consolidated at absorb time");
        st_[a].label = ctx.label;
        ++joined;
      }
    }
    ctx.total += joined;
    ctx.unsettled += joined;
    m.total -= joined;
    m.unsettled -= joined;
    DISP_CHECK(m.total == 0 && m.unsettled == 0, "marcher left agents behind");
    m.dissolved = true;
    m.absorbedBy = gi;
    m.marching = false;
    --marchingCount_;
    recordMemory();
  }
}

Task GeneralSyncDispersion::handleMeeting(std::uint32_t gi, Label other,
                                          Port metPort) {
  GroupCtx& ctx = groups_[gi];
  // A group that has itself been frozen (a winner is about to collapse it)
  // must not initiate anything: it parks at its next safe point and gets
  // collected.  Acting here would let it march away from under the waiting
  // winner.
  if (ctx.frozen || ctx.dissolved || ctx.marching) co_return;
  const std::uint32_t target = resolveGroup(other);
  if (target == gi) co_return;
  GroupCtx& them = groups_[target];
  if (them.frozen || them.marching) {
    // Busy peer: pend the meeting (dropping it could wall this tree in,
    // since a probed port is never re-probed once `checked` advances).
    if (std::find(ctx.pending.begin(), ctx.pending.end(), them.label) ==
        ctx.pending.end()) {
      ctx.pending.push_back(them.label);
    }
    co_return;
  }
  ++stats_.meetings;
  engine_.traceEvent(TraceEventKind::Meeting, ctx.leader,
                     engine_.positionOf(ctx.leader), ctx.label, them.label);

  // |D2| < |D1| means D1 subsumes D2; ties favour the met tree (§4.2).
  const bool iWin = them.treeSize < ctx.treeSize;
  ++stats_.subsumptions;
  engine_.traceEvent(TraceEventKind::Subsume,
                     iWin ? ctx.leader : them.leader,
                     engine_.positionOf(ctx.leader),
                     iWin ? ctx.label : them.label,
                     iWin ? them.label : ctx.label);
  if (iWin) {
    them.frozen = true;
    engine_.traceEvent(TraceEventKind::Freeze, them.leader,
                       engine_.positionOf(them.leader), them.label, ctx.label);
    groups_[gi].phase = "awaitParked";
    co_await awaitParked(target);
    groups_[gi].phase = "collapseForeign";
    if (!them.dissolved) {
      co_await collapseForeign(gi, target, metPort);
      them.dissolved = true;
      them.absorbedBy = gi;
    }
  } else {
    ctx.frozen = true;  // others must not target us mid-self-collapse
    engine_.traceEvent(TraceEventKind::Freeze, ctx.leader,
                       engine_.positionOf(ctx.leader), ctx.label, them.label);
    ctx.phase = "selfCollapse";
    co_await selfCollapseAndMarch(gi, target, metPort);
  }
}

Task GeneralSyncDispersion::rescanVisit(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  ctx.phase = "rescan";
  const NodeId cur = engine_.positionOf(ctx.leader);
  const AgentIx settler = homeSettlerAt(cur, ctx.label);
  DISP_CHECK(settler != kNoAgent, "rescan reached a non-own node");

  st_[settler].checked = 0;
  co_await probeStep(gi);
  co_await returnGuests(gi);
  if (probeNext_[gi] != kNoPort || !probeMet_[gi].empty()) {
    rescanFound_ = true;  // resume the DFS right here
    co_return;
  }

  Port c = st_[settler].firstChildPort;
  while (c != kNoPort) {
    co_await moveGroup(gi, c);
    const Port backUp = engine_.pinOf(ctx.leader);
    const AgentIx cs = homeSettlerAt(engine_.positionOf(ctx.leader), ctx.label);
    DISP_CHECK(cs != kNoAgent, "rescan child without settler");
    const Port sib = st_[cs].nextSiblingPort;
    co_await rescanVisit(gi);
    if (rescanFound_) co_return;  // stay put; frames unwind without moving
    co_await moveGroup(gi, backUp);
    c = sib;
  }
}

Task GeneralSyncDispersion::retryPending(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  if (ctx.unsettled == 0) {
    // A dispersed group never needs to initiate a subsumption: if a blocked
    // peer still needs this tree's nodes, it will meet us and act (winning
    // by collapsing us, or losing by marching its agents here).
    ctx.pending.clear();
    co_return;
  }
  std::vector<Label> todo;
  std::swap(todo, ctx.pending);
  for (const Label label : todo) {
    if (ctx.frozen || ctx.dissolved) {
      // Re-pend what we could not process; a later owner inherits it.
      ctx.pending.push_back(label);
      continue;
    }
    if (resolveGroup(label) == gi) continue;  // merged meanwhile
    co_await handleMeeting(gi, label, kNoPort);
  }
}

// ----------------------------------------------------------------- main

Task GeneralSyncDispersion::groupFiber(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];

  // Settle the smallest-ID member at the start node.
  {
    const NodeId s = engine_.positionOf(ctx.leader);
    const AgentIx amin = minIdAgentAt(engine_, s, [&](AgentIx a) {
      return st_[a].label == ctx.label && !st_[a].settled;
    });
    settle(gi, amin, s, kNoPort);
    ctx.treeSize = 1;
  }

  for (;;) {
    // Dormant / parked / absorbed handling.
    if (ctx.dissolved) co_return;
    if (ctx.frozen) {
      ctx.parked = true;
      while (!ctx.dissolved) co_await engine_.nextRound();
      co_return;
    }
    co_await absorbMarchers(gi);
    // If the leader settled (it was the last of its own batch) and new
    // agents have since joined, the unsettled co-located agents elect the
    // largest-ID among them as the new leader.  This must precede any
    // meeting work: collapse walks and marches anchor on the leader.
    if (st_[ctx.leader].settled && ctx.unsettled > 0) {
      const NodeId at = engine_.positionOf(ctx.leader);
      const AgentIx fresh = maxIdAgentAt(engine_, at, [&](AgentIx a) {
        return st_[a].label == ctx.label && !st_[a].settled;
      });
      DISP_CHECK(fresh != kNoAgent, "no co-located candidate for leader re-election");
      --ledGroups_[ctx.leader];
      ctx.leader = fresh;
      ++ledGroups_[fresh];
      memoryDirty_.push_back(fresh);  // bits rose; flushed by next recordMemory
    }
    co_await retryPending(gi);
    if (ctx.dissolved || ctx.frozen) continue;
    if (ctx.unsettled == 0) {
      // Dispersed (for now): stay reactive — marchers may still join, or a
      // winner may subsume this tree later.
      if (unsettledTotal_ == 0) co_return;
      co_await engine_.nextRound();
      continue;
    }

    const NodeId w = engine_.positionOf(ctx.leader);
    ctx.head = w;

    co_await probeStep(gi);
    co_await returnGuests(gi);

    // Meetings discovered by this probe (smallest label first).
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
        co_await sideTripSetNextSibling(gi, w, st_[aw].latestChildPort, next);
      }
      st_[aw].latestChildPort = next;

      co_await moveGroup(gi, next);
      const NodeId u = engine_.positionOf(ctx.leader);
      const AgentIx foreignSettler = anySettlerAt(u);
      bool retreat = false;
      Label metLabel = kNoLabel;
      if (foreignSettler != kNoAgent) {
        retreat = true;
        metLabel = st_[foreignSettler].label;
      } else {
        // Collision with a foreign group on an empty node: the smaller tree
        // (ties: smaller label) retreats; both sides compute the same rule.
        for (const AgentIx b : engine_.agentsAt(u)) {
          if (st_[b].label == ctx.label || st_[b].settled) continue;
          const std::uint32_t otherGi = resolveGroup(st_[b].label);
          const auto mine = std::make_pair(ctx.treeSize, ctx.label);
          const auto theirs =
              std::make_pair(groups_[otherGi].treeSize, groups_[otherGi].label);
          if (mine < theirs) retreat = true;
        }
      }
      if (retreat) {
        ++stats_.retreats;
        co_await moveGroup(gi, engine_.pinOf(ctx.leader));
        // Undo the speculative sibling link: the child was not created.
        st_[aw].firstChildPort = prevFirst;
        st_[aw].latestChildPort = prevLatest;
        if (prevLatest != kNoPort) {
          co_await sideTripSetNextSibling(gi, w, prevLatest, kNoPort);
        }
        if (metLabel != kNoLabel) co_await handleMeeting(gi, metLabel, next);
        continue;
      }

      ++stats_.forwardMoves;
      ++ctx.treeSize;
      const AgentIx amin = minIdAgentAt(engine_, u, [&](AgentIx a) {
        return st_[a].label == ctx.label && !st_[a].settled;
      });
      settle(gi, amin, u, engine_.pinOf(amin));
    } else {
      const Port pp = st_[aw].parentPort;
      if (pp == kNoPort) {
        // Root exhausted while agents remain.  A collapse may have freed
        // nodes behind already-checked ports anywhere along our tree, so
        // sweep the whole tree re-probing (rescanVisit); if that finds
        // nothing every frontier peer is busy — pend/retry after a pause.
        if (ctx.pending.empty()) {
          rescanFound_ = false;
          co_await rescanVisit(gi);
          if (!rescanFound_) co_await skipRounds(engine_, 8);
        } else {
          co_await skipRounds(engine_, 8);
        }
        continue;
      }
      ++stats_.backtracks;
      co_await moveGroup(gi, pp);
    }
  }
}

}  // namespace disp
