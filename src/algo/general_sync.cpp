#include "algo/general_sync.hpp"

#include <algorithm>

#include "algo/protocol_common.hpp"
#include "util/check.hpp"

namespace disp {

GeneralSyncDispersion::GeneralSyncDispersion(SyncEngine& engine)
    : engine_(engine),
      st_(engine.agentCount()),
      widths_(BitWidths::forRun(4ULL * engine.agentCount(), engine.graph().maxDegree(),
                                engine.agentCount())) {
  initGroups();
  ledGroups_.assign(engine_.agentCount(), 0);
  for (const GroupCtx& ctx : groups_) ++ledGroups_[ctx.leader];
  probeNext_.assign(groups_.size(), kNoPort);
  probeMet_.assign(groups_.size(), {});
}

void GeneralSyncDispersion::start() {
  for (std::uint32_t gi = 0; gi < groups_.size(); ++gi) {
    engine_.addFiber(groupFiber(gi));
  }
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
  const AgentIx aw = homeSettlerAt(engine_, st_, w, ctx.label);
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
      const AgentIx own = homeSettlerAt(engine_, st_, ui, ctx.label);
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
  const AgentIx prev =
      homeSettlerAt(engine_, st_, engine_.positionOf(m), groups_[gi].label);
  DISP_CHECK(prev != kNoAgent, "previous child lost its settler");
  st_[prev].nextSiblingPort = newChildPort;
  engine_.stageMove(m, engine_.pinOf(m));
  co_await engine_.nextRound();
}

// --------------------------------------------------------------- rescan

Task GeneralSyncDispersion::rescanVisit(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  ctx.phase = "rescan";
  const NodeId cur = engine_.positionOf(ctx.leader);
  const AgentIx settler = homeSettlerAt(engine_, st_, cur, ctx.label);
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
    const AgentIx cs =
        homeSettlerAt(engine_, st_, engine_.positionOf(ctx.leader), ctx.label);
    DISP_CHECK(cs != kNoAgent, "rescan child without settler");
    const Port sib = st_[cs].nextSiblingPort;
    co_await rescanVisit(gi);
    if (rescanFound_) co_return;  // stay put; frames unwind without moving
    co_await moveGroup(gi, backUp);
    c = sib;
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

    co_await probeStep(gi);
    co_await returnGuests(gi);

    // Meetings discovered by this probe (smallest label first).
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
        co_await sideTripSetNextSibling(gi, w, st_[aw].latestChildPort, next);
      }
      st_[aw].latestChildPort = next;

      co_await moveGroup(gi, next);
      const NodeId u = engine_.positionOf(ctx.leader);
      const Collision hit = forwardCollision(gi, u);
      if (hit.retreat) {
        ++stats_.retreats;
        co_await moveGroup(gi, engine_.pinOf(ctx.leader));
        // Undo the speculative sibling link: the child was not created.
        st_[aw].firstChildPort = prevFirst;
        st_[aw].latestChildPort = prevLatest;
        if (prevLatest != kNoPort) {
          co_await sideTripSetNextSibling(gi, w, prevLatest, kNoPort);
        }
        if (hit.met != kNoLabel) co_await handleMeeting(gi, hit.met, next);
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
