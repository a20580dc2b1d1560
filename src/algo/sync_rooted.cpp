#include "algo/sync_rooted.hpp"

#include <algorithm>

#include "algo/protocol_common.hpp"
#include "util/check.hpp"

namespace disp {

namespace {
/// Longest tolerated wait for a custodian/oscillator rendezvous.  Trips are
/// ≤ 6 rounds (Lemma 2), so 6 always suffices; the slack catches bugs fast.
constexpr std::uint32_t kMaxCustodianWait = 10;
}  // namespace

RootedSyncDispersion::RootedSyncDispersion(SyncEngine& engine)
    : engine_(engine),
      osc_(engine),
      st_(engine.agentCount()),
      widths_(BitWidths::forRun(4ULL * engine.agentCount(), engine.graph().maxDegree(),
                                engine.agentCount())) {
  const std::uint32_t k = engine_.agentCount();
  DISP_REQUIRE(k >= 7,
               "RootedSyncDisp requires k >= 7 (the runner facade uses the KS "
               "baseline below that)");
  const NodeId root = engine_.positionOf(0);
  for (AgentIx a = 0; a < k; ++a) {
    DISP_REQUIRE(engine_.positionOf(a) == root,
                 "RootedSyncDisp expects a rooted initial configuration");
  }

  // Roles: a_max leads; the next ⌈k/3⌉ largest IDs are seekers; the rest
  // (including the global minimum) are explorers.
  std::vector<AgentIx> byId(k);
  for (AgentIx a = 0; a < k; ++a) byId[a] = a;
  std::sort(byId.begin(), byId.end(),
            [&](AgentIx a, AgentIx b) { return engine_.idOf(a) > engine_.idOf(b); });
  leader_ = byId[0];
  st_[leader_].role = Role::Leader;
  const std::uint32_t seekerCount = (k + 2) / 3;  // ⌈k/3⌉
  for (std::uint32_t i = 1; i <= seekerCount; ++i) st_[byId[i]].role = Role::Seeker;
  for (std::uint32_t i = seekerCount + 1; i < k; ++i) st_[byId[i]].role = Role::Explorer;
  // byId is descending; record the seeker pool in ascending-ID order so
  // probe gathering preserves the historical sorted order without sorting.
  seekersById_.assign(byId.begin() + 1, byId.begin() + 1 + seekerCount);
  std::reverse(seekersById_.begin(), seekersById_.end());

  bitsDirtyFlag_.assign(k, 1);
  bitsDirty_.resize(k);
  for (AgentIx a = 0; a < k; ++a) bitsDirty_[a] = a;
}

void RootedSyncDispersion::start() {
  osc_.install();
  engine_.addFiber(protocol());
}

bool RootedSyncDispersion::dispersed() const {
  std::vector<NodeId> where;
  for (AgentIx a = 0; a < engine_.agentCount(); ++a) {
    if (!st_[a].settled) return false;
    where.push_back(engine_.positionOf(a));
  }
  return isDispersed(where);
}

std::uint64_t RootedSyncDispersion::agentBits(AgentIx a) const {
  const std::uint64_t recordBits = 1 + 7ULL * widths_.port + 3ULL * widths_.count;
  const AgentState& s = st_[a];
  // id + role + settled + pin.
  std::uint64_t bits = widths_.id + 2 + 1 + widths_.port;
  if (s.ownRecord) bits += recordBits;
  bits += s.covered.size() * (widths_.port + recordBits);
  if (osc_.isOscillating(a)) bits += 2 + 6ULL * widths_.port;  // trip state
  if (a == leader_) {
    // in-hand record + tree size + settled count + probe cursor.
    bits += recordBits + 2ULL * widths_.count + widths_.port;
  }
  if (s.role == Role::Seeker) bits += 1 + widths_.port;  // met flag + errand port
  return bits;
}

void RootedSyncDispersion::recordMemory() {
  // Only agents whose persistent fields changed since the last checkpoint
  // can raise their high-water mark; unchanged agents would re-record the
  // same value.  Every bit-affecting mutation calls markBits().
  for (const AgentIx a : bitsDirty_) {
    engine_.memory().record(a, agentBits(a));
    bitsDirtyFlag_[a] = 0;
  }
  bitsDirty_.clear();
}

// ------------------------------------------------------------- helpers

AgentIx RootedSyncDispersion::pickSeekerAt(NodeId v) const {
  return minIdAgentAt(engine_, v, [this](AgentIx a) {
    return !st_[a].settled && st_[a].role == Role::Seeker;
  });
}

AgentIx RootedSyncDispersion::settlerAtNode(NodeId v) const {
  for (const AgentIx a : engine_.agentsAt(v)) {
    if (st_[a].settled && st_[a].settledAt == v) return a;
  }
  return kNoAgent;
}

Task RootedSyncDispersion::moveGroup(NodeId from, Port p) {
  // Stage directly off the occupancy view (staging does not move agents,
  // so the view stays valid) — no per-call group vector.
  for (const AgentIx a : engine_.agentsAt(from)) {
    if (!st_[a].settled) engine_.stageMove(a, p);
  }
  co_await engine_.nextRound();
}

void RootedSyncDispersion::settleAgent(AgentIx a, NodeId at) {
  DISP_CHECK(!st_[a].settled, "double settle");
  st_[a].settled = true;
  st_[a].settledAt = at;
  ++settledCount_;
  engine_.traceSettle(a);
}

AgentIx RootedSyncDispersion::chooseSettleCandidate(NodeId at) {
  AgentIx who = minIdAgentAt(engine_, at, [this](AgentIx a) {
    return !st_[a].settled && st_[a].role == Role::Explorer;
  });
  if (who == kNoAgent) {
    // Tight ⌊2k/3⌋ case: borrow (demote) the smallest-ID seeker.
    who = pickSeekerAt(at);
    DISP_CHECK(who != kNoAgent, "no explorer and no seeker left to settle");
    st_[who].role = Role::Explorer;
    markBits(who);
    ++stats_.borrows;
    DISP_CHECK(stats_.borrows <= 2, "more than two seeker borrows (bug)");
  }
  return who;
}

Task RootedSyncDispersion::awaitSettlerIdleAtHome(NodeId v) {
  // The settler of v may be away mid-oscillation; it is idle at home at
  // least once every 6 rounds (cycle boundary).
  for (std::uint32_t i = 0; i <= kMaxCustodianWait; ++i) {
    const AgentIx a = settlerAtNode(v);
    if (a != kNoAgent && osc_.isIdleAtHome(a)) {
      foundSettler_ = a;
      co_return;
    }
    ++stats_.custodianWaitRounds;
    co_await engine_.nextRound();
  }
  DISP_CHECK(false, "settler never idled at home (trip > 6 rounds?)");
}

// -------------------------------------------------------- record custody

NodeRecord* RootedSyncDispersion::holderRecordAt(NodeId v, AgentIx* holder,
                                                 std::size_t* coveredIx) {
  for (const AgentIx a : engine_.agentsAt(v)) {
    AgentState& s = st_[a];
    if (s.settled && s.settledAt == v && s.ownRecord) {
      if (holder) *holder = a;
      if (coveredIx) *coveredIx = static_cast<std::size_t>(-1);
      return &*s.ownRecord;
    }
    for (std::size_t i = 0; i < s.covered.size(); ++i) {
      if (s.covered[i].node == v) {
        if (holder) *holder = a;
        if (coveredIx) *coveredIx = i;
        return &s.covered[i].record;
      }
    }
  }
  return nullptr;
}

Task RootedSyncDispersion::awaitHolderAt(NodeId v) {
  for (std::uint32_t i = 0; i <= kMaxCustodianWait; ++i) {
    if (holderRecordAt(v) != nullptr) co_return;
    ++stats_.custodianWaitRounds;
    co_await engine_.nextRound();
  }
  DISP_CHECK(false, "record holder never visited the node (coverage bug)");
}

Task RootedSyncDispersion::checkInRecord(NodeId v) {
  DISP_CHECK(inHand_.has_value(), "no record in hand");
  if (inHand_->occupied) {
    // Custodian is the settler at v; wait for it to be home (≤ 6 rounds if
    // it is mid-oscillation).
    for (std::uint32_t i = 0; i <= kMaxCustodianWait; ++i) {
      const AgentIx settler = settlerAtNode(v);
      if (settler != kNoAgent) {
        st_[settler].ownRecord = std::move(*inHand_);
        markBits(settler);
        inHand_.reset();
        co_return;
      }
      ++stats_.custodianWaitRounds;
      co_await engine_.nextRound();
    }
    DISP_CHECK(false, "settler never returned home for record check-in");
  }
  // Custodian is the covering oscillator: it stands on v (its stop) at
  // least once every 6 rounds.
  for (std::uint32_t i = 0; i <= kMaxCustodianWait; ++i) {
    for (const AgentIx a : engine_.agentsAt(v)) {
      const auto stop = osc_.currentStopPort(a);
      if (stop.has_value()) {
        st_[a].covered.push_back({*stop, v, std::move(*inHand_)});
        markBits(a);
        inHand_.reset();
        co_return;
      }
    }
    ++stats_.custodianWaitRounds;
    co_await engine_.nextRound();
  }
  DISP_CHECK(false, "coverer never visited the node for record check-in");
}

Task RootedSyncDispersion::checkOutRecord(NodeId v) {
  DISP_CHECK(!inHand_.has_value(), "record already in hand");
  co_await awaitHolderAt(v);
  AgentIx holder = kNoAgent;
  std::size_t coveredIx = static_cast<std::size_t>(-1);
  NodeRecord* rec = holderRecordAt(v, &holder, &coveredIx);
  DISP_CHECK(rec != nullptr, "holder vanished between rounds");
  inHand_ = *rec;
  if (coveredIx == static_cast<std::size_t>(-1)) {
    st_[holder].ownRecord.reset();
  } else {
    st_[holder].covered.erase(st_[holder].covered.begin() +
                              static_cast<std::ptrdiff_t>(coveredIx));
  }
  markBits(holder);
}

// --------------------------------------------------------------- errands

Task RootedSyncDispersion::sideTripSetNextSibling(NodeId w, Port prevChildPort,
                                                  Port newChildPort) {
  const AgentIx m = pickSeekerAt(w);
  DISP_CHECK(m != kNoAgent, "no seeker available for the sibling-pointer trip");
  engine_.stageMove(m, prevChildPort);
  co_await engine_.nextRound();
  const NodeId c = engine_.positionOf(m);
  for (std::uint32_t i = 0; i <= kMaxCustodianWait; ++i) {
    if (NodeRecord* rc = holderRecordAt(c)) {
      rc->nextSiblingPort = newChildPort;
      break;
    }
    DISP_CHECK(i < kMaxCustodianWait, "sibling-pointer trip never met the custodian");
    ++stats_.custodianWaitRounds;
    co_await engine_.nextRound();
  }
  engine_.stageMove(m, engine_.pinOf(m));
  co_await engine_.nextRound();
}

Task RootedSyncDispersion::messengerSiblingCover(NodeId u, Port portBackToParent,
                                                 Port childPortOfU, Port anchorPort) {
  const AgentIx m = pickSeekerAt(u);
  DISP_CHECK(m != kNoAgent, "no seeker available for the cover messenger");
  engine_.stageMove(m, portBackToParent);
  co_await engine_.nextRound();  // at the parent w
  engine_.stageMove(m, anchorPort);
  co_await engine_.nextRound();  // at the anchor sibling u'
  co_await awaitSettlerIdleAtHome(engine_.positionOf(m));
  const AgentIx anchor = foundSettler_;
  DISP_CHECK(st_[anchor].ownRecord.has_value(), "anchor settler without record");
  osc_.addSiblingStop(anchor, st_[anchor].ownRecord->parentPort, childPortOfU);
  markBits(anchor);
  engine_.stageMove(m, engine_.pinOf(m));
  co_await engine_.nextRound();  // back at w
  engine_.stageMove(m, childPortOfU);
  co_await engine_.nextRound();  // back at u
}

Task RootedSyncDispersion::trimLeaf(NodeId pw, Port portToLeaf, Port anchorPort) {
  DISP_CHECK(anchorPort != kNoPort, "leaf trimming without a kept anchor");
  const AgentIx m = pickSeekerAt(pw);
  DISP_CHECK(m != kNoAgent, "no seeker available for leaf trimming");
  engine_.stageMove(m, portToLeaf);
  co_await engine_.nextRound();  // at the trimmed leaf w
  const NodeId w = engine_.positionOf(m);
  const AgentIx aw = settlerAtNode(w);
  DISP_CHECK(aw != kNoAgent, "trim target has no settler");
  DISP_CHECK(!osc_.isOscillating(aw), "trimmed leaf settler should not oscillate");
  DISP_CHECK(st_[aw].ownRecord.has_value(), "trim target record missing");

  NodeRecord recW = std::move(*st_[aw].ownRecord);
  st_[aw].ownRecord.reset();
  markBits(aw);
  recW.occupied = false;
  st_[aw].settled = false;
  st_[aw].settledAt = kInvalidNode;
  st_[aw].role = Role::Explorer;
  --settledCount_;
  ++stats_.trims;
  engine_.traceUnsettle(aw);  // Backtrack_Move leaf trim collects the settler

  // Both return to pw: the collected ex-settler's pin still points to pw
  // (it has not moved since it settled).
  engine_.stageMove(m, engine_.pinOf(m));
  engine_.stageMove(aw, engine_.pinOf(aw));
  co_await engine_.nextRound();  // both at pw

  // Messenger delivers the record + cover duty to the anchor leaf.
  engine_.stageMove(m, anchorPort);
  co_await engine_.nextRound();  // at anchor
  co_await awaitSettlerIdleAtHome(engine_.positionOf(m));
  const AgentIx anchor = foundSettler_;
  DISP_CHECK(st_[anchor].ownRecord.has_value(), "anchor settler without record");
  osc_.addSiblingStop(anchor, st_[anchor].ownRecord->parentPort, portToLeaf);
  st_[anchor].covered.push_back({portToLeaf, w, std::move(recW)});
  markBits(anchor);

  engine_.stageMove(m, engine_.pinOf(m));
  co_await engine_.nextRound();  // back at pw
}

// ------------------------------------------------------------ Sync_Probe

Task RootedSyncDispersion::probeAt(NodeId w) {
  ++stats_.probes;
  const std::uint64_t startRound = engine_.round();
  const Graph& g = engine_.graph();
  const Port limit = static_cast<Port>(
      std::min<std::uint32_t>(g.degree(w), engine_.agentCount() - 1));
  probeResult_ = kNoPort;

  while (inHand_->checked < limit) {
    // Gather co-located seekers (ascending ID for determinism): walk the
    // fixed ID-ordered seeker pool instead of sorting per iteration, and
    // stop once there is one for every port left to check.
    const Port wanted = limit - inHand_->checked;
    std::vector<AgentIx>& seekers = probeSeekers_;
    seekers.clear();
    for (const AgentIx a : seekersById_) {
      if (seekers.size() == wanted) break;
      if (!st_[a].settled && st_[a].role == Role::Seeker &&
          engine_.positionOf(a) == w) {
        seekers.push_back(a);
      }
    }
    DISP_CHECK(!seekers.empty(), "probe without seekers");

    const auto delta = static_cast<Port>(seekers.size());
    ++stats_.probeIterations;

    // Move out: seeker i takes port checked + 1 + i.
    for (Port i = 0; i < delta; ++i) {
      engine_.stageMove(seekers[i], inHand_->checked + 1 + i);
    }
    co_await engine_.nextRound();

    // Wait 6 rounds at the neighbor; any co-location there (settler at
    // home, or an oscillating coverer passing through) marks it as a tree
    // node.  7 position snapshots cover a full oscillation period.
    probeMet_.assign(delta, 0);
    std::vector<std::uint8_t>& met = probeMet_;
    for (std::uint32_t snap = 0; snap <= 6; ++snap) {
      for (Port i = 0; i < delta; ++i) {
        if (engine_.countAt(engine_.positionOf(seekers[i])) > 1) met[i] = 1;
      }
      if (snap < 6) co_await engine_.nextRound();
    }

    // Return.
    for (Port i = 0; i < delta; ++i) {
      engine_.stageMove(seekers[i], engine_.pinOf(seekers[i]));
    }
    co_await engine_.nextRound();

    // Evaluate: smallest unvisited port wins (Algorithm 2 line 9); checked
    // does not advance on success so skipped ports are re-examined later.
    Port found = kNoPort;
    for (Port i = 0; i < delta; ++i) {
      if (!met[i]) {
        found = inHand_->checked + 1 + i;
        break;
      }
    }
    if (found != kNoPort) {
      probeResult_ = found;
      break;
    }
    inHand_->checked = inHand_->checked + delta;
  }
  stats_.maxProbeRounds =
      std::max(stats_.maxProbeRounds, engine_.round() - startRound);
}

// ----------------------------------------------------------- DFS moves

Task RootedSyncDispersion::forwardMove(NodeId w, Port p) {
  // Capture everything needed from the record of w before check-in.
  const std::uint32_t x = inHand_->childCount + 1;
  const std::uint32_t parentDepth = inHand_->depth;
  const bool childOdd = ((parentDepth + 1) % 2 == 1);

  // Sibling-pointer maintenance (Forward_Move lines 1–5).
  if (x == 1) {
    inHand_->firstChildPort = p;
  } else {
    co_await sideTripSetNextSibling(w, inHand_->latestChildPort, p);
  }

  // Decide the child's occupancy and arrange coverage (Forward_Move 8–21).
  bool childEmpty = false;
  bool coverBySibling = false;
  if (childOdd) {
    if (x <= 3) {
      co_await awaitSettlerIdleAtHome(w);
      osc_.addChildStop(foundSettler_, p);
      markBits(foundSettler_);
      childEmpty = true;
    } else if (x % 3 == 1) {
      inHand_->anchorChildPort = p;  // new anchor; it will cover x+1, x+2
    } else {
      childEmpty = true;
      coverBySibling = true;
    }
  }
  const Port anchorPort = inHand_->anchorChildPort;
  inHand_->childCount = x;
  inHand_->latestChildPort = p;

  co_await checkInRecord(w);
  co_await moveGroup(w, p);
  const NodeId u = engine_.positionOf(leader_);
  ++stats_.forwardMoves;
  ++stats_.treeSize;

  NodeRecord ru;
  ru.parentPort = engine_.pinOf(leader_);
  ru.depth = parentDepth + 1;
  ru.occupied = !childEmpty;
  inHand_ = ru;

  if (!childEmpty) {
    const AgentIx who = chooseSettleCandidate(u);
    settleAgent(who, u);
  } else if (coverBySibling) {
    co_await messengerSiblingCover(u, ru.parentPort, p, anchorPort);
  }
  recordMemory();
}

Task RootedSyncDispersion::backtrackMove(NodeId w) {
  const bool wasLeaf = (inHand_->childCount == 0);
  const bool wEven = (inHand_->depth % 2 == 0);
  const bool wOccupied = inHand_->occupied;
  const Port pp = inHand_->parentPort;
  DISP_CHECK(pp != kNoPort, "DFS exhausted at the root before k nodes (k > n?)");

  co_await checkInRecord(w);
  co_await moveGroup(w, pp);
  const NodeId pw = engine_.positionOf(leader_);
  const Port portToW = engine_.pinOf(leader_);
  ++stats_.backtracks;

  co_await checkOutRecord(pw);

  // Leaf trimming (Backtrack_Move): only even-depth leaves participate.
  if (wasLeaf && wEven) {
    DISP_CHECK(wOccupied, "even-depth leaf should hold a settler before trimming");
    const std::uint32_t x = ++inHand_->leafChildCount;
    if (x % 3 == 1) {
      inHand_->anchorLeafPort = portToW;  // kept: becomes the sibling anchor
    } else {
      co_await trimLeaf(pw, portToW, inHand_->anchorLeafPort);
    }
  }
  recordMemory();
}

// ----------------------------------------------- final settling phases

Task RootedSyncDispersion::settleRemaining(NodeId last) {
  stats_.emptyAtDfsEnd = stats_.treeSize - settledCount_;
  stats_.dfsEndRound = engine_.round();
  co_await checkInRecord(last);

  // Walk to the root along parent pointers (custodian waits en route).
  NodeId cur = last;
  for (;;) {
    co_await awaitHolderAt(cur);
    const Port pp = holderRecordAt(cur)->parentPort;
    if (pp == kNoPort) break;
    co_await moveGroup(cur, pp);
    cur = engine_.positionOf(leader_);
  }
  co_await retraverse(cur);
}

Task RootedSyncDispersion::retraverse(NodeId root) {
  // Preorder walk along firstChild/nextSibling pointers; settle one agent
  // at every empty node; the leader settles last.
  NodeId cur = root;
  co_await awaitHolderAt(cur);
  Port down = holderRecordAt(cur)->firstChildPort;

  const auto allSettled = [this] { return settledCount_ == engine_.agentCount(); };

  while (!allSettled()) {
    if (down != kNoPort) {
      co_await moveGroup(cur, down);
      cur = engine_.positionOf(leader_);

      // Visit: settle if the node is empty.
      co_await awaitHolderAt(cur);
      AgentIx holder = kNoAgent;
      std::size_t coveredIx = static_cast<std::size_t>(-1);
      NodeRecord* rec = holderRecordAt(cur, &holder, &coveredIx);
      if (!rec->occupied) {
        DISP_CHECK(coveredIx != static_cast<std::size_t>(-1),
                   "empty node record held outside a coverer");
        NodeRecord taken = *rec;
        markBits(holder);
        st_[holder].covered.erase(st_[holder].covered.begin() +
                                  static_cast<std::ptrdiff_t>(coveredIx));
        osc_.dropCurrentStop(holder);
        taken.occupied = true;

        AgentIx who = minIdAgentAt(engine_, cur, [this](AgentIx a) {
          return !st_[a].settled && a != leader_;
        });
        if (who == kNoAgent) who = leader_;  // leader settles last
        settleAgent(who, cur);
        st_[who].ownRecord = std::move(taken);
        markBits(who);
        recordMemory();
        if (allSettled()) co_return;
      }
      co_await awaitHolderAt(cur);
      down = holderRecordAt(cur)->firstChildPort;
    } else {
      // Ascend until a pending next sibling appears.
      for (;;) {
        co_await awaitHolderAt(cur);
        NodeRecord* rec = holderRecordAt(cur);
        const Port sib = rec->nextSiblingPort;
        const Port pp = rec->parentPort;
        DISP_CHECK(pp != kNoPort || allSettled(),
                   "retraversal returned to the root with agents unsettled");
        if (pp == kNoPort) co_return;
        co_await moveGroup(cur, pp);
        cur = engine_.positionOf(leader_);
        if (sib != kNoPort) {
          down = sib;
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------- main

Task RootedSyncDispersion::protocol() {
  const std::uint32_t k = engine_.agentCount();
  const NodeId s = engine_.positionOf(leader_);

  // Settle the smallest-ID agent (an explorer by construction) at the root.
  const AgentIx amin = chooseSettleCandidate(s);
  settleAgent(amin, s);
  NodeRecord r0;
  r0.occupied = true;
  r0.parentPort = kNoPort;
  r0.depth = 0;
  inHand_ = r0;
  stats_.treeSize = 1;
  recordMemory();

  NodeId w = s;
  while (stats_.treeSize < k) {
    co_await probeAt(w);
    if (probeResult_ != kNoPort) {
      co_await forwardMove(w, probeResult_);
    } else {
      co_await backtrackMove(w);
    }
    w = engine_.positionOf(leader_);
  }
  co_await settleRemaining(w);
  DISP_CHECK(settledCount_ == k, "protocol ended with unsettled agents");

  // Ex-oscillators finish their final trip home and settle for good (≤ 6
  // rounds; their stop lists are empty so trips end at home).
  for (std::uint32_t i = 0; i <= kMaxCustodianWait; ++i) {
    if (osc_.allIdleAtHome()) {
      // Retire the leftover oscillator bookkeeping: by now every stop was
      // dropped, but a duty flag cleared only by the next round hook may
      // never see one — retiring emits the closing OscillationDuty drop so
      // the trace's duty churn balances.
      for (AgentIx a = 0; a < k; ++a) {
        if (osc_.isOscillating(a)) osc_.retire(a);
      }
      co_return;
    }
    co_await engine_.nextRound();
  }
  DISP_CHECK(false, "an oscillator never returned home after dispersion");
}

}  // namespace disp
