#pragma once
// KS subsumption (paper §8, after [24]): the group table and the merge rules
// shared by both general-configuration protocols, general_sync.* (§8.1) and
// general_async.* (§8.2 / Theorem 8.2).  Each protocol keeps its own growing
// phase and leader loop; everything that happens when two trees meet lives
// here, once.
//
// The rules: a probe or forward move that meets a foreign tree registers a
// meeting (handleMeeting).  Sizes are compared — |D2| < |D1| means D1
// subsumes D2; ties favour the met tree — and the loser freezes.  A winner
// waits for the loser to park, then Euler-walks the loser's tree with its
// whole group, unsettling and relabelling every loser agent
// (collapseForeign).  A loser that detected the meeting collapses its own
// tree and marches to the winner (selfCollapseAndMarch), which absorbs the
// marchers at its next safe point (absorbMarchers).  A meeting with a busy
// peer (frozen or marching) is pended and retried (retryPending).  A forward
// move onto an empty node where a foreign group stands falls under the
// squatting rule (forwardCollision).
//
// KsSubsumption<Protocol> is a CRTP base: it calls the protocol's model
// primitives directly, with no virtual dispatch.  The protocol supplies
//   Task moveGroup(gi, port)         hop one edge; return once the group has
//                                    reassembled at the far end;
//   StepAwait waitStep(gi)           wait one step: a round (SYNC) or the
//                                    leader's next activation (ASYNC);
//   kWaitBound                       steps a wait may take before it is a
//                                    deadlock (a protocol bug);
//   bool marcherArrived(mi, gi)      the whole marcher group mi stands at
//                                    gi's leader;
//   void onRelabel(a, from, v)       index upkeep: unsettled agent a at v
//                                    moved from label `from` to its label;
//   void onUnsettle(a, v)            index upkeep: settler a at v became an
//                                    unsettled member of its label;
//   void recordMemory()              re-record the memory ledger;
// plus engine_, its per-agent state st_ (the tree-record fields label,
// settled, isGuest, settledAt, parentPort, firstChildPort, nextSiblingPort)
// and stats_ (meetings, subsumptions).
//
// Documented simplifications (DESIGN.md §4.7): group contexts and the size
// comparison stand in for KS's junction locking, and marches route by an
// engine-side BFS toward the target group's leader (standing in for KS's
// head pointers), with every hop charged as a real move.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algo/protocol_common.hpp"
#include "core/fiber.hpp"
#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "core/world.hpp"
#include "graph/graph.hpp"
#include "graph/graph_algos.hpp"
#include "util/check.hpp"

namespace disp {

template <typename Protocol>
class KsSubsumption {
 public:
  /// Every agent is settled, at home, and alone.
  [[nodiscard]] bool dispersed() const;

  [[nodiscard]] std::uint32_t groupCount() const {
    return static_cast<std::uint32_t>(groups_.size());
  }

  /// Test/debug introspection of a group's lifecycle state.
  struct GroupSnapshot {
    std::uint32_t total, unsettled, treeSize;
    bool frozen, parked, dissolved, marching;
    AgentIx leader;
    const char* phase;
  };
  [[nodiscard]] GroupSnapshot groupSnapshot(std::uint32_t gi) const {
    const auto& g = groups_[gi];
    return {g.total, g.unsettled, g.treeSize, g.frozen, g.parked, g.dissolved,
            g.marching, g.leader, g.phase};
  }

 protected:
  /// One group; its label is its index in groups_.
  struct GroupCtx {
    Label label = 0;
    AgentIx leader = kNoAgent;   // active leader (ASYNC: or the dormant anchor)
    std::uint32_t total = 0;     // agents currently belonging to the group
    std::uint32_t unsettled = 0;
    std::uint32_t treeSize = 0;
    bool frozen = false;     // a winner ordered this group to halt
    bool parked = false;     // the leader acknowledged the freeze
    bool dissolved = false;  // collapsed into another tree
    std::uint32_t absorbedBy = 0;   // valid once dissolved
    bool marching = false;          // self-collapsed, chasing the winner
    std::uint32_t marchTarget = 0;  // initial winner (chain-resolved live)
    std::vector<Label> pending;     // meetings skipped while the peer was busy
    const char* phase = "init";     // debug/test introspection only
  };

  /// Result of the squatting rule at a forward move.
  struct Collision {
    bool retreat = false;
    Label met = kNoLabel;  // label of the home settler found there, if any
  };

  /// Builds the group table from the initial co-location: one group per
  /// occupied node, in ascending node order, led by its largest-ID agent.
  /// Labels every agent; call once the protocol's st_ exists.
  void initGroups();

  /// Follows the dissolution chain to the group that absorbed g.
  [[nodiscard]] std::uint32_t resolveGroup(std::uint32_t g) const {
    while (groups_[g].dissolved) g = groups_[g].absorbedBy;
    return g;
  }
  [[nodiscard]] AgentIx anySettlerAt(NodeId v) const;  // any label

  /// metPort == kNoPort means a pended retry: the collapse then marches to
  /// the peer instead of entering through the met port.
  Task handleMeeting(std::uint32_t gi, Label other, Port metPort);
  Task retryPending(std::uint32_t gi);
  Task absorbMarchers(std::uint32_t gi);
  /// Relabels and dissolves the fully arrived marcher group mi into gi.
  void absorbGroup(std::uint32_t gi, std::uint32_t mi);
  /// The squatting rule after group gi's forward move onto node u.
  [[nodiscard]] Collision forwardCollision(std::uint32_t gi, NodeId u) const;

  std::vector<GroupCtx> groups_;
  std::uint32_t unsettledTotal_ = 0;  // Σ_g groups_[g].unsettled
  std::uint32_t marchingCount_ = 0;   // #groups with marching == true

 private:
  Task awaitParked(std::uint32_t gi, std::uint32_t loser);
  Task collapseForeign(std::uint32_t gi, std::uint32_t loser, Port metPort);
  Task collapseVisit(std::uint32_t gi, Label loserLabel, Port exclPort);
  void adoptAt(std::uint32_t gi, Label fromLabel, NodeId v);  // relabel unsettled
  Task selfCollapseAndMarch(std::uint32_t gi, std::uint32_t winner, Port metPort);
  Task marchToward(std::uint32_t gi, AgentIx anchor);  // BFS walk, real moves

  Protocol& proto() { return static_cast<Protocol&>(*this); }
  const Protocol& proto() const { return static_cast<const Protocol&>(*this); }
  auto& engine() const { return proto().engine_; }
  auto& st(AgentIx a) { return proto().st_[a]; }
  const auto& st(AgentIx a) const { return proto().st_[a]; }

  BfsScratch route_;  // march routing (stepToward); fibers resume serially
};

// ------------------------------------------------------------- group table

template <typename Protocol>
void KsSubsumption<Protocol>::initGroups() {
  auto& engine = proto().engine_;
  std::vector<NodeId> startNodes;
  startNodes.reserve(engine.agentCount());
  for (AgentIx a = 0; a < engine.agentCount(); ++a) {
    startNodes.push_back(engine.positionOf(a));
  }
  std::sort(startNodes.begin(), startNodes.end());
  startNodes.erase(std::unique(startNodes.begin(), startNodes.end()), startNodes.end());
  for (const NodeId s : startNodes) {
    GroupCtx ctx;
    ctx.label = static_cast<Label>(groups_.size());
    for (const AgentIx a : engine.agentsAt(s)) {
      st(a).label = ctx.label;
      ++ctx.total;
      if (ctx.leader == kNoAgent || engine.idOf(a) > engine.idOf(ctx.leader)) {
        ctx.leader = a;
      }
    }
    ctx.unsettled = ctx.total;
    unsettledTotal_ += ctx.unsettled;
    groups_.push_back(std::move(ctx));
  }
}

template <typename Protocol>
bool KsSubsumption<Protocol>::dispersed() const {
  std::vector<NodeId> where;
  for (AgentIx a = 0; a < engine().agentCount(); ++a) {
    if (!st(a).settled || st(a).isGuest) return false;
    if (engine().positionOf(a) != st(a).settledAt) return false;
    where.push_back(engine().positionOf(a));
  }
  return isDispersed(where);
}

template <typename Protocol>
AgentIx KsSubsumption<Protocol>::anySettlerAt(NodeId v) const {
  for (const AgentIx a : engine().agentsAt(v)) {
    if (st(a).settled && !st(a).isGuest && st(a).settledAt == v) return a;
  }
  return kNoAgent;
}

// --------------------------------------------------------------- meetings

template <typename Protocol>
Task KsSubsumption<Protocol>::handleMeeting(std::uint32_t gi, Label other,
                                            Port metPort) {
  auto& engine = proto().engine_;
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
  ++proto().stats_.meetings;
  engine.traceEvent(TraceEventKind::Meeting, ctx.leader, engine.positionOf(ctx.leader),
                    ctx.label, them.label);

  // |D2| < |D1| means D1 subsumes D2; ties favour the met tree (§4.2).
  // The peer checks and the freeze below share one step — no suspension
  // point in between — so two groups can never freeze each other
  // concurrently.
  const bool iWin = them.treeSize < ctx.treeSize;
  ++proto().stats_.subsumptions;
  engine.traceEvent(TraceEventKind::Subsume, iWin ? ctx.leader : them.leader,
                    engine.positionOf(ctx.leader), iWin ? ctx.label : them.label,
                    iWin ? them.label : ctx.label);
  if (iWin) {
    them.frozen = true;
    engine.traceEvent(TraceEventKind::Freeze, them.leader, engine.positionOf(them.leader),
                      them.label, ctx.label);
    ctx.phase = "awaitParked";
    co_await awaitParked(gi, target);
    ctx.phase = "collapseForeign";
    if (!them.dissolved) {
      co_await collapseForeign(gi, target, metPort);
      them.dissolved = true;
      them.absorbedBy = gi;
    }
  } else {
    ctx.frozen = true;  // others must not target us mid-self-collapse
    engine.traceEvent(TraceEventKind::Freeze, ctx.leader, engine.positionOf(ctx.leader),
                      ctx.label, them.label);
    ctx.phase = "selfCollapse";
    co_await selfCollapseAndMarch(gi, target, metPort);
  }
}

template <typename Protocol>
Task KsSubsumption<Protocol>::retryPending(std::uint32_t gi) {
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

template <typename Protocol>
Task KsSubsumption<Protocol>::awaitParked(std::uint32_t gi, std::uint32_t loser) {
  // The loser acknowledges the freeze at its next safe point; a group that
  // already settled everyone (dispersed) counts as parked — it holds still
  // once frozen.
  for (std::uint64_t guard = 0; guard < Protocol::kWaitBound; ++guard) {
    const GroupCtx& L = groups_[loser];
    if (L.parked || (L.unsettled == 0 && !L.marching)) co_return;
    co_await proto().waitStep(gi);
  }
  DISP_CHECK(false, "loser never parked");
}

template <typename Protocol>
auto KsSubsumption<Protocol>::forwardCollision(std::uint32_t gi, NodeId u) const
    -> Collision {
  Collision out;
  const AgentIx settler = anySettlerAt(u);
  if (settler != kNoAgent) {
    // A tree node (own or foreign): retreat, and meet its tree.
    out.retreat = true;
    out.met = st(settler).label;
    return out;
  }
  // Collision with a foreign group on an empty node: the squatting rule —
  // the smaller tree (ties: smaller label) retreats; both sides compute the
  // same comparison.
  const GroupCtx& ctx = groups_[gi];
  for (const AgentIx b : engine().agentsAt(u)) {
    if (st(b).label == ctx.label || st(b).settled) continue;
    const GroupCtx& them = groups_[resolveGroup(st(b).label)];
    if (std::make_pair(ctx.treeSize, ctx.label) < std::make_pair(them.treeSize, them.label)) {
      out.retreat = true;
    }
  }
  return out;
}

// -------------------------------------------------------------- collapses

template <typename Protocol>
void KsSubsumption<Protocol>::adoptAt(std::uint32_t gi, Label fromLabel, NodeId v) {
  if (fromLabel == groups_[gi].label) return;  // self-collapse: already ours
  for (const AgentIx a : engine().agentsAt(v)) {
    if (st(a).label == fromLabel && !st(a).settled) {
      st(a).label = groups_[gi].label;
      proto().onRelabel(a, fromLabel, v);
      ++groups_[gi].total;
      ++groups_[gi].unsettled;
      --groups_[fromLabel].total;
      --groups_[fromLabel].unsettled;
    }
  }
}

template <typename Protocol>
Task KsSubsumption<Protocol>::collapseVisit(std::uint32_t gi, Label loserLabel,
                                            Port exclPort) {
  auto& engine = proto().engine_;
  GroupCtx& ctx = groups_[gi];
  const NodeId cur = engine.positionOf(ctx.leader);

  // Collect any parked loser-group agents stranded here (including the
  // loser's parked leader): they change allegiance and walk with us.
  adoptAt(gi, loserLabel, cur);

  const AgentIx ls = homeSettlerAt(engine, proto().st_, cur, loserLabel);
  if (ls == kNoAgent) {
    std::string diag = "collapse walk: loser tree node without settler: node=" +
                       std::to_string(cur) + " loser=" + std::to_string(loserLabel) +
                       " walker=" + std::to_string(ctx.label) + " occupants:";
    for (const AgentIx b : engine.agentsAt(cur)) {
      diag += " a" + std::to_string(b) + "(l" + std::to_string(st(b).label) +
              (st(b).settled ? ",s" : ",u") + (st(b).isGuest ? ",g)" : ")");
    }
    DISP_CHECK(false, diag);
  }
  const Port parentPort = st(ls).parentPort;
  const Port firstChild = st(ls).firstChildPort;

  // Children chain (skipping the direction we came from; for that child we
  // only peek its sibling pointer to continue the chain).
  Port c = firstChild;
  while (c != kNoPort) {
    if (c == exclPort) {
      co_await proto().moveGroup(gi, c);
      const AgentIx cs =
          homeSettlerAt(engine, proto().st_, engine.positionOf(ctx.leader), loserLabel);
      const Port sib = (cs != kNoAgent) ? st(cs).nextSiblingPort : kNoPort;
      co_await proto().moveGroup(gi, engine.pinOf(ctx.leader));
      c = sib;
      continue;
    }
    co_await proto().moveGroup(gi, c);
    const Port backUp = engine.pinOf(ctx.leader);
    const AgentIx cs =
        homeSettlerAt(engine, proto().st_, engine.positionOf(ctx.leader), loserLabel);
    DISP_CHECK(cs != kNoAgent, "collapse walk: child without settler");
    const Port sib = st(cs).nextSiblingPort;
    co_await collapseVisit(gi, loserLabel, backUp);
    co_await proto().moveGroup(gi, backUp);
    c = sib;
  }

  // Parent direction (when we entered from a child or from outside).
  if (parentPort != kNoPort && parentPort != exclPort) {
    co_await proto().moveGroup(gi, parentPort);
    const Port backDown = engine.pinOf(ctx.leader);
    co_await collapseVisit(gi, loserLabel, backDown);
    co_await proto().moveGroup(gi, backDown);
  }

  // Finally collect this node's settler; its record dies with it.
  auto& s = st(ls);
  s.settled = false;
  s.settledAt = kInvalidNode;
  s.label = ctx.label;
  proto().onUnsettle(ls, engine.positionOf(ls));
  ++ctx.total;
  ++ctx.unsettled;
  ++unsettledTotal_;
  --groups_[loserLabel].total;
  --groups_[loserLabel].treeSize;
  engine.traceUnsettle(ls, loserLabel, ctx.label);
}

template <typename Protocol>
Task KsSubsumption<Protocol>::collapseForeign(std::uint32_t gi, std::uint32_t loser,
                                              Port metPort) {
  auto& engine = proto().engine_;
  GroupCtx& ctx = groups_[gi];
  bool usedPort = false;
  if (metPort != kNoPort) {
    // Enter the loser tree through the met port, Euler-walk it collecting
    // everyone, end back at the entry node, and hop home.  The met node may
    // turn out not to be a loser *tree* node (the meeting was with agents
    // in transit); fall back to the march path then.
    co_await proto().moveGroup(gi, metPort);
    const Port backToHead = engine.pinOf(ctx.leader);
    if (homeSettlerAt(engine, proto().st_, engine.positionOf(ctx.leader),
                      groups_[loser].label) != kNoAgent) {
      usedPort = true;
      co_await collapseVisit(gi, groups_[loser].label, kNoPort);
    }
    co_await proto().moveGroup(gi, backToHead);
  }
  if (!usedPort) {
    // Pended retry: no fresh adjacency.  March to the loser's parked group
    // (its leader rests on a loser tree node), collapse from there, then
    // march back to our own head (it always holds our settler) to resume
    // the DFS.
    const NodeId myHead = engine.positionOf(ctx.leader);
    const AgentIx loserAnchor = groups_[loser].leader;
    co_await marchToward(gi, loserAnchor);
    co_await collapseVisit(gi, groups_[loser].label, kNoPort);
    const AgentIx homeAnchor = homeSettlerAt(engine, proto().st_, myHead, ctx.label);
    DISP_CHECK(homeAnchor != kNoAgent, "head lost its settler during collapse");
    co_await marchToward(gi, homeAnchor);
  }
  proto().recordMemory();
}

// --------------------------------------------------------- marches, absorb

template <typename Protocol>
Task KsSubsumption<Protocol>::marchToward(std::uint32_t gi, AgentIx anchor) {
  // BFS walk of the whole group toward the anchor agent's (possibly
  // moving) position; every hop is a real group move.
  auto& engine = proto().engine_;
  for (std::uint64_t guard = 0; guard < Protocol::kWaitBound; ++guard) {
    const NodeId here = engine.positionOf(groups_[gi].leader);
    const NodeId there = engine.positionOf(anchor);
    if (here == there) co_return;
    const Port step = stepToward(engine.graph(), here, there, route_);
    DISP_CHECK(step != kNoPort, "march lost its way");
    co_await proto().moveGroup(gi, step);
  }
  DISP_CHECK(false, "march never arrived");
}

template <typename Protocol>
Task KsSubsumption<Protocol>::selfCollapseAndMarch(std::uint32_t gi, std::uint32_t winner,
                                                   Port metPort) {
  auto& engine = proto().engine_;
  GroupCtx& ctx = groups_[gi];
  // Collapse our own tree starting from the head (a tree node), collecting
  // all our settlers into the walking group.
  co_await collapseVisit(gi, ctx.label, kNoPort);
  // Chase the winner's leader (the group anchor: with the group while
  // active, at its settle node when dormant).  The winner idles at its
  // next safe point until we arrive and absorbs us.
  if (metPort != kNoPort) co_await proto().moveGroup(gi, metPort);
  ctx.marchTarget = winner;
  ctx.marching = true;
  ++marchingCount_;
  for (std::uint64_t guard = 0; guard < Protocol::kWaitBound; ++guard) {
    if (ctx.dissolved) co_return;  // the winner absorbed us
    const std::uint32_t target = resolveGroup(ctx.marchTarget);
    const NodeId here = engine.positionOf(ctx.leader);
    const NodeId head = engine.positionOf(groups_[target].leader);
    if (here == head) {
      co_await proto().waitStep(gi);  // co-located: wait for the absorb
      continue;
    }
    const Port step = stepToward(engine.graph(), here, head, route_);
    DISP_CHECK(step != kNoPort, "march lost its way");
    co_await proto().moveGroup(gi, step);
  }
  DISP_CHECK(false, "march never absorbed");
}

template <typename Protocol>
Task KsSubsumption<Protocol>::absorbMarchers(std::uint32_t gi) {
  GroupCtx& ctx = groups_[gi];
  for (;;) {
    // Junction locking (DESIGN.md §4.7): a group that has been frozen or
    // dissolved must not take marchers in.  Its winner's collapse walk
    // collects only tree settlers, so members absorbed mid-freeze would be
    // orphaned unsettled when this group parks.  Bailing out is safe: the
    // marchers re-resolve their target through the dissolution chain and
    // reach the eventual winner instead.
    if (ctx.frozen || ctx.dissolved) co_return;
    if (marchingCount_ == 0) co_return;  // the scan below would find nothing
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
    const auto mi = static_cast<std::uint32_t>(marcher);
    // Idle until the marcher's group has fully reached our leader, then
    // take them in — unless a winner freezes us first (see above), or the
    // marcher is absorbed elsewhere meanwhile.
    for (std::uint64_t guard = 0; guard < Protocol::kWaitBound; ++guard) {
      if (ctx.frozen || ctx.dissolved || groups_[mi].dissolved) break;
      if (proto().marcherArrived(mi, gi)) break;
      co_await proto().waitStep(gi);
    }
    if (ctx.frozen || ctx.dissolved) co_return;
    if (groups_[mi].dissolved) continue;  // absorbed elsewhere; rescan
    absorbGroup(gi, mi);
  }
}

template <typename Protocol>
void KsSubsumption<Protocol>::absorbGroup(std::uint32_t gi, std::uint32_t mi) {
  auto& engine = proto().engine_;
  GroupCtx& ctx = groups_[gi];
  GroupCtx& m = groups_[mi];
  const NodeId here = engine.positionOf(ctx.leader);
  std::uint32_t joined = 0;
  for (AgentIx a = 0; a < engine.agentCount(); ++a) {
    if (st(a).label == m.label && !st(a).settled) {
      DISP_CHECK(engine.positionOf(a) == here,
                 "marcher group not consolidated at absorb time");
      st(a).label = ctx.label;
      proto().onRelabel(a, m.label, here);
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
  proto().recordMemory();
}

}  // namespace disp
