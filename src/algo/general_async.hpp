#pragma once
// GeneralAsyncDisp — the paper's Theorem 8.2 algorithm: dispersion of k <= n
// agents from a *general* initial configuration (ℓ occupied nodes) in
// O(k log k) epochs with O(log(k+Δ)) bits per agent, in the ASYNC model,
// under any fair scheduler.
//
// Composition (paper §8.2): each of the ℓ groups runs the ASYNC growing
// phase — Async_Probe helper doubling, Guest_See_Off, and the §4.3
// in-transit-helper hazard handling, all label-scoped — from
// algo/async_growth.hpp, the module rooted_async runs as its one group;
// here the probe's port limit is min(deg(w), k).  Meetings between groups
// are resolved by KS subsumption (algo/subsumption.hpp, shared with
// general_sync.*): sizes are compared, the loser freezes and is collapsed
// by an Euler walk over its DFS tree (or collapses itself and marches to
// the winner), and forward-move collisions on an empty node are resolved
// by the squatting rule (the larger tree squats, the smaller retreats).
//
// ASYNC-specific structure (one fiber per agent, as the engine requires):
//  * every agent runs agentFiber(); a group leader's fiber enters
//    leaderLoop() and falls back to the shared participant errands when
//    its group parks (frozen), dissolves, or fully disperses;
//  * a dispersed group's settled ex-leader stays its *anchor*: marching
//    loser groups navigate to it, and it absorbs them and hands leadership
//    to the largest-ID newcomer, which resumes the DFS from the anchor's
//    node (the SYNC version's leader re-election, split across fibers);
//  * all freeze decisions (check peer + set frozen) happen within a single
//    activation — no suspension point in between — so two groups can never
//    freeze each other concurrently (the SYNC version gets the same
//    atomicity from its round structure);
//  * group moves reassemble fully before any collision/retreat decision,
//    so no follower can be stranded mid-edge by a retreat order.
//
// The ASYNC model primitives the shared DFS step and subsumption run on: a
// group hop orders the followers, moves the leader and waits until the
// group has reassembled; a wait step is the leader's next activation; the
// probe is Async_Probe then Guest_See_Off; the leader alone runs the
// sibling-link errand; a new node is settled by the smallest-ID follower
// (by the leader only when it is alone, and it then becomes the anchor); a
// marcher has arrived once its whole group stands at our leader; and every
// settle, relabel or unsettle keeps the probe indexes
// (algo/probe_index.hpp) in step.

#include <cstdint>
#include <vector>

#include "algo/async_growth.hpp"
#include "algo/probe_index.hpp"
#include "algo/subsumption.hpp"
#include "core/async_engine.hpp"
#include "core/memory.hpp"
#include "core/metrics.hpp"
#include "graph/graph.hpp"

namespace disp {

struct GeneralAsyncStats : AsyncGrowthStats {
  std::uint64_t forwardMoves = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t meetings = 0;
  std::uint64_t subsumptions = 0;
  std::uint64_t collapseHops = 0;
  std::uint64_t retreats = 0;  // forward-move collisions resolved by retreat
  std::uint64_t handoffs = 0;  // leadership re-elections after an absorb
};

class GeneralAsyncDispersion : public KsSubsumption<GeneralAsyncDispersion>,
                               public AsyncGrowth<GeneralAsyncDispersion> {
 public:
  /// Groups are inferred from co-location in the engine's initial world:
  /// one group per occupied node (any ℓ in [1, k]).
  explicit GeneralAsyncDispersion(AsyncEngine& engine);

  /// Installs one fiber per agent; call engine.run() afterwards.
  void start();

  [[nodiscard]] const GeneralAsyncStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t agentBits(AgentIx a) const;

  /// Test/debug introspection of an agent's lifecycle state.
  struct AgentSnapshot {
    bool settled;
    bool isGuest;
    NodeId settledAt;
    std::uint32_t label;
  };
  [[nodiscard]] AgentSnapshot snapshot(AgentIx a) const {
    return {st_[a].settled, st_[a].isGuest, st_[a].settledAt, st_[a].label};
  }

 private:
  friend class KsSubsumption<GeneralAsyncDispersion>;
  friend class AsyncGrowth<GeneralAsyncDispersion>;

  static constexpr std::uint32_t kNoGroup = static_cast<std::uint32_t>(-1);

  struct AgentState : AsyncGrowthState {
    // --- settler tree record (collapse-walk child chain, general_sync) ---
    Port firstChildPort = kNoPort;
    Port latestChildPort = kNoPort;
    Port nextSiblingPort = kNoPort;
  };

  // --- fibers -----------------------------------------------------------
  Task agentFiber(AgentIx self);
  /// The whole DFS life of group `gi` while `self` leads it.  Returns when
  /// the group parks, dissolves, or disperses; the caller then continues in
  /// participant mode.
  Task leaderLoop(std::uint32_t gi, AgentIx self);

  // --- dormant-anchor duties (runs inside participant mode) -------------
  void dormantDuties(AgentIx self);
  /// The fiber may park: no queued leadership, no anchor duty (anchors
  /// never park, since dormantDuties polls global state) and no errand.
  /// leadQueued_ is written by another agent only together with a wake.
  [[nodiscard]] bool idle(AgentIx self) const;

  /// The leader, having settled its group's last member, stays as the
  /// group's dormant anchor; the run finishes once every agent is settled.
  void becomeAnchor(std::uint32_t gi);

  [[nodiscard]] bool groupConsolidatedAt(Label label, NodeId v) const;

  // --- ASYNC model primitives for KsSubsumption --------------------------
  /// Guard bound for "eventually" wait loops; generous so only true
  /// deadlocks (protocol bugs) trip it before the engine's own activation
  /// cap does.
  static constexpr std::uint64_t kWaitBound = 1ULL << 26;  // leader activations
  static constexpr std::uint32_t kRescanPause = 16;        // leader activations
  Task moveGroup(std::uint32_t gi, Port p);  // order, move, fully reassemble
  [[nodiscard]] StepAwait waitStep(std::uint32_t gi) {
    return engine_.nextActivation(groups_[gi].leader);
  }
  /// Async_Probe with port limit min(deg(w), k), then Guest_See_Off.
  Task probe(std::uint32_t gi);
  Task linkSibling(std::uint32_t gi, Port prevChildPort, Port newChildPort);  // the leader goes
  /// The min-ID follower, or the leader when alone; then becomeAnchor.
  void settleForward(std::uint32_t gi, NodeId u);
  [[nodiscard]] bool marcherArrived(std::uint32_t mi, std::uint32_t gi) const {
    return groupConsolidatedAt(groups_[mi].label, engine_.positionOf(groups_[gi].leader));
  }
  void onSettle(AgentIx a, NodeId v) {
    proberIdx_.erase(a);  // settlers stop being prober-eligible
    posIdx_.remove(st_[a].label, v);
  }
  void onRelabel(AgentIx a, Label from, NodeId v) {
    posIdx_.remove(from, v);
    posIdx_.add(st_[a].label, v);
  }
  void onUnsettle(AgentIx a, NodeId v) {
    proberIdx_.insert(a, v);  // unsettled again: prober-eligible
    posIdx_.add(st_[a].label, v);
  }
  void recordMemory();

  AsyncEngine& engine_;
  std::vector<AgentState> st_;
  /// Per-label unsettled count + position fingerprint: groupConsolidatedAt
  /// drops from an O(k) all-agent scan (run on every reassembly-wait
  /// activation) to two O(1) lookups.  Labels never outlive the initial
  /// group array, so the index is sized once in the constructor.
  GroupPositionIndex posIdx_;
  GeneralAsyncStats stats_;
  BitWidths widths_;

  // Per-agent: group this fiber must start (or resume) leading, if any.
  std::vector<std::uint32_t> leadQueued_;
  // Per-agent: group this settled ex-leader anchors, if any.
  std::vector<std::uint32_t> anchorOf_;
};

}  // namespace disp
