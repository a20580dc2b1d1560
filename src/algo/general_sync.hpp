#pragma once
// General-initial-configuration dispersion in SYNC (paper §8.1) and, run
// with ℓ = 1, the Sudo-style helper-doubling rooted baseline (Table 1 row
// [36], O(k log k)).
//
// Structure: ℓ groups (one per initially occupied node) each grow a DFS
// with treelabel = its group id.  The growing phase uses the *doubling
// probe*: available agents probe distinct ports in parallel; settled
// own-tree neighbors are recruited as helpers and, in SYNC, walk back with
// the prober in the same round and are all returned home in one round once
// the step resolves (the paper's §4.3 description of [36]).  Every tree
// node holds a settler (no oscillation — that is the Theorem 6.1 machinery,
// implemented in sync_rooted.*; see DESIGN.md §4 for exactly what this
// module does and does not reproduce of Theorem 8.1).
//
// Meetings (KS subsumption, §8): a probe or forward move that encounters a
// foreign-label agent registers a meeting.  Sizes are compared (|D2| < |D1|
// means D1 subsumes D2; ties favour the *met* tree); the loser freezes at a
// safe point and the winner's group performs an Euler collapse walk over
// the loser tree, unsettling and relabelling every loser agent, then
// resumes its own DFS.  A loser that *detected* the meeting collapses
// itself and its agents march to the winner's head and join it.
//
// Implementation notes (documented simplifications, DESIGN.md §4.7):
//  * group contexts / size comparison stand in for KS's junction-locking;
//  * the orphan march after a self-collapse routes toward the winner's
//    current head using engine-side head tracking (standing in for KS's
//    head-pointer maintenance), with every hop charged as a real move.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/memory.hpp"
#include "core/metrics.hpp"
#include "core/sync_engine.hpp"
#include "graph/graph.hpp"
#include "graph/graph_algos.hpp"

namespace disp {

struct GeneralSyncStats {
  std::uint64_t forwardMoves = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t probeIterations = 0;
  std::uint64_t meetings = 0;
  std::uint64_t subsumptions = 0;
  std::uint64_t collapseHops = 0;
  std::uint64_t retreats = 0;  // forward-move collisions resolved by retreat
};

class GeneralSyncDispersion {
 public:
  /// Groups are inferred from co-location in the engine's initial world:
  /// one group per occupied node (any ℓ in [1, k]).
  explicit GeneralSyncDispersion(SyncEngine& engine);

  void start();

  [[nodiscard]] bool dispersed() const;
  [[nodiscard]] const GeneralSyncStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t agentBits(AgentIx a) const;
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

 private:
  using Label = std::uint32_t;
  static constexpr Label kNoLabel = static_cast<Label>(-1);

  struct AgentState {
    Label label = kNoLabel;
    bool settled = false;
    bool isGuest = false;           // recruited helper, temporarily at w
    NodeId settledAt = kInvalidNode;
    Port parentPort = kNoPort;
    Port checked = 0;
    Port firstChildPort = kNoPort;
    Port latestChildPort = kNoPort;
    Port nextSiblingPort = kNoPort;
    Port guestEntryPort = kNoPort;  // port of w back toward home
  };

  struct GroupCtx {
    Label label = 0;
    AgentIx leader = kNoAgent;
    std::uint32_t total = 0;     // agents currently belonging to the group
    std::uint32_t unsettled = 0;
    std::uint32_t treeSize = 0;
    bool frozen = false;   // a winner ordered this group to halt
    bool parked = false;   // fiber acknowledged the freeze / finished
    bool dissolved = false;  // collapsed into another tree
    std::uint32_t absorbedBy = 0;  // valid once dissolved
    bool marching = false;         // self-collapsed, chasing the winner
    std::uint32_t marchTarget = 0;  // initial winner (chain-resolved live)
    NodeId head = kInvalidNode;     // engine-side head tracking (see header)
    std::vector<Label> pending;     // meetings skipped while the peer was busy
    const char* phase = "init";     // debug/test introspection only
  };

 public:
  /// Declared per-agent / per-group footprints, exported so the scale
  /// campaign's RSS lower bound (exp/benches_scale.cpp) tracks the real
  /// structs instead of hand-copied literals.
  static constexpr std::size_t kAgentStateBytes = sizeof(AgentState);
  static constexpr std::size_t kGroupCtxBytes = sizeof(GroupCtx);

 private:
  Task groupFiber(std::uint32_t gi);
  Task probeStep(std::uint32_t gi);   // result in probeNext_[gi] / probeMet_[gi]
  Task returnGuests(std::uint32_t gi);
  Task sideTripSetNextSibling(std::uint32_t gi, NodeId w, Port prevChildPort,
                              Port newChildPort);
  /// metPort == kNoPort means a pended retry: routing falls back to a BFS
  /// march toward the peer (engine-side head tracking, real moves).
  Task handleMeeting(std::uint32_t gi, Label other, Port metPort);
  Task collapseForeign(std::uint32_t gi, std::uint32_t loser, Port metPort);
  Task collapseVisit(std::uint32_t gi, Label loserLabel, Port exclPort);
  Task selfCollapseAndMarch(std::uint32_t gi, std::uint32_t winner, Port metPort);
  Task absorbMarchers(std::uint32_t gi);
  Task awaitParked(std::uint32_t loser);
  Task marchToward(std::uint32_t gi, AgentIx anchor);  // BFS walk, real moves
  Task retryPending(std::uint32_t gi);
  /// Blocked-DFS recovery: Euler-walk the own tree, resetting probe
  /// progress and re-probing at every node.  Needed because a collapse can
  /// free nodes behind ports this DFS already advanced past (checked is
  /// monotone).  Stops at the first node with a finding (rescanFound_);
  /// the DFS resumes from there.
  Task rescanVisit(std::uint32_t gi);
  [[nodiscard]] std::uint32_t resolveGroup(std::uint32_t g) const;

  [[nodiscard]] AgentIx homeSettlerAt(NodeId v, Label label) const;
  [[nodiscard]] AgentIx anySettlerAt(NodeId v) const;  // any label
  [[nodiscard]] std::vector<AgentIx> groupAt(NodeId v, Label label) const;
  Task moveGroup(std::uint32_t gi, Port p);
  void settle(std::uint32_t gi, AgentIx a, NodeId at, Port parentPort);
  void recordMemory();

  SyncEngine& engine_;
  std::vector<AgentState> st_;
  std::vector<GroupCtx> groups_;
  GeneralSyncStats stats_;
  BitWidths widths_;
  std::uint32_t dispersedGroups_ = 0;

  // Per-group scratch (protocol-local values surfaced for the fiber).
  std::vector<Port> probeNext_;
  std::vector<std::vector<std::pair<Label, Port>>> probeMet_;
  bool rescanFound_ = false;
  BfsScratch route_;  // march routing (stepToward); fibers resume serially

  // Exact O(1)/O(dirty) caches of quantities the protocol only ever derives
  // by scanning all groups or all agents.  At web scale (k = 2^20, ℓ large)
  // those scans turned recordMemory()/globalUnsettled() into the dominant
  // cost; each cache below is maintained at the few mutation sites of the
  // underlying field and is provably equal to the scan it replaces.
  std::vector<std::uint32_t> ledGroups_;  // #groups whose leader field == a
  std::vector<AgentIx> memoryDirty_;      // agents whose bits rose since flush
  bool memoryPrimed_ = false;             // first recordMemory() ran (all k)
  std::uint32_t unsettledTotal_ = 0;      // Σ_g groups_[g].unsettled
  std::uint32_t marchingCount_ = 0;       // #groups with marching == true
};

}  // namespace disp
