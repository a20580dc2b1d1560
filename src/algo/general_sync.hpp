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
// Meetings between trees are resolved by KS subsumption, shared with the
// ASYNC protocol (algo/subsumption.hpp).  This class supplies the SYNC
// model primitives it runs on: a group hop stages every member's move and
// takes one round, a wait step is one round, and a marcher has arrived
// once its leader stands with ours.
#include <cstdint>
#include <vector>

#include "algo/subsumption.hpp"
#include "core/memory.hpp"
#include "core/metrics.hpp"
#include "core/sync_engine.hpp"
#include "graph/graph.hpp"

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

class GeneralSyncDispersion : public KsSubsumption<GeneralSyncDispersion> {
 public:
  /// Groups are inferred from co-location in the engine's initial world:
  /// one group per occupied node (any ℓ in [1, k]).
  explicit GeneralSyncDispersion(SyncEngine& engine);

  void start();

  [[nodiscard]] const GeneralSyncStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t agentBits(AgentIx a) const;

 private:
  friend class KsSubsumption<GeneralSyncDispersion>;

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
  /// Blocked-DFS recovery: Euler-walk the own tree, resetting probe
  /// progress and re-probing at every node.  Needed because a collapse can
  /// free nodes behind ports this DFS already advanced past (checked is
  /// monotone).  Stops at the first node with a finding (rescanFound_);
  /// the DFS resumes from there.
  Task rescanVisit(std::uint32_t gi);

  [[nodiscard]] std::vector<AgentIx> groupAt(NodeId v, Label label) const;
  void settle(std::uint32_t gi, AgentIx a, NodeId at, Port parentPort);

  // --- SYNC model primitives for KsSubsumption ---------------------------
  static constexpr std::uint64_t kWaitBound = 1ULL << 20;  // rounds
  Task moveGroup(std::uint32_t gi, Port p);  // stage every member; one round
  [[nodiscard]] StepAwait waitStep(std::uint32_t /*gi*/) { return engine_.nextRound(); }
  [[nodiscard]] bool marcherArrived(std::uint32_t mi, std::uint32_t gi) const {
    return engine_.positionOf(groups_[mi].leader) == engine_.positionOf(groups_[gi].leader);
  }
  void onRelabel(AgentIx /*a*/, Label /*from*/, NodeId /*v*/) {}  // no indexes
  void onUnsettle(AgentIx /*a*/, NodeId /*v*/) {}
  void recordMemory();

  SyncEngine& engine_;
  std::vector<AgentState> st_;
  GeneralSyncStats stats_;
  BitWidths widths_;

  // Per-group scratch (protocol-local values surfaced for the fiber).
  std::vector<Port> probeNext_;
  std::vector<std::vector<std::pair<Label, Port>>> probeMet_;
  bool rescanFound_ = false;

  // Exact O(1)/O(dirty) caches of quantities the protocol only ever derives
  // by scanning all groups or all agents.  At web scale (k = 2^20, ℓ large)
  // those scans turned recordMemory() into the dominant cost; each cache
  // below is maintained at the few mutation sites of the underlying field
  // and is provably equal to the scan it replaces.
  std::vector<std::uint32_t> ledGroups_;  // #groups whose leader field == a
  std::vector<AgentIx> memoryDirty_;      // agents whose bits rose since flush
  bool memoryPrimed_ = false;             // first recordMemory() ran (all k)
};

}  // namespace disp
