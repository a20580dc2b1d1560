#pragma once
// RootedAsyncDisp — the paper's Theorem 7.1 algorithm: dispersion of k <= n
// agents from a rooted configuration in O(k log k) epochs with O(log(k+Δ))
// bits per agent, in the ASYNC model, under any fair scheduler.
//
// Structure (paper §5.5, §7):
//  * the largest-ID agent a_max leads a DFS; every forward move settles the
//    smallest-ID agent, so every tree node holds a settler (no oscillation
//    is needed in ASYNC — that is the SYNC-only trick);
//  * at every node the group runs the ASYNC growing phase, Async_Probe
//    (Algorithm 3) and Guest_See_Off (Algorithm 4), from
//    algo/async_growth.hpp, the module general_async runs in every group.
//    This protocol is one group: every agent carries label 0, and the
//    probe's port limit is deg(w);
//  * what stays here is the leader fiber: settle at the root, then per node
//    probe, see off, and move the group forward or back to the parent,
//    reassembling by count.  Every other agent's fiber runs the shared
//    participant errands.
//
// Each agent runs one fiber; one CCM cycle per activation, at most one
// edge traversal per cycle.

#include <cstdint>
#include <vector>

#include "algo/async_growth.hpp"
#include "core/async_engine.hpp"
#include "core/memory.hpp"
#include "core/metrics.hpp"
#include "graph/graph.hpp"

namespace disp {

struct AsyncDispStats : AsyncGrowthStats {
  std::uint64_t forwardMoves = 0;
  std::uint64_t backtracks = 0;
};

class RootedAsyncDispersion : public AsyncGrowth<RootedAsyncDispersion> {
 public:
  explicit RootedAsyncDispersion(AsyncEngine& engine);

  /// Installs one fiber per agent; call engine.run() afterwards.
  void start();

  [[nodiscard]] bool dispersed() const;
  [[nodiscard]] const AsyncDispStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t agentBits(AgentIx a) const;

  /// Test/debug introspection: (settled, isGuest, settledAt).
  struct AgentSnapshot {
    bool settled;
    bool isGuest;
    NodeId settledAt;
  };
  [[nodiscard]] AgentSnapshot snapshot(AgentIx a) const {
    return {st_[a].settled, st_[a].isGuest, st_[a].settledAt};
  }

 private:
  friend class AsyncGrowth<RootedAsyncDispersion>;

  using AgentState = AsyncGrowthState;
  /// The one group's label: every agent carries it.
  static constexpr Label kLabel = 0;

  Task leaderFiber(AgentIx self);
  Task participantFiber(AgentIx self);
  /// Leader: order the followers through p, cross, and reassemble by count.
  Task moveGroup(AgentIx self, Port p);
  void settle(AgentIx a, NodeId at, Port parentPort);
  void recordMemory();

  AsyncEngine& engine_;
  std::vector<AgentState> st_;
  AsyncDispStats stats_;
  BitWidths widths_;
  AgentIx leader_ = kNoAgent;
  std::uint32_t groupSize_ = 0;  // leader's count of unsettled agents
};

}  // namespace disp
