#pragma once
// Shared protocol vocabulary for the dispersion algorithms.
//
// Each algorithm owns vectors of per-agent state structs — the agents'
// persistent memory.  Protocol discipline (enforced by convention and
// checked in tests): state of agent b is only read/written by code acting
// for an agent co-located with b, which is exactly the paper's local
// communication model.  All state fields are catalogued for the memory
// ledger with explicit bit widths.

#include <cstdint>
#include <vector>

#include "core/memory.hpp"
#include "core/world.hpp"
#include "graph/graph.hpp"

namespace disp {

/// A DFS tree's label.  The general protocols label each group by its
/// index in the group table; rooted_async labels every agent 0.
using Label = std::uint32_t;
inline constexpr Label kNoLabel = static_cast<Label>(-1);

/// Finds the settled agent at node v, or kNoAgent.  `settledFlag` is the
/// algorithm's per-agent settled predicate.
template <typename Engine, typename Pred>
[[nodiscard]] AgentIx settlerAt(const Engine& engine, NodeId v, Pred&& isSettler) {
  for (const AgentIx a : engine.agentsAt(v)) {
    if (isSettler(a)) return a;
  }
  return kNoAgent;
}

/// The home settler of `label` at node v (settled there and not away as a
/// guest), or kNoAgent.  `st` is the protocol's per-agent state vector.
template <typename Engine, typename State>
[[nodiscard]] AgentIx homeSettlerAt(const Engine& engine, const std::vector<State>& st,
                                    NodeId v, Label label) {
  for (const AgentIx a : engine.agentsAt(v)) {
    const State& s = st[a];
    if (s.settled && !s.isGuest && s.settledAt == v && s.label == label) return a;
  }
  return kNoAgent;
}

/// Smallest-ID agent at node v satisfying a predicate, or kNoAgent.
template <typename Engine, typename Pred>
[[nodiscard]] AgentIx minIdAgentAt(const Engine& engine, NodeId v, Pred&& pred) {
  AgentIx best = kNoAgent;
  for (const AgentIx a : engine.agentsAt(v)) {
    if (!pred(a)) continue;
    if (best == kNoAgent || engine.idOf(a) < engine.idOf(best)) best = a;
  }
  return best;
}

/// Largest-ID agent at node v satisfying a predicate, or kNoAgent.
template <typename Engine, typename Pred>
[[nodiscard]] AgentIx maxIdAgentAt(const Engine& engine, NodeId v, Pred&& pred) {
  AgentIx best = kNoAgent;
  for (const AgentIx a : engine.agentsAt(v)) {
    if (!pred(a)) continue;
    if (best == kNoAgent || engine.idOf(a) > engine.idOf(best)) best = a;
  }
  return best;
}

}  // namespace disp
