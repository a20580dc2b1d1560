#pragma once
// Centralized graph algorithms used by tests, workload generation and the
// experiment harness (these are *not* part of the agent protocols — agents
// never get global views).

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace disp {

/// BFS distances from src; unreachable nodes get kUnreachable.
inline constexpr std::uint32_t kUnreachable = static_cast<std::uint32_t>(-1);
[[nodiscard]] std::vector<std::uint32_t> bfsDistances(const Graph& g, NodeId src);

/// Caller-owned buffers for stepToward.  Between calls every `dist` entry
/// is kUnreachable; each call restores that by resetting only the entries
/// it labeled, so a hop costs its explored ball, not O(n).
struct BfsScratch {
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> queue;  // flat FIFO: every labeled node, in BFS order
};

/// First hop of a shortest path from `here` to `there`: the lowest port of
/// `here` whose neighbor has a smaller bfsDistances(g, there) value than
/// `here`, or kNoPort when here == there or `there` is unreachable.  The
/// BFS runs from `there` and stops as soon as `here` is labeled — by then
/// every node closer than `here` is labeled too, so the port matches the
/// full-distance-array choice exactly.
[[nodiscard]] Port stepToward(const Graph& g, NodeId here, NodeId there,
                              BfsScratch& scratch);

/// Graph diameter (max eccentricity); O(n·m) — fine at experiment scale.
[[nodiscard]] std::uint32_t diameter(const Graph& g);

/// A node of maximum eccentricity (one end of a "longest shortest path").
[[nodiscard]] NodeId peripheralNode(const Graph& g);

/// Parent array of a DFS tree rooted at src following increasing port
/// numbers (the traversal order every protocol in the paper induces on a
/// fresh graph).  parent[src] = src.
[[nodiscard]] std::vector<NodeId> portOrderDfsTree(const Graph& g, NodeId src);

}  // namespace disp
