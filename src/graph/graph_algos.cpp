#include "graph/graph_algos.hpp"

#include <algorithm>
#include <stack>

#include "util/check.hpp"

namespace disp {

std::vector<std::uint32_t> bfsDistances(const Graph& g, NodeId src) {
  DISP_REQUIRE(src < g.nodeCount(), "source out of range");
  // How many queue entries ahead a row starts loading: on a graph beyond
  // the cache every dequeued row is a miss, and the queue already names
  // the rows that come next.
  constexpr std::size_t kRowsAhead = 4;
  std::vector<std::uint32_t> dist(g.nodeCount(), kUnreachable);
  std::vector<NodeId> queue;
  queue.reserve(g.nodeCount());
  dist[src] = 0;
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    if (head + kRowsAhead < queue.size()) g.prefetchRow(queue[head + kRowsAhead]);
    const NodeId v = queue[head];
    for (const NodeId u : g.neighbors(v)) {
      if (dist[u] == kUnreachable) {
        dist[u] = dist[v] + 1;
        queue.push_back(u);
      }
    }
  }
  return dist;
}

Port stepToward(const Graph& g, NodeId here, NodeId there, BfsScratch& scratch) {
  DISP_REQUIRE(here < g.nodeCount() && there < g.nodeCount(), "node out of range");
  if (here == there) return kNoPort;
  std::vector<std::uint32_t>& dist = scratch.dist;
  std::vector<NodeId>& queue = scratch.queue;
  if (dist.size() != g.nodeCount()) dist.assign(g.nodeCount(), kUnreachable);
  DISP_DCHECK(queue.empty(), "stepToward scratch left dirty");

  dist[there] = 0;
  queue.push_back(there);
  for (std::size_t head = 0; head < queue.size() && dist[here] == kUnreachable;
       ++head) {
    const NodeId v = queue[head];
    for (const NodeId u : g.neighbors(v)) {
      if (dist[u] == kUnreachable) {
        dist[u] = dist[v] + 1;
        queue.push_back(u);
      }
    }
  }

  Port step = kNoPort;
  if (dist[here] != kUnreachable) {
    for (Port p = 1; p <= g.degree(here); ++p) {
      if (dist[g.neighbor(here, p)] < dist[here]) {
        step = p;
        break;
      }
    }
  }
  for (const NodeId v : queue) dist[v] = kUnreachable;
  queue.clear();
  return step;
}

std::uint32_t diameter(const Graph& g) {
  std::uint32_t best = 0;
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    const auto dist = bfsDistances(g, v);
    for (const std::uint32_t d : dist) {
      DISP_REQUIRE(d != kUnreachable, "diameter of disconnected graph");
      best = std::max(best, d);
    }
  }
  return best;
}

NodeId peripheralNode(const Graph& g) {
  DISP_REQUIRE(g.nodeCount() > 0, "empty graph");
  NodeId best = 0;
  std::uint32_t bestEcc = 0;
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    const auto dist = bfsDistances(g, v);
    std::uint32_t ecc = 0;
    for (const std::uint32_t d : dist) {
      if (d != kUnreachable) ecc = std::max(ecc, d);
    }
    if (ecc > bestEcc) {
      bestEcc = ecc;
      best = v;
    }
  }
  return best;
}

std::vector<NodeId> portOrderDfsTree(const Graph& g, NodeId src) {
  DISP_REQUIRE(src < g.nodeCount(), "source out of range");
  std::vector<NodeId> parent(g.nodeCount(), kInvalidNode);
  parent[src] = src;
  std::stack<std::pair<NodeId, Port>> stack;  // (node, next port to try)
  stack.push({src, 1});
  while (!stack.empty()) {
    auto& [v, p] = stack.top();
    if (p > g.degree(v)) {
      stack.pop();
      continue;
    }
    const NodeId u = g.neighbor(v, p);
    ++p;
    if (parent[u] == kInvalidNode) {
      parent[u] = v;
      stack.push({u, 1});
    }
  }
  return parent;
}

}  // namespace disp
