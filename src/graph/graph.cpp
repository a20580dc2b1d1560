#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "graph/labeling.hpp"
#include "util/rng.hpp"

namespace disp {

namespace {

// How many edges (rows pass) or slots (scatter) ahead the builder starts
// loading the cache line it will write or read at random.
constexpr std::size_t kPrefetchAhead = 16;

}  // namespace

Port Graph::portTo(NodeId v, NodeId u) const {
  for (Port p = 1; p <= degree(v); ++p) {
    if (neighbor(v, p) == u) return p;
  }
  return kNoPort;
}

GraphBuilder& GraphBuilder::addEdge(NodeId u, NodeId v) {
  DISP_REQUIRE(u < n_ && v < n_, "edge endpoint out of range");
  DISP_REQUIRE(u != v, "self-loops are not allowed (graph is simple)");
  edges_.push_back({u, v});
  return *this;
}

Graph GraphBuilder::build(PortLabeling labeling, std::uint64_t seed) const& {
  return GraphBuilder(*this).build(labeling, seed);
}

Graph GraphBuilder::build(PortLabeling labeling, std::uint64_t seed) && {
  Graph g = rows();
  // After the rows pass only Constrained's matching reads the edge list.
  if (labeling != PortLabeling::Constrained) std::vector<Edge>().swap(edges_);
  return label(std::move(g), labeling, seed);
}

// Every pass of rows() and label() is O(n + m).  Beside the edge list and
// the CSR, the only per-edge array is label()'s `port`, one entry per slot
// (a slot is one end of an edge); Constrained adds the per-edge pairs its
// matching returns.
Graph GraphBuilder::rows() const {
  const std::uint32_t n = n_;
  const std::size_t m = edges_.size();
  Graph g;
  g.edgeCount_ = m;

  // Degrees, prefix-summed into row offsets.
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (NodeId v = 0; v < n; ++v) {
    g.maxDegree_ = std::max(g.maxDegree_, g.offsets_[v + 1]);
    g.offsets_[v + 1] += g.offsets_[v];
  }

  // Each row in insertion order (edge-list order, the order the labelings
  // have always numbered a node's edges in); a slot's reversePort holds its
  // twin, the slot of the same edge at the neighbor, until label().  The
  // generators emit edges row by row, so the u side is written in order and
  // the v side at random: its slot is loaded kPrefetchAhead edges early.
  g.slots_.resize(2 * m);
  std::vector<std::uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    if (i + kPrefetchAhead < m) {
      __builtin_prefetch(g.slots_.data() + cursor[edges_[i + kPrefetchAhead].v], 1);
    }
    const Edge& e = edges_[i];
    const std::uint32_t su = cursor[e.u]++;
    const std::uint32_t sv = cursor[e.v]++;
    g.slots_[su] = {e.v, sv};
    g.slots_[sv] = {e.u, su};
  }
  return g;
}

Graph GraphBuilder::label(Graph g, PortLabeling labeling, std::uint64_t seed) const {
  const std::uint32_t n = n_;
  const auto row = [&g](NodeId v) {
    return std::pair<std::uint32_t, std::uint32_t>{g.offsets_[v], g.offsets_[v + 1]};
  };

  {  // Scoped so the build's temporaries are freed before validation.
    // Simple graph: no neighbor twice in a row.  `seenBy` stamps each node
    // with the last row that saw it.
    std::vector<NodeId> seenBy(n, kInvalidNode);
    for (NodeId v = 0; v < n; ++v) {
      const auto [first, last] = row(v);
      for (std::uint32_t s = first; s < last; ++s) {
        DISP_REQUIRE(seenBy[g.slots_[s].neighbor] != v,
                     "duplicate edge (graph is simple)");
        seenBy[g.slots_[s].neighbor] = v;
      }
    }

    // The port of every slot.
    std::vector<Port> port(g.slots_.size());
    if (labeling == PortLabeling::Constrained) {
      // The matching's per-edge pairs land on the edge's two slots, found
      // by replaying the insertion-order cursors.
      const std::vector<std::pair<Port, Port>> pairs =
          constrainedPorts(n, edges_, seed);
      std::vector<std::uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
      for (std::size_t i = 0; i < edges_.size(); ++i) {
        port[cursor[edges_[i].u]++] = pairs[i].first;
        port[cursor[edges_[i].v]++] = pairs[i].second;
      }
    } else {
      // Each row numbered 1..deg in insertion order.  RandomPermutation then
      // shuffles every row in node order with one Rng: the draws of the
      // historical rng.permutation(deg v) per node.
      Rng rng(seed ^ 0xbadc0ffee0ddf00dULL);
      for (NodeId v = 0; v < n; ++v) {
        const auto [first, last] = row(v);
        std::iota(port.begin() + first, port.begin() + last, 1U);
        if (labeling == PortLabeling::RandomPermutation) {
          rng.shuffle(std::span(port).subspan(first, last - first));
        }
      }
    }

    // Scatter each row into port order.  The reverse port of a slot is the
    // port of its twin, read at random: loaded kPrefetchAhead slots early
    // (slots past the current row still hold their twins).
    std::vector<Graph::Slot> rowSlots(g.maxDegree_);
    const std::size_t slotCount = g.slots_.size();
    for (NodeId v = 0; v < n; ++v) {
      const auto [first, last] = row(v);
      const Port d = last - first;
      for (Port i = 0; i < d; ++i) rowSlots[i].neighbor = kInvalidNode;
      for (std::uint32_t s = first; s < last; ++s) {
        if (s + kPrefetchAhead < slotCount) {
          __builtin_prefetch(port.data() + g.slots_[s + kPrefetchAhead].reversePort);
        }
        const Port p = port[s];
        DISP_REQUIRE(p >= 1 && p <= d, "explicit port out of range");
        DISP_REQUIRE(rowSlots[p - 1].neighbor == kInvalidNode, "explicit ports collide");
        rowSlots[p - 1] = {g.slots_[s].neighbor, port[g.slots_[s].reversePort]};
      }
      std::copy_n(rowSlots.begin(), d, g.slots_.begin() + first);
    }
  }

  validateGraph(g);
  return g;
}

TwoPassBuilder::TwoPassBuilder(std::uint32_t nodeCount) {
  g_.offsets_.assign(static_cast<std::size_t>(nodeCount) + 1, 0);
}

void TwoPassBuilder::countEdge(NodeId u, NodeId v) {
  const auto n = static_cast<std::uint32_t>(g_.offsets_.size() - 1);
  DISP_REQUIRE(u < n && v < n, "edge endpoint out of range");
  DISP_REQUIRE(u != v, "self-loops are not allowed (graph is simple)");
  DISP_DCHECK(!sealed_, "countEdge after beginEdges");
  ++g_.offsets_[u + 1];
  ++g_.offsets_[v + 1];
  ++counted_;
}

void TwoPassBuilder::beginEdges() {
  DISP_DCHECK(!sealed_, "beginEdges called twice");
  sealed_ = true;
  const auto n = static_cast<std::uint32_t>(g_.offsets_.size() - 1);
  Port maxDeg = 0;
  for (NodeId v = 0; v < n; ++v) {
    maxDeg = std::max(maxDeg, g_.offsets_[v + 1]);
    g_.offsets_[v + 1] += g_.offsets_[v];
  }
  g_.maxDegree_ = maxDeg;
  g_.slots_.assign(2 * counted_, {kInvalidNode, kNoPort});
  cursor_.assign(g_.offsets_.begin(), g_.offsets_.end() - 1);
}

void TwoPassBuilder::addEdge(NodeId u, NodeId v) {
  DISP_DCHECK(sealed_, "addEdge before beginEdges");
  const std::uint32_t su = cursor_[u]++;
  const std::uint32_t sv = cursor_[v]++;
  DISP_REQUIRE(su < g_.offsets_[u + 1] && sv < g_.offsets_[v + 1],
               "pass-two edge stream diverged from pass one");
  g_.slots_[su] = {v, sv - g_.offsets_[v] + 1};
  g_.slots_[sv] = {u, su - g_.offsets_[u] + 1};
  ++added_;
}

Graph TwoPassBuilder::finish() {
  DISP_REQUIRE(sealed_ && added_ == counted_,
               "pass-two edge stream diverged from pass one");
  g_.edgeCount_ = counted_;
  return std::move(g_);
}

bool satisfiesConstrainedLabeling(const Graph& g) {
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    const Port dv = g.degree(v);
    for (Port p = 1; p <= dv; ++p) {
      const NodeId u = g.neighbor(v, p);
      if (v > u) continue;  // each edge once
      const Port q = g.reversePort(v, p);
      const Port du = g.degree(u);
      // A low port (1 or 2) is "exempt" when forced by degree: the paper
      // permits port 1 when it is the only port, and ports 1-2 when there
      // are only two ports at the node.
      const bool lowAtV = p <= 2 && dv >= 3;
      const bool lowAtU = q <= 2 && du >= 3;
      if (lowAtV && lowAtU) return false;
    }
  }
  return true;
}

// One pass.  Every half-edge (v, p) gets the local checks: its neighbor u
// exists, is not v, and is not already in v's row (a stamp per node, not a
// sort per row).  Reverse ports are checked only from the lower endpoint
// (v < u): (v, p) must pair with the half-edge (u, q), q = reversePort(v, p),
// that leads back to v through port p.  That pairing maps lower half-edges
// to upper ones injectively ((u, q) names v and p back), so once there are
// exactly m lower half-edges among 2m in all, it is a bijection and every
// upper half-edge is the checked twin of a lower one.
void validateGraph(const Graph& g) {
  const std::uint32_t n = g.nodeCount();
  std::uint64_t halfEdges = 0;
  std::uint64_t lowerHalfEdges = 0;
  std::vector<NodeId> seenBy(n, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    const Port d = g.degree(v);
    halfEdges += d;
    for (Port p = 1; p <= d; ++p) {
      const NodeId u = g.neighbor(v, p);
      DISP_CHECK(u < n, "dangling neighbor");
      DISP_CHECK(u != v, "self-loop");
      DISP_CHECK(seenBy[u] != v, "parallel edge");
      seenBy[u] = v;
      if (u < v) continue;
      ++lowerHalfEdges;
      const Port q = g.reversePort(v, p);
      DISP_CHECK(q >= 1 && q <= g.degree(u), "reverse port out of range");
      DISP_CHECK(g.neighbor(u, q) == v, "reverse port does not return");
      DISP_CHECK(g.reversePort(u, q) == p, "reverse port not symmetric");
    }
  }
  DISP_CHECK(halfEdges == 2 * g.edgeCount(), "edge count mismatch");
  DISP_CHECK(lowerHalfEdges == g.edgeCount(), "reverse ports do not pair every half-edge");
}

}  // namespace disp
