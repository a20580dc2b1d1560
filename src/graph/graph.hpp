#pragma once
// Anonymous, port-labeled, simple undirected graph (the paper's §2 model).
//
// Nodes carry no identifiers visible to agents and store nothing.  The only
// structure an agent may use is: the degree of its current node, and the
// locally distinct port numbers 1..δ_v on the incident edges.  NodeId exists
// purely as engine bookkeeping; protocol code never branches on it.
//
// Storage is CSR with one 8-byte slot per half-edge: the slot of port p at
// v holds neighbor(v, p) and the precomputed reversePort(v, p) = p_u(v), so
// the engine sets an arriving agent's `pin` from the cache line it read the
// neighbor from.  Nothing else is stored: no agent asks which port leads to
// a given node, so there is no reverse index.
//
// Every GraphBuilder build takes one path: rows() lays out the rows,
// label() numbers the ports, validateGraph() checks the result.  The
// streaming loaders use TwoPassBuilder, which writes the same CSR directly.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "util/check.hpp"

namespace disp {

using NodeId = std::uint32_t;
using Port = std::uint32_t;

/// The paper's ⊥ port (no port / root parent / unset).
inline constexpr Port kNoPort = 0;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// An undirected edge between two node indices (u < v is not required).
struct Edge {
  NodeId u;
  NodeId v;
};

class GraphBuilder;
class TwoPassBuilder;

class Graph {
  /// One half-edge: port p at v leads to `neighbor`, which the agent enters
  /// through its port `reversePort`.
  struct Slot {
    NodeId neighbor;
    Port reversePort;
  };

 public:
  /// The neighbor fields of one row in port order: neighbors(v)[p - 1] is
  /// neighbor(v, p).
  class NeighborView {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = NodeId;
      using difference_type = std::ptrdiff_t;
      using pointer = const NodeId*;
      using reference = const NodeId&;

      Iterator() = default;
      explicit Iterator(const Slot* at) : at_(at) {}
      reference operator*() const { return at_->neighbor; }
      Iterator& operator++() {
        ++at_;
        return *this;
      }
      Iterator operator++(int) {
        const Iterator old = *this;
        ++at_;
        return old;
      }
      bool operator==(const Iterator&) const = default;

     private:
      const Slot* at_ = nullptr;
    };

    NeighborView(const Slot* first, std::size_t size) : first_(first), size_(size) {}
    [[nodiscard]] Iterator begin() const { return Iterator(first_); }
    [[nodiscard]] Iterator end() const { return Iterator(first_ + size_); }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] NodeId operator[](std::size_t i) const { return first_[i].neighbor; }

   private:
    const Slot* first_;
    std::size_t size_;
  };

  Graph() = default;

  [[nodiscard]] std::uint32_t nodeCount() const noexcept {
    return static_cast<std::uint32_t>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  [[nodiscard]] std::uint64_t edgeCount() const noexcept { return edgeCount_; }

  [[nodiscard]] Port degree(NodeId v) const {
    DISP_DCHECK(v < nodeCount(), "node out of range");
    return offsets_[v + 1] - offsets_[v];
  }

  [[nodiscard]] Port maxDegree() const noexcept { return maxDegree_; }

  /// Neighbor N(v, p) for p in [1, degree(v)].
  [[nodiscard]] NodeId neighbor(NodeId v, Port p) const {
    DISP_DCHECK(v < nodeCount(), "node out of range");
    DISP_DCHECK(p >= 1 && p <= degree(v), "port out of range");
    return slots_[offsets_[v] + p - 1].neighbor;
  }

  /// The port at neighbor(v, p) that leads back to v, i.e. p_u(v).
  [[nodiscard]] Port reversePort(NodeId v, Port p) const {
    DISP_DCHECK(v < nodeCount(), "node out of range");
    DISP_DCHECK(p >= 1 && p <= degree(v), "port out of range");
    return slots_[offsets_[v] + p - 1].reversePort;
  }

  /// All neighbors of v in port order (port p = index + 1).
  [[nodiscard]] NeighborView neighbors(NodeId v) const {
    DISP_DCHECK(v < nodeCount(), "node out of range");
    return {slots_.data() + offsets_[v], static_cast<std::size_t>(degree(v))};
  }

  /// Starts loading v's row into cache.  For passes that know the rows they
  /// will visit next and would otherwise wait on each one in turn.
  void prefetchRow(NodeId v) const {
    DISP_DCHECK(v < nodeCount(), "node out of range");
    __builtin_prefetch(slots_.data() + offsets_[v]);
  }

  /// Port at v leading to u, or kNoPort if not adjacent: an O(δ_v) scan.
  /// Agents never ask this (they see only local ports); tests do.
  [[nodiscard]] Port portTo(NodeId v, NodeId u) const;

 private:
  friend class GraphBuilder;
  friend class TwoPassBuilder;

  std::vector<std::uint32_t> offsets_;  // size n+1
  std::vector<Slot> slots_;             // size 2m, port-ordered
  std::uint64_t edgeCount_ = 0;
  Port maxDegree_ = 0;
};

/// How ports are assigned when a Graph is materialized from an edge list.
enum class PortLabeling {
  InsertionOrder,  ///< ports follow edge-list order (deterministic, simple)
  RandomPermutation,  ///< independent uniform permutation per node (default in experiments)
  Constrained,  ///< §8.2 assumption: no edge may have port pair in {1,2}×{1,2}
};

class GraphBuilder {
 public:
  explicit GraphBuilder(std::uint32_t nodeCount) : n_(nodeCount) {}

  /// Adds an undirected edge; rejects self-loops and out-of-range endpoints.
  /// Duplicate edges are rejected when the graph is built.
  GraphBuilder& addEdge(NodeId u, NodeId v);

  [[nodiscard]] std::uint32_t nodeCount() const noexcept { return n_; }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Materializes the CSR graph with the requested labeling. `seed` drives
  /// the permutations for RandomPermutation / Constrained.  Throws
  /// std::invalid_argument on a duplicate edge, or when the graph admits no
  /// Constrained labeling.  Builds from a copy of the edge list.
  [[nodiscard]] Graph build(PortLabeling labeling = PortLabeling::InsertionOrder,
                            std::uint64_t seed = 0) const&;

  /// The same graph, consuming the builder: the edge list is freed as soon
  /// as the CSR rows hold it, before the per-slot port array is allocated
  /// (Constrained keeps it for its matching).
  [[nodiscard]] Graph build(PortLabeling labeling = PortLabeling::InsertionOrder,
                            std::uint64_t seed = 0) &&;

 private:
  // The two halves of every build.  rows() lays out each node's row in
  // insertion order, with each slot's twin in its reversePort field;
  // label() gives every slot its port, sorts each row into port order and
  // validates.  label() reads the edge list only for Constrained ports.
  [[nodiscard]] Graph rows() const;
  [[nodiscard]] Graph label(Graph g, PortLabeling labeling, std::uint64_t seed) const;

  std::uint32_t n_;
  std::vector<Edge> edges_;
};

/// Degree-counting two-pass CSR builder for web-scale ingest: stream the
/// edge list twice — countEdge() for every edge, beginEdges(), then
/// addEdge() for the same edges — and the builder emits offsets_/slots_
/// directly with insertion-order ports.  No intermediate edge vector: peak
/// transient memory is the CSR itself plus one u32 cursor per node, versus
/// about 1.5x the CSR for a consuming GraphBuilder::build (the CSR beside
/// the edge list during its rows pass, then beside its per-slot port array).
///
/// Produces bit-identically the graph GraphBuilder::build(InsertionOrder)
/// produces for the same edge sequence (a port is the per-node arrival
/// index of the edge, which is exactly what the write cursors assign).
/// Self-loops are rejected; duplicate rejection is the caller's job (the
/// streaming loaders detect duplicates on their sorted rows before pass
/// two), so finish() skips the validateGraph pass — the fuzz suite pins
/// equivalence against the validating builder instead.
class TwoPassBuilder {
 public:
  explicit TwoPassBuilder(std::uint32_t nodeCount);

  /// Pass one: accumulate endpoint degrees for one edge.
  void countEdge(NodeId u, NodeId v);

  /// Seals pass one: prefix-sums degrees, allocates the CSR arrays.
  void beginEdges();

  /// Pass two: place one edge; ports follow per-node arrival order.
  void addEdge(NodeId u, NodeId v);

  /// Finalizes and returns the graph (pass-two edge count must match pass
  /// one).  The builder is left empty.
  [[nodiscard]] Graph finish();

 private:
  Graph g_;
  std::vector<std::uint32_t> cursor_;  // next free slot per node (pass two)
  std::uint64_t counted_ = 0;
  std::uint64_t added_ = 0;
  bool sealed_ = false;
};

/// True iff the port labeling satisfies the §8.2 assumption: for every edge
/// (u,v), the pair (p_u(v), p_v(u)) is not in {1,2}×{1,2} — except that a
/// port is exempt when it is forced by low degree (port 1 at a degree-1
/// node; ports 1-2 at a degree-2 node).
[[nodiscard]] bool satisfiesConstrainedLabeling(const Graph& g);

/// Structural sanity: CSR consistency, symmetric reverse ports, simplicity.
/// Throws std::logic_error on violation.  Every GraphBuilder build ends with
/// it; tests also run it on graphs from the other builders.
void validateGraph(const Graph& g);

}  // namespace disp
