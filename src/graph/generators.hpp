#pragma once
// Graph family generators.  Every generator returns a connected simple
// graph; all randomness is seed-driven.  These families are the workloads
// for the Table-1 scaling experiments:
//
//   * path / cycle          — the Ω(k) lower-bound instances (§1)
//   * star / wheel          — maximum-degree stress (Δ = n-1); separates
//                             O(k) probing from O(Δ)-style probing
//   * complete / bipartite  — dense instances where the KS baseline pays
//                             its O(min{m, kΔ}) price
//   * trees (binary/random/caterpillar) — DFS-tree-shaped instances,
//                             exercising the empty-node selection cases
//   * grid / hypercube      — classic bounded-degree topologies
//   * Erdős–Rényi / random-regular — "arbitrary graph" instances
//   * lollipop / barbell    — mixed dense+sparse, worst-case-ish traversal

#include <cstdint>

#include "graph/graph.hpp"

namespace disp {

[[nodiscard]] GraphBuilder makePath(std::uint32_t n);
[[nodiscard]] GraphBuilder makeCycle(std::uint32_t n);
[[nodiscard]] GraphBuilder makeStar(std::uint32_t n);
[[nodiscard]] GraphBuilder makeWheel(std::uint32_t n);
[[nodiscard]] GraphBuilder makeComplete(std::uint32_t n);
[[nodiscard]] GraphBuilder makeCompleteBipartite(std::uint32_t a, std::uint32_t b);
[[nodiscard]] GraphBuilder makeBinaryTree(std::uint32_t n);
[[nodiscard]] GraphBuilder makeRandomTree(std::uint32_t n, std::uint64_t seed);
/// Caterpillar: a spine path of `spine` nodes, each with `legs` pendant leaves.
[[nodiscard]] GraphBuilder makeCaterpillar(std::uint32_t spine, std::uint32_t legs);
[[nodiscard]] GraphBuilder makeGrid(std::uint32_t rows, std::uint32_t cols);
[[nodiscard]] GraphBuilder makeHypercube(std::uint32_t dims);
/// Erdős–Rényi G(n, p) conditioned on connectivity: sampled, then augmented
/// with a uniform spanning-tree edge per disconnected component pair.
[[nodiscard]] GraphBuilder makeErdosRenyiConnected(std::uint32_t n, double p,
                                                   std::uint64_t seed);
/// Random d-regular graph via the pairing model with resampling (requires
/// n*d even, d < n).
[[nodiscard]] GraphBuilder makeRandomRegular(std::uint32_t n, std::uint32_t d,
                                             std::uint64_t seed);
/// Barabási–Albert preferential attachment: a (d+1)-clique seed, then every
/// new node attaches to `d` distinct existing nodes sampled proportionally
/// to degree (endpoint-list sampling).  Power-law degree tail, connected by
/// construction, O(m) time and memory — the web-scale skewed workload.
[[nodiscard]] GraphBuilder makeBarabasiAlbert(std::uint32_t n, std::uint32_t d,
                                              std::uint64_t seed);
/// R-MAT recursive-quadrant edge sampler (a=0.57, b=c=0.19, d=0.05 — the
/// Graph500 mix), targeting ~n*edgeFactor distinct edges; duplicates are
/// dropped, then components are joined like the ER generator.  O(m).
[[nodiscard]] GraphBuilder makeRmat(std::uint32_t n, std::uint32_t edgeFactor,
                                    std::uint64_t seed);
/// O(m)-expected G(n, p) sampler using geometric skips over the ordered
/// pair sequence — web-scale alternative to makeErdosRenyiConnected's
/// O(n^2) Bernoulli sweep.  Same connectivity augmentation; a *different*
/// random stream, so it is opt-in (GraphSpec `er:fast=1`), never a silent
/// replacement of the baseline-pinned `er` draws.
[[nodiscard]] GraphBuilder makeErdosRenyiFast(std::uint32_t n, double p,
                                              std::uint64_t seed);
/// Lollipop: K_c clique glued to a path of n-c nodes.
[[nodiscard]] GraphBuilder makeLollipop(std::uint32_t n, std::uint32_t cliqueSize);
/// Barbell: two K_c cliques joined by a path.
[[nodiscard]] GraphBuilder makeBarbell(std::uint32_t cliqueSize, std::uint32_t pathLen);
/// Random circulant expander: shift 1 (a Hamiltonian cycle — connected by
/// construction) plus d/2 - 1 further seeded distinct shifts; exactly
/// d-regular and simple.  Requires d even, d >= 4, n >= 2d.  The
/// low-diameter / high-conductance counterpoint to the path and grid
/// workloads.
[[nodiscard]] GraphBuilder makeExpander(std::uint32_t n, std::uint32_t d,
                                        std::uint64_t seed);

// The family table (family name -> one of the generators above, with the
// historical size-derivation rules) lives in graph/spec.hpp:
// GraphSpec::parse / makeGraph / graphFamilyRegistry.

/// True iff the graph is connected (BFS).
[[nodiscard]] bool isConnected(const Graph& g);

}  // namespace disp
