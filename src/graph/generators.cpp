#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>
#include <queue>
#include <set>
#include <stdexcept>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace disp {

GraphBuilder makePath(std::uint32_t n) {
  DISP_REQUIRE(n >= 1, "path needs >= 1 node");
  GraphBuilder b(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) b.addEdge(i, i + 1);
  return b;
}

GraphBuilder makeCycle(std::uint32_t n) {
  DISP_REQUIRE(n >= 3, "cycle needs >= 3 nodes");
  GraphBuilder b(n);
  for (std::uint32_t i = 0; i < n; ++i) b.addEdge(i, (i + 1) % n);
  return b;
}

GraphBuilder makeStar(std::uint32_t n) {
  DISP_REQUIRE(n >= 2, "star needs >= 2 nodes");
  GraphBuilder b(n);
  for (std::uint32_t i = 1; i < n; ++i) b.addEdge(0, i);
  return b;
}

GraphBuilder makeWheel(std::uint32_t n) {
  DISP_REQUIRE(n >= 4, "wheel needs >= 4 nodes");
  GraphBuilder b(n);
  for (std::uint32_t i = 1; i < n; ++i) b.addEdge(0, i);
  for (std::uint32_t i = 1; i < n; ++i) {
    const std::uint32_t next = (i == n - 1) ? 1 : i + 1;
    b.addEdge(i, next);
  }
  return b;
}

GraphBuilder makeComplete(std::uint32_t n) {
  DISP_REQUIRE(n >= 2, "complete graph needs >= 2 nodes");
  GraphBuilder b(n);
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) b.addEdge(i, j);
  return b;
}

GraphBuilder makeCompleteBipartite(std::uint32_t a, std::uint32_t bSize) {
  DISP_REQUIRE(a >= 1 && bSize >= 1, "bipartite sides must be non-empty");
  GraphBuilder b(a + bSize);
  for (std::uint32_t i = 0; i < a; ++i)
    for (std::uint32_t j = 0; j < bSize; ++j) b.addEdge(i, a + j);
  return b;
}

GraphBuilder makeBinaryTree(std::uint32_t n) {
  DISP_REQUIRE(n >= 1, "tree needs >= 1 node");
  GraphBuilder b(n);
  for (std::uint32_t i = 1; i < n; ++i) b.addEdge(i, (i - 1) / 2);
  return b;
}

GraphBuilder makeRandomTree(std::uint32_t n, std::uint64_t seed) {
  DISP_REQUIRE(n >= 1, "tree needs >= 1 node");
  GraphBuilder b(n);
  if (n == 1) return b;
  // Random attachment: node i attaches to a uniform earlier node.  (This is
  // a random recursive tree; depth ~ log n, mixed branching factors — good
  // coverage of the empty-node-selection cases.)
  Rng rng(seed ^ 0x7ee5eedULL);
  for (std::uint32_t i = 1; i < n; ++i) {
    b.addEdge(i, static_cast<NodeId>(rng.below(i)));
  }
  return b;
}

GraphBuilder makeCaterpillar(std::uint32_t spine, std::uint32_t legs) {
  DISP_REQUIRE(spine >= 1, "caterpillar needs a spine");
  const std::uint32_t n = spine + spine * legs;
  GraphBuilder b(n);
  for (std::uint32_t i = 0; i + 1 < spine; ++i) b.addEdge(i, i + 1);
  std::uint32_t next = spine;
  for (std::uint32_t i = 0; i < spine; ++i)
    for (std::uint32_t l = 0; l < legs; ++l) b.addEdge(i, next++);
  return b;
}

GraphBuilder makeGrid(std::uint32_t rows, std::uint32_t cols) {
  DISP_REQUIRE(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  GraphBuilder b(rows * cols);
  const auto id = [cols](std::uint32_t r, std::uint32_t c) { return r * cols + c; };
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.addEdge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.addEdge(id(r, c), id(r + 1, c));
    }
  }
  return b;
}

GraphBuilder makeHypercube(std::uint32_t dims) {
  DISP_REQUIRE(dims >= 1 && dims <= 20, "hypercube dims in [1,20]");
  const std::uint32_t n = 1U << dims;
  GraphBuilder b(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::uint32_t d = 0; d < dims; ++d) {
      const std::uint32_t u = v ^ (1U << d);
      if (v < u) b.addEdge(v, u);
    }
  }
  return b;
}

GraphBuilder makeErdosRenyiConnected(std::uint32_t n, double p, std::uint64_t seed) {
  DISP_REQUIRE(n >= 2, "ER graph needs >= 2 nodes");
  DISP_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
  Rng rng(seed ^ 0xe7d05ULL);
  GraphBuilder b(n);
  std::set<std::pair<NodeId, NodeId>> present;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (rng.chance(p)) {
        b.addEdge(i, j);
        present.insert({i, j});
      }
    }
  }
  // Connectivity augmentation: union-find over sampled edges, then join
  // components with random cross edges.
  std::vector<NodeId> parent(n);
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
  const std::function<NodeId(NodeId)> find = [&](NodeId x) -> NodeId {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& [u, v] : present) parent[find(u)] = find(v);

  std::map<NodeId, std::vector<NodeId>> comps;
  for (std::uint32_t i = 0; i < n; ++i) comps[find(i)].push_back(i);
  while (comps.size() > 1) {
    auto it = comps.begin();
    auto& first = it->second;
    ++it;
    auto& second = it->second;
    NodeId u = first[rng.below(first.size())];
    NodeId v = second[rng.below(second.size())];
    if (u > v) std::swap(u, v);
    if (!present.count({u, v})) {
      b.addEdge(u, v);
      present.insert({u, v});
    }
    // Merge the two components.
    first.insert(first.end(), second.begin(), second.end());
    comps.erase(it);
  }
  return b;
}

namespace {

/// Joins the builder's connected components with random cross edges, one
/// per merge, components ordered by smallest member (deterministic given
/// the rng state).  Cross-component edges can never duplicate an existing
/// edge, so no membership set is needed.
void connectComponents(GraphBuilder& b, std::uint32_t n, Rng& rng) {
  // Union by size.  Which node ends up a root does not matter: components
  // are numbered below by their smallest member.
  std::vector<NodeId> parent(n);
  std::iota(parent.begin(), parent.end(), 0U);
  std::vector<std::uint32_t> size(n, 1);
  const auto find = [&parent](NodeId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Edge& e : b.edges()) {
    NodeId ru = find(e.u);
    NodeId rv = find(e.v);
    if (ru == rv) continue;
    if (size[ru] < size[rv]) std::swap(ru, rv);
    parent[rv] = ru;
    size[ru] += size[rv];
  }

  std::vector<std::vector<NodeId>> comps;
  std::vector<std::uint32_t> compIx(n, kInvalidNode);
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId r = find(i);
    if (compIx[r] == kInvalidNode) {
      compIx[r] = static_cast<std::uint32_t>(comps.size());
      comps.emplace_back();
    }
    comps[compIx[r]].push_back(i);
  }
  while (comps.size() > 1) {
    std::vector<NodeId>& first = comps[0];
    std::vector<NodeId>& second = comps[1];
    const NodeId u = first[rng.below(first.size())];
    const NodeId v = second[rng.below(second.size())];
    b.addEdge(u, v);
    first.insert(first.end(), second.begin(), second.end());
    comps.erase(comps.begin() + 1);
  }
}

}  // namespace

GraphBuilder makeBarabasiAlbert(std::uint32_t n, std::uint32_t d,
                                std::uint64_t seed) {
  DISP_REQUIRE(d >= 1 && n >= d + 2, "BA needs d >= 1 and n >= d+2");
  Rng rng(seed ^ 0xba0baba5ULL);
  GraphBuilder b(n);
  // Every half-edge endpoint, appended as edges land: sampling a uniform
  // entry is exactly degree-proportional preferential attachment.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * static_cast<std::size_t>(d) * n);
  const std::uint32_t seedSize = d + 1;
  for (std::uint32_t i = 0; i < seedSize; ++i) {
    for (std::uint32_t j = i + 1; j < seedSize; ++j) {
      b.addEdge(i, j);
      endpoints.push_back(i);
      endpoints.push_back(j);
    }
  }
  std::vector<NodeId> targets(d);
  for (std::uint32_t v = seedSize; v < n; ++v) {
    std::uint32_t chosen = 0;
    while (chosen < d) {
      const NodeId t = endpoints[rng.below(endpoints.size())];
      bool fresh = true;
      for (std::uint32_t i = 0; i < chosen; ++i) {
        if (targets[i] == t) {
          fresh = false;
          break;
        }
      }
      if (fresh) targets[chosen++] = t;
    }
    for (std::uint32_t i = 0; i < d; ++i) {
      b.addEdge(v, targets[i]);
      endpoints.push_back(v);
      endpoints.push_back(targets[i]);
    }
  }
  return b;  // connected by construction (attachment never leaves the core)
}

GraphBuilder makeRmat(std::uint32_t n, std::uint32_t edgeFactor,
                      std::uint64_t seed) {
  DISP_REQUIRE(n >= 2 && edgeFactor >= 1, "R-MAT needs n >= 2, edgeFactor >= 1");
  Rng rng(seed ^ 0x4a7a7ULL);
  std::uint32_t scale = 0;
  while ((1ULL << scale) < n) ++scale;
  constexpr double kA = 0.57, kB = 0.19, kC = 0.19;  // d = 0.05 (Graph500)
  const std::uint64_t want = static_cast<std::uint64_t>(n) * edgeFactor;
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(want);
  // Oversampling cap: duplicates and out-of-range/self draws are inherent
  // to R-MAT; give up gracefully once the quadrant walk has had 16x tries.
  const std::uint64_t maxAttempts = want * 16 + 1024;
  for (std::uint64_t attempt = 0;
       attempt < maxAttempts && edges.size() < want; ++attempt) {
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    for (std::uint32_t bit = 0; bit < scale; ++bit) {
      const double r = rng.real01();
      u <<= 1;
      v <<= 1;
      if (r < kA) {
        // top-left quadrant: no bits set
      } else if (r < kA + kB) {
        v |= 1;
      } else if (r < kA + kB + kC) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u >= n || v >= n || u == v) continue;
    auto x = static_cast<NodeId>(u);
    auto y = static_cast<NodeId>(v);
    if (x > y) std::swap(x, y);
    edges.emplace_back(x, y);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  GraphBuilder b(n);
  for (const auto& [x, y] : edges) b.addEdge(x, y);
  connectComponents(b, n, rng);
  return b;
}

GraphBuilder makeErdosRenyiFast(std::uint32_t n, double p, std::uint64_t seed) {
  DISP_REQUIRE(n >= 2, "ER graph needs >= 2 nodes");
  DISP_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
  Rng rng(seed ^ 0xfa57e7d05ULL);
  GraphBuilder b(n);
  if (p > 0.0) {
    // Geometric skips over the row-major upper-triangle pair sequence:
    // expected O(p * n^2) = O(m) draws instead of n^2 Bernoulli trials.
    const double logq = std::log1p(-p);  // -inf at p == 1 -> skip always 0
    const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
    std::uint64_t row = 0;
    std::uint64_t rowStart = 0;
    std::uint64_t rowEnd = n - 1;  // pair indices [rowStart, rowEnd) are row 0
    std::uint64_t idx = 0;
    bool firstDraw = true;
    for (;;) {
      const double skip =
          p >= 1.0 ? 0.0 : std::floor(std::log1p(-rng.real01()) / logq);
      if (skip >= static_cast<double>(total)) break;  // cast would overflow
      idx += static_cast<std::uint64_t>(skip) + (firstDraw ? 0 : 1);
      firstDraw = false;
      if (idx >= total) break;
      while (idx >= rowEnd) {  // advance rows monotonically: O(n) overall
        ++row;
        rowStart = rowEnd;
        rowEnd += n - 1 - row;
      }
      const std::uint64_t col = row + 1 + (idx - rowStart);
      b.addEdge(static_cast<NodeId>(row), static_cast<NodeId>(col));
    }
  }
  connectComponents(b, n, rng);
  return b;
}

GraphBuilder makeRandomRegular(std::uint32_t n, std::uint32_t d, std::uint64_t seed) {
  DISP_REQUIRE(d >= 2 && d < n, "degree must be in [2, n)");
  DISP_REQUIRE(n * d % 2 == 0, "n*d must be even");
  Rng rng(seed ^ 0x4e91a4ULL);
  // Pairing model with full resampling on self-loop / multi-edge / disconnect.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::vector<NodeId> stubs;
    stubs.reserve(static_cast<std::size_t>(n) * d);
    for (std::uint32_t v = 0; v < n; ++v)
      for (std::uint32_t i = 0; i < d; ++i) stubs.push_back(v);
    rng.shuffle(stubs);
    std::set<std::pair<NodeId, NodeId>> seen;
    bool ok = true;
    for (std::size_t i = 0; i < stubs.size(); i += 2) {
      NodeId u = stubs[i], v = stubs[i + 1];
      if (u == v) {
        ok = false;
        break;
      }
      if (u > v) std::swap(u, v);
      if (!seen.insert({u, v}).second) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    GraphBuilder b(n);
    for (const auto& [u, v] : seen) b.addEdge(u, v);
    // Regular graphs from the pairing model are connected w.h.p. for d>=3;
    // verify and resample otherwise (d=2 can give disjoint cycles).
    if (isConnected(b.build())) return b;
  }
  throw std::runtime_error("random regular sampling did not converge");
}

GraphBuilder makeLollipop(std::uint32_t n, std::uint32_t cliqueSize) {
  DISP_REQUIRE(cliqueSize >= 2 && cliqueSize <= n, "bad lollipop parameters");
  GraphBuilder b(n);
  for (std::uint32_t i = 0; i < cliqueSize; ++i)
    for (std::uint32_t j = i + 1; j < cliqueSize; ++j) b.addEdge(i, j);
  for (std::uint32_t i = cliqueSize; i < n; ++i) b.addEdge(i - 1, i);
  return b;
}

GraphBuilder makeBarbell(std::uint32_t cliqueSize, std::uint32_t pathLen) {
  DISP_REQUIRE(cliqueSize >= 2, "barbell cliques need >= 2 nodes");
  const std::uint32_t n = 2 * cliqueSize + pathLen;
  GraphBuilder b(n);
  const std::uint32_t c2 = cliqueSize + pathLen;  // start of second clique
  for (std::uint32_t i = 0; i < cliqueSize; ++i)
    for (std::uint32_t j = i + 1; j < cliqueSize; ++j) {
      b.addEdge(i, j);
      b.addEdge(c2 + i, c2 + j);
    }
  // Path connecting clique 1 (node cliqueSize-1) to clique 2 (node c2).
  std::uint32_t prev = cliqueSize - 1;
  for (std::uint32_t i = 0; i < pathLen; ++i) {
    b.addEdge(prev, cliqueSize + i);
    prev = cliqueSize + i;
  }
  b.addEdge(prev, c2);
  return b;
}

GraphBuilder makeExpander(std::uint32_t n, std::uint32_t d, std::uint64_t seed) {
  DISP_REQUIRE(d >= 4 && d % 2 == 0, "expander degree must be even and >= 4");
  DISP_REQUIRE(n >= 2 * d, "expander needs n >= 2d");
  // Random circulant: every shift s <= (n-1)/2 links v to v±s, so distinct
  // shifts make the graph simple and exactly d-regular; shift 1 is always
  // included (a Hamiltonian cycle — connected by construction) and the
  // remaining d/2 - 1 shifts are a seeded sample of [2, (n-1)/2].
  std::vector<std::uint32_t> pool;
  for (std::uint32_t s = 2; s <= (n - 1) / 2; ++s) pool.push_back(s);
  Rng rng(seed ^ 0xe8bad5e7ULL);
  rng.shuffle(pool);
  std::vector<std::uint32_t> shifts{1};
  shifts.insert(shifts.end(), pool.begin(), pool.begin() + (d / 2 - 1));
  GraphBuilder b(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    // {v, v+s} appears exactly once over the v loop: its other spelling
    // would need the shift n-s > (n-1)/2, which is never in the set.
    for (const std::uint32_t s : shifts) b.addEdge(v, (v + s) % n);
  }
  return b;
}

bool isConnected(const Graph& g) {
  const std::uint32_t n = g.nodeCount();
  if (n == 0) return true;
  std::vector<std::uint8_t> seen(n, 0);
  std::queue<NodeId> q;
  q.push(0);
  seen[0] = 1;
  std::uint32_t visited = 1;
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (const NodeId u : g.neighbors(v)) {
      if (!seen[u]) {
        seen[u] = 1;
        ++visited;
        q.push(u);
      }
    }
  }
  return visited == n;
}

}  // namespace disp
