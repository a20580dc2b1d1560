#include "graph/labeling.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <span>
#include <stdexcept>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace disp {

namespace {

/// Incidence in CSR form: for each node, the indices of its incident edges
/// in ascending edge order (the same per-node order the historical
/// vector-of-vectors produced, so the labeling below draws identical Rng
/// streams).  Two flat arrays instead of n vector headers — at web scale
/// the headers alone were ~24 bytes per node of pure overhead.
struct IncidenceCsr {
  std::vector<std::uint32_t> offsets;  // n + 1
  std::vector<std::uint32_t> slots;    // 2m edge indices

  [[nodiscard]] std::span<const std::uint32_t> at(std::uint32_t v) const {
    return {slots.data() + offsets[v], slots.data() + offsets[v + 1]};
  }
  [[nodiscard]] std::uint32_t degree(std::uint32_t v) const {
    return offsets[v + 1] - offsets[v];
  }
};

IncidenceCsr incidence(std::uint32_t n, const std::vector<Edge>& edges) {
  IncidenceCsr inc;
  inc.offsets.assign(n + 1, 0);
  for (const Edge& e : edges) {
    ++inc.offsets[e.u + 1];
    ++inc.offsets[e.v + 1];
  }
  for (std::uint32_t v = 0; v < n; ++v) inc.offsets[v + 1] += inc.offsets[v];
  inc.slots.resize(2 * edges.size());
  std::vector<std::uint32_t> cursor(inc.offsets.begin(), inc.offsets.end() - 1);
  for (std::uint32_t i = 0; i < edges.size(); ++i) {
    inc.slots[cursor[edges[i].u]++] = i;
    inc.slots[cursor[edges[i].v]++] = i;
  }
  return inc;
}

/// Matches two distinct incident edges to every node of degree >= 3 such
/// that no edge is chosen by both endpoints (Kuhn's augmenting paths; left
/// side = "low-port slots", two per high-degree node; right side = edges).
/// Returns, per node, the chosen edge indices (empty for low-degree nodes).
/// Throws if infeasible — e.g. K4 admits no §8.2 labeling: 4 nodes need 8
/// low slots but only 6 edges exist.
std::vector<std::vector<std::uint32_t>> matchLowSlots(
    std::uint32_t n, const std::vector<Edge>& edges, const IncidenceCsr& inc,
    std::uint64_t seed) {
  Rng rng(seed ^ 0x51077ca7c4e5ULL);

  std::vector<std::uint32_t> leftNode;  // left index -> node (two slots/node)
  for (std::uint32_t v = 0; v < n; ++v) {
    if (inc.degree(v) >= 3) {
      leftNode.push_back(v);
      leftNode.push_back(v);
    }
  }

  std::vector<std::int64_t> edgeOwner(edges.size(), -1);  // left index or -1
  std::vector<std::uint8_t> visited(edges.size(), 0);

  // Randomized per-node preference order so different seeds give different
  // (still valid) labelings.
  std::vector<std::vector<std::uint32_t>> pref(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (inc.degree(v) >= 3) {
      const auto iv = inc.at(v);
      pref[v].assign(iv.begin(), iv.end());
      rng.shuffle(pref[v]);
    }
  }

  std::function<bool(std::uint32_t)> tryAugment = [&](std::uint32_t left) -> bool {
    const std::uint32_t v = leftNode[left];
    for (const std::uint32_t e : pref[v]) {
      if (visited[e]) continue;
      visited[e] = 1;
      // A node must not take the same edge for both of its slots.
      if (edgeOwner[e] >= 0 && leftNode[static_cast<std::size_t>(edgeOwner[e])] == v)
        continue;
      if (edgeOwner[e] < 0 || tryAugment(static_cast<std::uint32_t>(edgeOwner[e]))) {
        edgeOwner[e] = left;
        return true;
      }
    }
    return false;
  };

  for (std::uint32_t left = 0; left < leftNode.size(); ++left) {
    std::fill(visited.begin(), visited.end(), 0);
    if (!tryAugment(left)) {
      throw std::invalid_argument(
          "graph admits no constrained (section 8.2) port labeling: "
          "cannot reserve two low ports per degree>=3 node without a clash");
    }
  }

  std::vector<std::vector<std::uint32_t>> marks(n);
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    if (edgeOwner[e] >= 0) {
      marks[leftNode[static_cast<std::size_t>(edgeOwner[e])]].push_back(e);
    }
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    DISP_CHECK(inc.degree(v) < 3 || marks[v].size() == 2, "low-slot matching incomplete");
  }
  return marks;
}

}  // namespace

std::vector<std::pair<Port, Port>> constrainedPorts(std::uint32_t n,
                                                    const std::vector<Edge>& edges,
                                                    std::uint64_t seed) {
  Rng rng(seed ^ 0xc057a17edULL);
  const auto inc = incidence(n, edges);
  const auto marks = matchLowSlots(n, edges, inc, seed);

  std::vector<std::pair<Port, Port>> out(edges.size());
  for (std::uint32_t v = 0; v < n; ++v) {
    auto put = [&](std::uint32_t e, Port p) {
      if (edges[e].u == v) {
        out[e].first = p;
      } else {
        out[e].second = p;
      }
    };

    const auto iv = inc.at(v);
    if (inc.degree(v) >= 3) {
      // Ports 1..2 go to the two marked edges; the rest get a random
      // permutation of ports 3..deg.
      std::vector<std::uint32_t> low = marks[v];
      rng.shuffle(low);
      put(low[0], 1);
      put(low[1], 2);
      std::vector<std::uint32_t> rest;
      rest.reserve(iv.size() - 2);
      for (const std::uint32_t e : iv) {
        if (e != low[0] && e != low[1]) rest.push_back(e);
      }
      const auto perm = rng.permutation(static_cast<std::uint32_t>(rest.size()));
      for (std::size_t i = 0; i < rest.size(); ++i) put(rest[i], perm[i] + 3);
    } else {
      const auto perm = rng.permutation(static_cast<std::uint32_t>(iv.size()));
      for (std::size_t i = 0; i < iv.size(); ++i) put(iv[i], perm[i] + 1);
    }
  }
  return out;
}

}  // namespace disp
