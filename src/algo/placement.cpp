#include "algo/placement.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/graph_algos.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace disp {

std::vector<AgentId> randomIds(std::uint32_t k, std::uint64_t seed) {
  DISP_REQUIRE(k >= 1, "need at least one agent");
  Rng rng(seed ^ 0x1d5ULL);
  // Sample k distinct values from [1, 4k] via a partial shuffle.
  std::vector<AgentId> pool(4ULL * k);
  std::iota(pool.begin(), pool.end(), 1U);
  rng.shuffle(pool);
  pool.resize(k);
  return pool;
}

Placement rootedPlacement(const Graph& g, std::uint32_t k, NodeId root,
                          std::uint64_t seed) {
  DISP_REQUIRE(k >= 1 && k <= g.nodeCount(), "k must be in [1, n]");
  DISP_REQUIRE(root < g.nodeCount(), "root out of range");
  Placement p;
  p.positions.assign(k, root);
  p.ids = randomIds(k, seed);
  return p;
}

Placement clusteredPlacement(const Graph& g, std::uint32_t k, std::uint32_t clusters,
                             std::uint64_t seed) {
  DISP_REQUIRE(k >= 1 && k <= g.nodeCount(), "k must be in [1, n]");
  DISP_REQUIRE(clusters >= 1 && clusters <= k, "clusters must be in [1, k]");
  Rng rng(seed ^ 0xc1057e4ULL);
  std::vector<NodeId> nodes(g.nodeCount());
  std::iota(nodes.begin(), nodes.end(), 0U);
  rng.shuffle(nodes);
  nodes.resize(clusters);

  Placement p;
  p.positions.reserve(k);
  for (std::uint32_t a = 0; a < k; ++a) p.positions.push_back(nodes[a % clusters]);
  p.ids = randomIds(k, seed);
  return p;
}

Placement scatteredPlacement(const Graph& g, std::uint32_t k, std::uint64_t seed) {
  return clusteredPlacement(g, k, k, seed);
}

Placement adversarialFarPlacement(const Graph& g, std::uint32_t k,
                                  std::uint32_t clusters, std::uint64_t seed) {
  DISP_REQUIRE(k >= 1 && k <= g.nodeCount(), "k must be in [1, n]");
  DISP_REQUIRE(clusters >= 1 && clusters <= k && clusters <= g.nodeCount(),
               "clusters must be in [1, min(k, n)]");
  // Farthest-point traversal seeded at a peripheral node: center 2 lands a
  // full diameter away, later centers maximize the distance to the chosen
  // set (lowest node id on ties — fully deterministic, no RNG).
  std::vector<NodeId> centers{peripheralNode(g)};
  std::vector<std::uint32_t> minDist = bfsDistances(g, centers.front());
  while (centers.size() < clusters) {
    NodeId best = 0;
    for (NodeId v = 1; v < g.nodeCount(); ++v) {
      if (minDist[v] > minDist[best]) best = v;
    }
    centers.push_back(best);
    const std::vector<std::uint32_t> d = bfsDistances(g, best);
    for (NodeId v = 0; v < g.nodeCount(); ++v) minDist[v] = std::min(minDist[v], d[v]);
  }

  Placement p;
  p.positions.reserve(k);
  for (std::uint32_t a = 0; a < k; ++a) p.positions.push_back(centers[a % clusters]);
  p.ids = randomIds(k, seed);
  return p;
}

Placement adversarialFrontierPlacement(const Graph& g, std::uint32_t k,
                                       std::uint32_t clusters, std::uint64_t seed) {
  DISP_REQUIRE(k >= 1 && k <= g.nodeCount(), "k must be in [1, n]");
  DISP_REQUIRE(clusters >= 1 && clusters <= k, "clusters must be in [1, k]");
  // Deepest BFS levels from node 0 — the corner a lowest-id-rooted
  // tree-growing phase expands from, equal-depth ties in id order: fully
  // deterministic, no RNG in the positions.  That order is total, so only
  // the kept prefix needs sorting.
  const std::vector<std::uint32_t> dist = bfsDistances(g, 0);
  std::vector<NodeId> candidates;
  candidates.reserve(g.nodeCount());
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    if (dist[v] != kUnreachable) candidates.push_back(v);
  }
  DISP_REQUIRE(clusters <= candidates.size(),
               "clusters must be <= the component of node 0");
  std::partial_sort(candidates.begin(), candidates.begin() + clusters,
                    candidates.end(), [&dist](NodeId a, NodeId b) {
                      return dist[a] != dist[b] ? dist[a] > dist[b] : a < b;
                    });
  candidates.resize(clusters);

  Placement p;
  p.positions.reserve(k);
  for (std::uint32_t a = 0; a < k; ++a) p.positions.push_back(candidates[a % clusters]);
  p.ids = randomIds(k, seed);
  return p;
}

Placement adversarialHotPlacement(const Graph& g, std::uint32_t k,
                                  std::uint64_t seed) {
  DISP_REQUIRE(g.nodeCount() >= 1, "empty graph");
  NodeId hub = 0;
  for (NodeId v = 1; v < g.nodeCount(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  return rootedPlacement(g, k, hub, seed);
}

namespace {

[[noreturn]] void placeFail(const std::string& text, const std::string& why) {
  throw std::invalid_argument(
      "bad placement spec '" + text + "': " + why +
      " (known: rooted[:root=R], clusters:l=L, spread, adversarial:far[,l=L], "
      "adversarial:frontier[,l=L], adversarial:hot)");
}

/// Parses the comma-separated `key=value` args of a placement spec; only
/// `allowed` (a single name or empty) is recognized.
std::uint32_t parseOnlyParam(const std::string& text, const std::string& args,
                             const std::string& allowed, std::uint32_t fallback) {
  std::uint32_t out = fallback;
  std::string::size_type from = 0;
  while (from <= args.size()) {
    const auto comma = args.find(',', from);
    const auto to = comma == std::string::npos ? args.size() : comma;
    const std::string tok = args.substr(from, to - from);
    if (!tok.empty()) {
      const auto eq = tok.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == tok.size()) {
        placeFail(text, "parameter '" + tok + "' is not key=value");
      }
      const std::string key = tok.substr(0, eq);
      const std::string value = tok.substr(eq + 1);
      if (allowed.empty() || key != allowed) {
        placeFail(text, "unknown parameter '" + key + "'");
      }
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos) {
        placeFail(text, "parameter '" + key + "' value '" + value +
                            "' is not an unsigned integer");
      }
      const unsigned long long v = std::strtoull(value.c_str(), nullptr, 10);
      if (v > 0xffffffffULL) placeFail(text, "parameter '" + key + "' overflows");
      out = static_cast<std::uint32_t>(v);
    }
    if (comma == std::string::npos) break;
    from = comma + 1;
  }
  return out;
}

}  // namespace

PlacementSpec PlacementSpec::parse(const std::string& text) {
  PlacementSpec spec;
  const auto colon = text.find(':');
  const std::string head = text.substr(0, colon);
  const std::string rest =
      colon == std::string::npos ? std::string() : text.substr(colon + 1);

  if (head == "rooted") {
    spec.kind_ = Kind::Rooted;
    spec.root_ = parseOnlyParam(text, rest, "root", 0);
  } else if (head == "clusters") {
    spec.kind_ = Kind::Clusters;
    spec.clusters_ = parseOnlyParam(text, rest, "l", 2);
    if (spec.clusters_ < 1) placeFail(text, "l must be >= 1");
  } else if (head == "spread") {
    if (!rest.empty()) placeFail(text, "spread takes no parameters");
    spec.kind_ = Kind::Spread;
  } else if (head == "adversarial") {
    const auto comma = rest.find(',');
    const std::string mode = rest.substr(0, comma);
    const std::string args =
        comma == std::string::npos ? std::string() : rest.substr(comma + 1);
    if (mode == "far") {
      spec.kind_ = Kind::AdversarialFar;
      spec.clusters_ = parseOnlyParam(text, args, "l", 2);
      if (spec.clusters_ < 1) placeFail(text, "l must be >= 1");
    } else if (mode == "frontier") {
      spec.kind_ = Kind::AdversarialFrontier;
      spec.clusters_ = parseOnlyParam(text, args, "l", 2);
      if (spec.clusters_ < 1) placeFail(text, "l must be >= 1");
    } else if (mode == "hot") {
      if (!args.empty()) placeFail(text, "adversarial:hot takes no parameters");
      spec.kind_ = Kind::AdversarialHot;
    } else {
      placeFail(text, "unknown adversarial mode '" + mode + "'");
    }
  } else {
    placeFail(text, "unknown placement kind '" + head + "'");
  }
  return spec;
}

std::string PlacementSpec::toString() const {
  switch (kind_) {
    case Kind::Rooted:
      return root_ == 0 ? "rooted" : "rooted:root=" + std::to_string(root_);
    case Kind::Clusters:
      return "clusters:l=" + std::to_string(clusters_);
    case Kind::Spread:
      return "spread";
    case Kind::AdversarialFar:
      return clusters_ == 2 ? "adversarial:far"
                            : "adversarial:far,l=" + std::to_string(clusters_);
    case Kind::AdversarialFrontier:
      return clusters_ == 2 ? "adversarial:frontier"
                            : "adversarial:frontier,l=" + std::to_string(clusters_);
    case Kind::AdversarialHot:
      return "adversarial:hot";
  }
  throw std::logic_error("unreachable placement kind");
}

std::uint32_t PlacementSpec::clusterCount() const {
  switch (kind_) {
    case Kind::Rooted:
    case Kind::AdversarialHot:
      return 1;
    case Kind::Clusters:
    case Kind::AdversarialFar:
    case Kind::AdversarialFrontier:
      return clusters_;
    case Kind::Spread:
      return 0;
  }
  throw std::logic_error("unreachable placement kind");
}

std::string PlacementSpec::tableLabel() const {
  switch (kind_) {
    case Kind::Rooted:
    case Kind::Clusters:
      return std::to_string(clusterCount());
    case Kind::Spread:
      return "spread";
    case Kind::AdversarialFar:
      return "far:" + std::to_string(clusters_);
    case Kind::AdversarialFrontier:
      return "frontier:" + std::to_string(clusters_);
    case Kind::AdversarialHot:
      return "hot";
  }
  throw std::logic_error("unreachable placement kind");
}

Placement PlacementSpec::place(const Graph& g, std::uint32_t k,
                               std::uint64_t seed) const {
  switch (kind_) {
    case Kind::Rooted:
      return rootedPlacement(g, k, root_, seed);
    case Kind::Clusters:
      return clusteredPlacement(g, k, clusters_, seed);
    case Kind::Spread:
      return scatteredPlacement(g, k, seed);
    case Kind::AdversarialFar:
      return adversarialFarPlacement(g, k, clusters_, seed);
    case Kind::AdversarialFrontier:
      return adversarialFrontierPlacement(g, k, clusters_, seed);
    case Kind::AdversarialHot:
      return adversarialHotPlacement(g, k, seed);
  }
  throw std::logic_error("unreachable placement kind");
}

}  // namespace disp
