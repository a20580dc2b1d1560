// Tests for the web-scale ingest machinery: the two-pass streaming CSR
// builder (fuzzed against the validating GraphBuilder), the ba/rmat/er:fast
// generator invariants, the Graphalytics writer round-trip, portTo on
// high-degree rows, and the peak-RSS probe semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <vector>

#include "temp_path.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graph_io.hpp"
#include "graph/spec.hpp"

namespace disp {
namespace {

// Port-exact graph equality: same CSR facts at every node and port.
void expectSameLabeledGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  ASSERT_EQ(a.edgeCount(), b.edgeCount());
  EXPECT_EQ(a.maxDegree(), b.maxDegree());
  for (NodeId v = 0; v < a.nodeCount(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "node " << v;
    for (Port p = 1; p <= a.degree(v); ++p) {
      EXPECT_EQ(a.neighbor(v, p), b.neighbor(v, p)) << v << ":" << p;
      EXPECT_EQ(a.reversePort(v, p), b.reversePort(v, p)) << v << ":" << p;
    }
  }
}

Graph twoPass(std::uint32_t n, const std::vector<Edge>& edges) {
  TwoPassBuilder tp(n);
  for (const Edge& e : edges) tp.countEdge(e.u, e.v);
  tp.beginEdges();
  for (const Edge& e : edges) tp.addEdge(e.u, e.v);
  return tp.finish();
}

// ---------------------------------------------------------- TwoPassBuilder

TEST(TwoPassBuilder, MatchesGraphBuilderOnFuzzedGraphs) {
  Rng rng(20260807);
  for (int iter = 0; iter < 60; ++iter) {
    // Random simple graph over a random node count, plus deliberate
    // isolated nodes (ids never touched by any edge).
    const auto n = static_cast<std::uint32_t>(4 + rng.below(60));
    GraphBuilder gb(n);
    std::vector<Edge> edges;
    for (std::uint32_t u = 0; u < n; ++u) {
      for (std::uint32_t v = u + 1; v < n; ++v) {
        if (u % 7 == 3 || v % 7 == 3) continue;  // keep some nodes isolated
        if (!rng.chance(0.15)) continue;
        const bool swap = rng.chance(0.5);
        const Edge e{swap ? v : u, swap ? u : v};
        gb.addEdge(e.u, e.v);
        edges.push_back(e);
      }
    }
    if (edges.empty()) continue;
    expectSameLabeledGraph(gb.build(PortLabeling::InsertionOrder),
                           twoPass(n, edges));
  }
}

TEST(TwoPassBuilder, MatchesGeneratorOutputs) {
  // Skewed-degree graphs are what the streaming path exists for.
  for (const char* family : {"ba", "rmat", "star"}) {
    const GraphBuilder gb = [&] {
      if (std::string(family) == "ba") return makeBarabasiAlbert(400, 3, 9);
      if (std::string(family) == "rmat") return makeRmat(256, 4, 9);
      return makeStar(200);
    }();
    SCOPED_TRACE(family);
    expectSameLabeledGraph(gb.build(PortLabeling::InsertionOrder),
                           twoPass(gb.nodeCount(), gb.edges()));
  }
}

TEST(TwoPassBuilder, RejectsSelfLoopAndPassMismatch) {
  {
    TwoPassBuilder tp(3);
    EXPECT_THROW(tp.countEdge(1, 1), std::invalid_argument);
  }
  {
    TwoPassBuilder tp(3);
    tp.countEdge(0, 1);
    tp.beginEdges();
    EXPECT_THROW(tp.addEdge(1, 1), std::invalid_argument);
  }
  {
    // Pass two must replay exactly the counted edges.
    TwoPassBuilder tp(4);
    tp.countEdge(0, 1);
    tp.countEdge(1, 2);
    tp.beginEdges();
    tp.addEdge(0, 1);
    EXPECT_THROW((void)tp.finish(), std::invalid_argument);
  }
  {
    // A different pass-two stream overflows some node's degree slot.
    TwoPassBuilder tp(4);
    tp.countEdge(0, 1);
    tp.countEdge(2, 3);
    tp.beginEdges();
    tp.addEdge(0, 1);
    EXPECT_THROW(tp.addEdge(0, 2), std::invalid_argument);
  }
}

TEST(TwoPassBuilder, HandlesIsolatedNodes) {
  // Nodes 0 and 3 isolated; CSR rows must be empty, not misaligned.
  const Graph g = twoPass(5, {{1, 2}, {2, 4}, {4, 1}});
  EXPECT_EQ(g.nodeCount(), 5u);
  EXPECT_EQ(g.edgeCount(), 3u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_NO_THROW(validateGraph(g));
}

// -------------------------------------------------------- streaming loaders

TEST(GraphIo, EdgeListRemapsSparseIdsBeyondTwoPow21) {
  // Ids far above the dense-remap threshold the loader compacts around.
  std::stringstream ss(
      "4194304 8388608\n"
      "8388608 16777216\n"
      "16777216 4194304\n");
  const Graph g = readEdgeList(ss, "sparse.el");
  EXPECT_EQ(g.nodeCount(), 3u);
  EXPECT_EQ(g.edgeCount(), 3u);
  EXPECT_TRUE(isConnected(g));
  EXPECT_NO_THROW(validateGraph(g));
}

TEST(GraphIo, EdgeListRejectsDuplicatesInBothOrientations) {
  std::stringstream same("0 1\n1 2\n0 1\n");
  EXPECT_THROW((void)readEdgeList(same, "s.el"), std::invalid_argument);
  std::stringstream flipped("0 1\n1 2\n1 0\n");
  EXPECT_THROW((void)readEdgeList(flipped, "f.el"), std::invalid_argument);
}

TEST(GraphIo, GraphalyticsWriterRoundTrips) {
  const Graph g = makeGraph("ba:n=300,d=3", 0, 21, PortLabeling::InsertionOrder);
  const std::string base = processTempPath("rt_ba");
  writeGraphalytics(base, g);
  const Graph h = loadGraphalytics(base);
  ASSERT_EQ(h.nodeCount(), g.nodeCount());
  ASSERT_EQ(h.edgeCount(), g.edgeCount());
  // Ports are not stored, so compare structure (degrees + adjacency) and
  // pin that a second write/load round-trip is a labeling fixpoint.
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    ASSERT_EQ(h.degree(v), g.degree(v)) << "node " << v;
    for (Port p = 1; p <= g.degree(v); ++p) {
      EXPECT_NE(h.portTo(v, g.neighbor(v, p)), kNoPort);
    }
  }
  const std::string base2 = processTempPath("rt_ba2");
  writeGraphalytics(base2, h);
  expectSameLabeledGraph(h, loadGraphalytics(base2));
  for (const std::string& b : {base, base2}) {
    std::filesystem::remove(b + ".v");
    std::filesystem::remove(b + ".e");
  }
}

// ------------------------------------------------------------- generators

TEST(Generators, BarabasiAlbertInvariantsPerSeed) {
  const std::uint32_t n = 500, d = 4;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = makeBarabasiAlbert(n, d, seed).build();
    EXPECT_EQ(g.nodeCount(), n);
    // (d+1)-clique seed + d edges per later node, all distinct endpoints.
    EXPECT_EQ(g.edgeCount(),
              static_cast<std::uint64_t>(d + 1) * d / 2 +
                  static_cast<std::uint64_t>(n - d - 1) * d);
    for (NodeId v = 0; v < n; ++v) EXPECT_GE(g.degree(v), d) << "seed " << seed;
    EXPECT_TRUE(isConnected(g)) << "seed " << seed;
    EXPECT_NO_THROW(validateGraph(g));
    // Preferential attachment must produce a heavy tail: some hub well
    // above the 2d mean degree.
    EXPECT_GT(g.maxDegree(), 4 * d) << "seed " << seed;
  }
}

TEST(Generators, BarabasiAlbertIsSeedDeterministic) {
  const GraphBuilder a = makeBarabasiAlbert(300, 3, 42);
  const GraphBuilder b = makeBarabasiAlbert(300, 3, 42);
  expectSameLabeledGraph(a.build(), b.build());
}

TEST(Generators, RmatInvariantsPerSeed) {
  const std::uint32_t n = 512, ef = 6;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = makeRmat(n, ef, seed).build();
    EXPECT_EQ(g.nodeCount(), n);
    // Target is ~n*ef distinct edges; duplicates are dropped and the
    // connectivity augmentation adds at most a spanning set.
    EXPECT_GE(g.edgeCount(), static_cast<std::uint64_t>(n) * ef / 2);
    EXPECT_LE(g.edgeCount(), static_cast<std::uint64_t>(n) * (ef + 1));
    EXPECT_TRUE(isConnected(g)) << "seed " << seed;
    EXPECT_NO_THROW(validateGraph(g));
    // The Graph500 mix concentrates mass in the low quadrant: skewed tail.
    EXPECT_GT(g.maxDegree(), 4 * ef) << "seed " << seed;
  }
}

TEST(Generators, ErdosRenyiFastIsConnectedAndSeedStable) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Graph g = makeErdosRenyiFast(400, 0.01, seed).build();
    EXPECT_EQ(g.nodeCount(), 400u);
    EXPECT_TRUE(isConnected(g)) << "seed " << seed;
    EXPECT_NO_THROW(validateGraph(g));
  }
  expectSameLabeledGraph(makeErdosRenyiFast(200, 0.05, 5).build(),
                         makeErdosRenyiFast(200, 0.05, 5).build());
}

TEST(GraphSpec, ScaleFamiliesRegisteredWithSizeBounds) {
  EXPECT_EQ(makeGraph("ba:n=200,d=5", 0, 3).nodeCount(), 200u);
  EXPECT_EQ(makeGraph("rmat:n=128,ef=4", 0, 3).nodeCount(), 128u);
  EXPECT_TRUE(GraphSpec::parse("ba:n=200").sizeBound());
  EXPECT_TRUE(GraphSpec::parse("rmat:n=128").sizeBound());
  EXPECT_FALSE(GraphSpec::parse("ba").sizeBound());
  // er:fast=1 is the opt-in O(m) sampler; bare er keeps its pinned stream.
  EXPECT_EQ(makeGraph("er:fast=1,n=256", 0, 7).nodeCount(), 256u);
  EXPECT_TRUE(isConnected(makeGraph("er:fast=1,n=256", 0, 7)));
}

// ------------------------------------------------------------ portTo scans

TEST(Graph, PortToFindsEveryPortOnPowerLawHubs) {
  // A ba graph's hubs have rows far longer than its leaves'; the scan must
  // find every neighbor at its own port on both.
  const Graph g = makeGraph("ba:n=400,d=4", 0, 13, PortLabeling::RandomPermutation);
  ASSERT_GT(g.maxDegree(), 8 * g.neighbors(g.nodeCount() - 1).size());
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (Port p = 1; p <= g.degree(v); ++p) {
      EXPECT_EQ(g.portTo(v, nbrs[p - 1]), p) << "node " << v;
    }
    EXPECT_EQ(g.portTo(v, v), kNoPort);
  }
}

TEST(Graph, PortToMissesOnHighDegreeNodes) {
  // A star hub under a random labeling: every leaf is found at its own port
  // from either end, and the leaves, which are mutually non-adjacent, miss
  // each other.
  const Graph star = makeStar(100).build(PortLabeling::RandomPermutation, 13);
  for (Port p = 1; p <= star.degree(0); ++p) {
    const NodeId leaf = star.neighbor(0, p);
    EXPECT_EQ(star.portTo(0, leaf), p) << "leaf " << leaf;
    EXPECT_EQ(star.portTo(leaf, 0), star.reversePort(0, p)) << "leaf " << leaf;
  }
  EXPECT_EQ(star.portTo(0, 0), kNoPort);
  EXPECT_EQ(star.portTo(1, 2), kNoPort);
  EXPECT_EQ(star.portTo(1, 99), kNoPort);
}

// ------------------------------------------------------------ RSS probe

TEST(MemProbe, PeakCoversCurrentAndGrowsUnderAllocation) {
  const double current = currentRssMb();
  const double peak = peakRssMb();
  if (current == 0.0 || peak == 0.0) {
    GTEST_SKIP() << "RSS probe unavailable on this platform";
  }
  // The high-water mark can never be below the current resident set
  // (small slack: the two /proc reads are not atomic).
  EXPECT_GE(peak + 1.0, current);

  (void)resetPeakRss();
  const double before = peakRssMb();
  {
    // Touch ~64 MiB so the watermark must move well past `before`.
    std::vector<std::uint8_t> ballast(64u << 20, 1);
    volatile std::uint8_t sink = 0;
    for (std::size_t i = 0; i < ballast.size(); i += 4096) {
      sink = static_cast<std::uint8_t>(sink ^ ballast[i]);
    }
    (void)sink;
    EXPECT_GE(peakRssMb(), before + 32.0);
  }
  // Monotone until the next reset, even after the ballast is freed.
  const double after = peakRssMb();
  EXPECT_GE(after, before + 32.0);
  // A reset (when supported) pulls the watermark back toward current RSS.
  if (resetPeakRss()) {
    EXPECT_LE(peakRssMb(), after);
  }
}

}  // namespace
}  // namespace disp
