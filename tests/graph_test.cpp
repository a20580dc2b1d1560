// Tests for the graph substrate: CSR integrity, generators, the parsed
// GraphSpec grammar + family registry, port labelings (including the §8.2
// constrained labeling), file I/O (dpg / edge-list / Graphalytics, with
// path:line error context), algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "temp_path.hpp"
#include "util/rng.hpp"

#include "graph/generators.hpp"
#include "graph/spec.hpp"
#include "graph/graph.hpp"
#include "graph/graph_algos.hpp"
#include "graph/graph_io.hpp"

namespace disp {
namespace {

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_THROW(b.addEdge(1, 1), std::invalid_argument);
}

TEST(GraphBuilder, RejectsDuplicateEdge) {
  GraphBuilder b(3);
  b.addEdge(0, 1).addEdge(1, 2).addEdge(1, 0);
  EXPECT_THROW((void)b.build(), std::invalid_argument);
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder b(2);
  EXPECT_THROW(b.addEdge(0, 5), std::invalid_argument);
}

TEST(Graph, TriangleStructure) {
  const Graph g = makeCycle(3).build();
  EXPECT_EQ(g.nodeCount(), 3u);
  EXPECT_EQ(g.edgeCount(), 3u);
  EXPECT_EQ(g.maxDegree(), 2u);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(g.degree(v), 2u);
    // reverse ports return
    for (Port p = 1; p <= 2; ++p) {
      const NodeId u = g.neighbor(v, p);
      EXPECT_EQ(g.neighbor(u, g.reversePort(v, p)), v);
    }
  }
}

TEST(Graph, PortToFindsAndMisses) {
  const Graph g = makePath(4).build();
  EXPECT_NE(g.portTo(1, 2), kNoPort);
  EXPECT_EQ(g.portTo(0, 3), kNoPort);
}

TEST(Graph, EdgesListedOnce) {
  const Graph g = makeComplete(6).build();
  const auto es = g.edges();
  EXPECT_EQ(es.size(), 15u);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const auto& e : es) {
    EXPECT_LE(e.u, e.v);
    EXPECT_TRUE(seen.insert({e.u, e.v}).second);
  }
}

// ---------------------------------------------------------------- families

struct FamilyCase {
  std::string family;
  std::uint32_t n;
};

class FamilyTest : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(FamilyTest, ConnectedAndValid) {
  const auto& [family, n] = GetParam();
  const Graph g = makeGraph(family, n, /*seed=*/12345);
  EXPECT_GE(g.nodeCount(), 2u) << family;
  EXPECT_TRUE(isConnected(g)) << family;
  EXPECT_NO_THROW(validateGraph(g)) << family;
}

TEST_P(FamilyTest, RandomLabelingPreservesStructure) {
  const auto& [family, n] = GetParam();
  const Graph a = makeGraph(family, n, 7, PortLabeling::InsertionOrder);
  const Graph b = makeGraph(family, n, 7, PortLabeling::RandomPermutation);
  EXPECT_EQ(a.nodeCount(), b.nodeCount());
  EXPECT_EQ(a.edgeCount(), b.edgeCount());
  for (NodeId v = 0; v < a.nodeCount(); ++v) {
    EXPECT_EQ(a.degree(v), b.degree(v));
    // Same neighbor multiset, possibly different port order.
    std::multiset<NodeId> na(a.neighbors(v).begin(), a.neighbors(v).end());
    std::multiset<NodeId> nb(b.neighbors(v).begin(), b.neighbors(v).end());
    EXPECT_EQ(na, nb);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilyTest,
    ::testing::Values(FamilyCase{"path", 50}, FamilyCase{"cycle", 50},
                      FamilyCase{"star", 50}, FamilyCase{"wheel", 50},
                      FamilyCase{"complete", 24}, FamilyCase{"bipartite", 30},
                      FamilyCase{"bintree", 63}, FamilyCase{"randtree", 80},
                      FamilyCase{"caterpillar", 60}, FamilyCase{"grid", 49},
                      FamilyCase{"hypercube", 32}, FamilyCase{"er", 100},
                      FamilyCase{"regular", 60}, FamilyCase{"lollipop", 40},
                      FamilyCase{"barbell", 36}),
    [](const auto& tpi) { return tpi.param.family; });

TEST(Generators, PathEndpointsDegreeOne) {
  const Graph g = makePath(10).build();
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(9), 1u);
  for (NodeId v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Generators, StarDegrees) {
  const Graph g = makeStar(11).build();
  EXPECT_EQ(g.degree(0), 10u);
  EXPECT_EQ(g.maxDegree(), 10u);
  for (NodeId v = 1; v < 11; ++v) EXPECT_EQ(g.degree(v), 1u);
}

TEST(Generators, GridSizes) {
  const Graph g = makeGrid(4, 5).build();
  EXPECT_EQ(g.nodeCount(), 20u);
  EXPECT_EQ(g.edgeCount(), 4u * 4 + 5u * 3);  // 31 edges
  EXPECT_EQ(g.maxDegree(), 4u);
}

TEST(Generators, HypercubeRegular) {
  const Graph g = makeHypercube(4).build();
  EXPECT_EQ(g.nodeCount(), 16u);
  for (NodeId v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Generators, RandomRegularDegrees) {
  const Graph g = makeRandomRegular(30, 4, 99).build();
  for (NodeId v = 0; v < 30; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_TRUE(isConnected(g));
}

TEST(Generators, RandomTreeIsTree) {
  const Graph g = makeRandomTree(200, 5).build();
  EXPECT_EQ(g.edgeCount(), 199u);
  EXPECT_TRUE(isConnected(g));
}

TEST(Generators, ErdosRenyiAlwaysConnected) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Graph g = makeErdosRenyiConnected(60, 0.02, seed).build();
    EXPECT_TRUE(isConnected(g)) << "seed " << seed;
  }
}

TEST(Generators, LollipopShape) {
  const Graph g = makeLollipop(20, 8).build();
  EXPECT_EQ(g.nodeCount(), 20u);
  EXPECT_EQ(g.edgeCount(), 8u * 7 / 2 + 12u);
  EXPECT_TRUE(isConnected(g));
}

TEST(Generators, BarbellShape) {
  const Graph g = makeBarbell(5, 4).build();
  EXPECT_EQ(g.nodeCount(), 14u);
  EXPECT_TRUE(isConnected(g));
  EXPECT_EQ(g.edgeCount(), 2u * 10 + 5u);
}

TEST(Generators, BadParamsThrow) {
  EXPECT_THROW((void)makeCycle(2), std::invalid_argument);
  EXPECT_THROW((void)makeRandomRegular(9, 3, 1), std::invalid_argument);  // odd n*d
  EXPECT_THROW((void)makeGraph("nope", 10, 0), std::invalid_argument);
}

// ------------------------------------------------------------- labelings

TEST(Labeling, RandomPermutationDiffersAcrossSeeds) {
  const GraphBuilder b = makeStar(40);
  const Graph g1 = b.build(PortLabeling::RandomPermutation, 1);
  const Graph g2 = b.build(PortLabeling::RandomPermutation, 2);
  bool differs = false;
  for (Port p = 1; p <= g1.degree(0); ++p) differs |= g1.neighbor(0, p) != g2.neighbor(0, p);
  EXPECT_TRUE(differs);
}

class ConstrainedLabelingTest : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(ConstrainedLabelingTest, SatisfiesSection82) {
  const auto& [family, n] = GetParam();
  const Graph g = makeGraph(family, n, 31337, PortLabeling::Constrained);
  EXPECT_TRUE(satisfiesConstrainedLabeling(g)) << family;
  EXPECT_NO_THROW(validateGraph(g));
}

INSTANTIATE_TEST_SUITE_P(
    Feasible, ConstrainedLabelingTest,
    ::testing::Values(FamilyCase{"path", 40}, FamilyCase{"cycle", 40},
                      FamilyCase{"star", 40}, FamilyCase{"randtree", 60},
                      FamilyCase{"er", 80}, FamilyCase{"bintree", 31},
                      FamilyCase{"caterpillar", 40}, FamilyCase{"lollipop", 30}),
    [](const auto& tpi) { return tpi.param.family; });

TEST(Labeling, K4HasNoConstrainedLabeling) {
  // K4: 4 degree-3 nodes need 8 low-port slots but only 6 edges exist.
  EXPECT_THROW((void)makeComplete(4).build(PortLabeling::Constrained, 1),
               std::invalid_argument);
}

TEST(Labeling, GridHasNoConstrainedLabeling) {
  // Reproduction finding (documented in DESIGN.md): a 6x6 grid has 32 nodes
  // of degree >= 3 needing 64 low-port slots, but only 60 edges — so the
  // §8.2 assumption excludes 2D grids entirely.
  EXPECT_THROW((void)makeGrid(6, 6).build(PortLabeling::Constrained, 1),
               std::invalid_argument);
}

TEST(Labeling, K5ConstrainedIsTightButFeasible) {
  const Graph g = makeComplete(5).build(PortLabeling::Constrained, 1);
  EXPECT_TRUE(satisfiesConstrainedLabeling(g));
}

TEST(Labeling, RandomLabelingUsuallyViolatesConstraint) {
  // Sanity check that the validator actually discriminates: on a clique a
  // random labeling almost surely has some (low, low) edge.
  const Graph g = makeComplete(12).build(PortLabeling::RandomPermutation, 3);
  EXPECT_FALSE(satisfiesConstrainedLabeling(g));
}

// ------------------------------------------------------------------- io

TEST(GraphIo, RoundTripPreservesPorts) {
  const Graph g = makeGraph("er", 50, 77, PortLabeling::RandomPermutation);
  std::stringstream ss;
  writeGraph(ss, g);
  const Graph h = readGraph(ss);
  ASSERT_EQ(g.nodeCount(), h.nodeCount());
  ASSERT_EQ(g.edgeCount(), h.edgeCount());
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    ASSERT_EQ(g.degree(v), h.degree(v));
    for (Port p = 1; p <= g.degree(v); ++p) {
      EXPECT_EQ(g.neighbor(v, p), h.neighbor(v, p));
      EXPECT_EQ(g.reversePort(v, p), h.reversePort(v, p));
    }
  }
}

// Asserts that parsing fails and the error names source:line (the
// satellite requirement: loader errors must be actionable).
template <typename Fn>
void expectParseError(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument mentioning '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(GraphIo, RejectsGarbage) {
  std::stringstream ss("not a graph");
  expectParseError([&] { (void)readGraph(ss, "bad.dpg"); }, "bad.dpg:1");
}

TEST(GraphIo, DpgErrorsNameSourceAndLine) {
  // Duplicate edge on line 3.
  std::stringstream dup("dpg 3 3\n0 1 1 1\n1 2 0 1\n");
  expectParseError([&] { (void)readGraph(dup, "x.dpg"); },
                   "x.dpg:3: duplicate edge 1-0");
  // Port 0 is out of range (ports are 1-based; degree is implied by the
  // max port, so 0 is the only possible out-of-range value).
  std::stringstream badPort("dpg 3 2\n0 1 1 0\n0 2 2 1\n");
  expectParseError([&] { (void)readGraph(badPort, "y.dpg"); },
                   "y.dpg:2: port 0 out of range");
  // A port above the edge count leaves lower ports missing.
  std::stringstream gapPort("dpg 3 2\n0 1 1 3\n0 2 2 1\n");
  expectParseError([&] { (void)readGraph(gapPort, "y2.dpg"); },
                   "node 1 is missing port 1");
  // Duplicate port at one node.
  std::stringstream dupPort("dpg 3 2\n0 1 1 1\n0 1 2 1\n");
  expectParseError([&] { (void)readGraph(dupPort, "z.dpg"); },
                   "z.dpg:3: duplicate port 1 at node 0");
  // Truncated file: header promises 3 edges, body has 1.
  std::stringstream trunc("dpg 3 3\n0 1 1 1\n");
  expectParseError([&] { (void)readGraph(trunc, "t.dpg"); }, "t.dpg: truncated");
  // Node out of range.
  std::stringstream range("dpg 2 1\n0 1 7 1\n");
  expectParseError([&] { (void)readGraph(range, "r.dpg"); }, "r.dpg:2: node out of range");
}

TEST(GraphIo, LoadGraphNamesPathOnMissingFile) {
  expectParseError([] { (void)loadGraph("/nonexistent/g.dpg"); },
                   "/nonexistent/g.dpg");
}

// ------------------------------------------------------------- edge lists

TEST(GraphIo, EdgeListParsesCommentsAndSparseIds) {
  std::stringstream ss(
      "# a 4-cycle with a chord, sparse ids\n"
      "% percent comments too\n"
      "10 20\n"
      "20 400\n"
      "400 7\n"
      "7 10\n"
      "\n"
      "10 400\n");
  const Graph g = readEdgeList(ss, "tiny.el");
  EXPECT_EQ(g.nodeCount(), 4u);  // ids {7,10,20,400} -> 0..3
  EXPECT_EQ(g.edgeCount(), 5u);
  EXPECT_TRUE(isConnected(g));
  EXPECT_NO_THROW(validateGraph(g));
  // Sorted-id remap: id 7 -> node 0 (degree 2), id 400 -> node 3 (degree 3).
  EXPECT_EQ(g.degree(3), 3u);
}

TEST(GraphIo, EdgeListIsDeterministic) {
  const auto load = [](const std::string& text) {
    std::stringstream ss(text);
    return readEdgeList(ss, "x.el");
  };
  // Same edges, different line order -> identical ports.
  const Graph a = load("0 1\n1 2\n2 3\n3 0\n");
  const Graph b = load("3 0\n2 3\n0 1\n1 2\n");
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  for (NodeId v = 0; v < a.nodeCount(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v));
    for (Port p = 1; p <= a.degree(v); ++p) {
      EXPECT_EQ(a.neighbor(v, p), b.neighbor(v, p));
      EXPECT_EQ(a.reversePort(v, p), b.reversePort(v, p));
    }
  }
}

TEST(GraphIo, EdgeListErrorsNameSourceAndLine) {
  std::stringstream selfLoop("0 1\n2 2\n");
  expectParseError([&] { (void)readEdgeList(selfLoop, "a.el"); },
                   "a.el:2: self-loop");
  std::stringstream dup("0 1\n1 2\n# c\n1 0\n");
  expectParseError([&] { (void)readEdgeList(dup, "b.el"); },
                   "b.el:4: duplicate edge");
  std::stringstream arity("0 1 2\n");
  expectParseError([&] { (void)readEdgeList(arity, "c.el"); }, "c.el:1");
  std::stringstream alpha("0 x\n");
  expectParseError([&] { (void)readEdgeList(alpha, "d.el"); },
                   "d.el:1: non-numeric node id 'x'");
  std::stringstream disconnected("0 1\n2 3\n");
  expectParseError([&] { (void)readEdgeList(disconnected, "e.el"); },
                   "e.el: graph is not connected");
  std::stringstream empty("# nothing\n");
  expectParseError([&] { (void)readEdgeList(empty, "f.el"); }, "f.el: no edges");
}

// ------------------------------------------------------------ graphalytics

TEST(GraphIo, GraphalyticsPairMapsVertexFileOrder) {
  std::stringstream vs("100\n200\n300\n400\n");
  std::stringstream es("100 200 1.5\n200 300\n300 400 0.25\n400 100\n");
  const Graph g = readGraphalytics(vs, es, "t.v", "t.e");
  EXPECT_EQ(g.nodeCount(), 4u);
  EXPECT_EQ(g.edgeCount(), 4u);
  EXPECT_TRUE(isConnected(g));
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(GraphIo, GraphalyticsErrorsNameSourceAndLine) {
  {
    std::stringstream vs("100\n100\n");
    std::stringstream es("");
    expectParseError([&] { (void)readGraphalytics(vs, es, "v.v", "v.e"); },
                     "v.v:2: duplicate vertex id 100");
  }
  {
    std::stringstream vs("1\n2\n");
    std::stringstream es("1 9\n");
    expectParseError([&] { (void)readGraphalytics(vs, es, "w.v", "w.e"); },
                     "w.e:1: unknown vertex id '9'");
  }
  {
    std::stringstream vs("1\n2\n3\n");
    std::stringstream es("1 2\n1 2\n");
    expectParseError([&] { (void)readGraphalytics(vs, es, "x.v", "x.e"); },
                     "x.e:2: duplicate edge");
  }
}

TEST(GraphIo, FixtureFilesLoadThroughSniffer) {
  const std::string dir = std::string(DISP_SOURCE_DIR) + "/tests/data/";
  const Graph el = loadAnyGraph(dir + "tiny.el");
  EXPECT_EQ(el.nodeCount(), 16u);
  EXPECT_TRUE(isConnected(el));
  EXPECT_NO_THROW(validateGraph(el));

  // Either half of the .v/.e pair addresses the same graph.
  const Graph viaV = loadAnyGraph(dir + "tiny.v");
  const Graph viaE = loadAnyGraph(dir + "tiny.e");
  EXPECT_EQ(viaV.nodeCount(), 10u);
  EXPECT_EQ(viaV.nodeCount(), viaE.nodeCount());
  EXPECT_EQ(viaV.edgeCount(), viaE.edgeCount());
  EXPECT_TRUE(isConnected(viaV));

  // dpg sniffing: save a generator graph, reload through loadAnyGraph.
  const Graph er = makeGraph("er", 40, 11);
  const std::string path = processTempPath("sniff", ".dpg");
  saveGraph(path, er);
  const Graph back = loadAnyGraph(path);
  std::filesystem::remove(path);
  EXPECT_EQ(back.nodeCount(), er.nodeCount());
  EXPECT_EQ(back.edgeCount(), er.edgeCount());
}

// -------------------------------------------------------------- GraphSpec

TEST(GraphSpec, LegacyFamilyNamesAreAliases) {
  for (const std::string& family : graphFamilyKeys()) {
    const GraphSpec spec = GraphSpec::parse(family);
    EXPECT_EQ(spec.family(), family);
    EXPECT_EQ(spec.toString(), family);
    EXPECT_FALSE(spec.isFile());
    EXPECT_FALSE(spec.sizeBound());  // bare aliases take their size from context
  }
}

TEST(GraphSpec, ExplicitParametersDriveGenerators) {
  const Graph grid = makeGraph("grid:rows=4,cols=5", 0, 1,
                               PortLabeling::InsertionOrder);
  EXPECT_EQ(grid.nodeCount(), 20u);
  EXPECT_EQ(grid.maxDegree(), 4u);

  const Graph er = makeGraph("er:n=64,p=0.2", 0, 3);
  EXPECT_EQ(er.nodeCount(), 64u);
  EXPECT_TRUE(isConnected(er));

  const Graph lolly = makeGraph("lollipop:n=32,clique=8", 0, 1);
  EXPECT_EQ(lolly.nodeCount(), 32u);

  // n= pins the size regardless of the context argument.
  EXPECT_EQ(makeGraph("path:n=9", 50, 1).nodeCount(), 9u);
  EXPECT_TRUE(GraphSpec::parse("grid:rows=4,cols=5").sizeBound());
  EXPECT_TRUE(GraphSpec::parse("er:n=64").sizeBound());
  EXPECT_FALSE(GraphSpec::parse("er:p=0.1").sizeBound());
}

TEST(GraphSpec, ParseRejectsMalformedSpecs) {
  expectParseError([] { (void)GraphSpec::parse("nope"); }, "unknown graph family");
  expectParseError([] { (void)GraphSpec::parse("er:q=1"); }, "no parameter 'q'");
  expectParseError([] { (void)GraphSpec::parse("er:n=abc"); }, "not a number");
  // strtod-accepted forms that are not plain integers must fail at use, not
  // silently truncate ("1e3" -> 1).
  expectParseError([] { (void)makeGraph("er:n=1e3", 0, 1); },
                   "not a 32-bit unsigned integer");
  expectParseError([] { (void)makeGraph("grid:rows=1e1,cols=10", 0, 1); },
                   "not a 32-bit unsigned integer");
  expectParseError([] { (void)GraphSpec::parse("er:n"); }, "not key=value");
  expectParseError([] { (void)GraphSpec::parse("er:n=1,n=2"); }, "duplicate");
  expectParseError([] { (void)GraphSpec::parse("grid:rows=4"); },
                   "must be given together");
  expectParseError([] { (void)GraphSpec::parse("file:"); }, "needs a path");
  expectParseError([] { (void)GraphSpec::parse(""); }, "empty spec");
}

namespace {
/// True iff {u, v} is an edge (port scan; fine for test-sized graphs).
bool adjacent(const Graph& g, NodeId u, NodeId v) {
  for (Port p = 1; p <= g.degree(u); ++p) {
    if (g.neighbor(u, p) == v) return true;
  }
  return false;
}
}  // namespace

TEST(GraphSpec, LollipopRoundTripsAndHasCliquePlusPath) {
  const std::string canon = GraphSpec::parse("lollipop:n=032,clique=8").toString();
  EXPECT_EQ(canon, "lollipop:clique=8,n=32");
  EXPECT_EQ(GraphSpec::parse(canon).toString(), canon);

  const std::uint32_t n = 32, c = 8;
  const Graph g = makeGraph("lollipop:clique=8,n=32", 0, 1);
  EXPECT_EQ(g.nodeCount(), n);
  // m = C(c,2) clique edges + (n - c) path edges.
  EXPECT_EQ(g.edgeCount(), std::uint64_t{c} * (c - 1) / 2 + (n - c));
  EXPECT_TRUE(isConnected(g));
  // Clique nodes are pairwise adjacent; the glue node c-1 also starts the
  // path, so its degree is c, the rest c-1.
  for (NodeId u = 0; u < c; ++u) {
    for (NodeId v = u + 1; v < c; ++v) EXPECT_TRUE(adjacent(g, u, v)) << u << "," << v;
    EXPECT_EQ(g.degree(u), u == c - 1 ? c : c - 1) << u;
  }
  // Path chain c-1 — c — ... — n-1; interior degree 2, tail degree 1.
  for (NodeId i = c; i < n; ++i) {
    EXPECT_TRUE(adjacent(g, i - 1, i)) << i;
    EXPECT_EQ(g.degree(i), i == n - 1 ? 1u : 2u) << i;
  }
}

TEST(GraphSpec, ExpanderRoundTripsAndIsRegularConnected) {
  EXPECT_EQ(GraphSpec::parse("expander").toString(), "expander");
  const std::string canon = GraphSpec::parse("expander:d=06").toString();
  EXPECT_EQ(canon, "expander:d=6");
  EXPECT_EQ(GraphSpec::parse(canon).toString(), canon);
  expectParseError([] { (void)GraphSpec::parse("expander:q=1"); },
                   "no parameter 'q'");

  // Structure invariants: exactly d-regular, simple (CSR validation), and
  // connected via the built-in Hamiltonian shift-1 cycle.
  const Graph g = makeGraph("expander:d=6", 60, 5);
  EXPECT_EQ(g.nodeCount(), 60u);
  EXPECT_EQ(g.edgeCount(), std::uint64_t{60} * 6 / 2);
  for (NodeId v = 0; v < g.nodeCount(); ++v) EXPECT_EQ(g.degree(v), 6u) << v;
  EXPECT_TRUE(isConnected(g));
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    EXPECT_TRUE(adjacent(g, v, (v + 1) % 60)) << v;  // the cycle shift
  }

  // Bare family name: default d = 8, size from context; tiny contexts are
  // padded up to the n >= 2d feasibility floor.
  const Graph dflt = makeGraph("expander", 64, 9);
  EXPECT_EQ(dflt.nodeCount(), 64u);
  EXPECT_EQ(dflt.maxDegree(), 8u);
  EXPECT_EQ(makeGraph("expander", 4, 9).nodeCount(), 16u);

  // Seed-deterministic: the same seed reproduces the same shift set.
  const Graph a = makeGraph("expander:d=6", 40, 7);
  const Graph b = makeGraph("expander:d=6", 40, 7);
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v = u + 1; v < 40; ++v) {
      EXPECT_EQ(adjacent(a, u, v), adjacent(b, u, v)) << u << "," << v;
    }
  }
}

TEST(Generators, ExpanderRejectsInfeasibleParameters) {
  EXPECT_THROW((void)makeExpander(10, 6, 1), std::invalid_argument);  // n < 2d
  EXPECT_THROW((void)makeExpander(20, 5, 1), std::invalid_argument);  // d odd
  EXPECT_THROW((void)makeExpander(20, 2, 1), std::invalid_argument);  // d < 4
}

TEST(GraphSpec, BarbellRoundTripsAndHasTwoCliquesJoinedByAPath) {
  const std::string canon = GraphSpec::parse("barbell:path=04,clique=6").toString();
  EXPECT_EQ(canon, "barbell:clique=6,path=4");
  EXPECT_EQ(GraphSpec::parse(canon).toString(), canon);

  const std::uint32_t c = 6, len = 4;
  const Graph g = makeGraph(canon, 0, 1);
  const std::uint32_t c2 = c + len;  // start of the second clique
  EXPECT_EQ(g.nodeCount(), 2 * c + len);
  // m = 2 C(c,2) + the path's len+1 connecting edges.
  EXPECT_EQ(g.edgeCount(), 2ULL * c * (c - 1) / 2 + len + 1);
  EXPECT_TRUE(isConnected(g));
  for (NodeId u = 0; u < c; ++u) {
    for (NodeId v = u + 1; v < c; ++v) {
      EXPECT_TRUE(adjacent(g, u, v)) << "clique1 " << u << "," << v;
      EXPECT_TRUE(adjacent(g, c2 + u, c2 + v)) << "clique2 " << u << "," << v;
    }
  }
  // Bridge chain: c-1 — c — ... — c+len-1 — c2; every interior bridge node
  // has degree 2 and removing any bridge edge disconnects the cliques.
  EXPECT_TRUE(adjacent(g, c - 1, c));
  for (NodeId i = c; i + 1 < c2; ++i) {
    EXPECT_TRUE(adjacent(g, i, i + 1)) << i;
    EXPECT_EQ(g.degree(i), 2u) << i;
  }
  EXPECT_TRUE(adjacent(g, c2 - 1, c2));
  // Clique anchors carry the one extra bridge port.
  EXPECT_EQ(g.degree(c - 1), c);
  EXPECT_EQ(g.degree(c2), c);
}

TEST(GraphSpec, CanonicalFormSortsAndNormalizes) {
  EXPECT_EQ(GraphSpec::parse("grid:rows=08,cols=4").toString(),
            "grid:cols=4,rows=8");
  EXPECT_EQ(GraphSpec::parse("er:p=0.25,n=64").toString(), "er:n=64,p=0.25");
  EXPECT_EQ(GraphSpec::parse("file:/data/g.e").toString(), "file:/data/g.e");
}

TEST(GraphSpec, InstanceKeyTracksWhatTheSpecConsumes) {
  const GraphSpec unbound = GraphSpec::parse("er");
  EXPECT_NE(unbound.instanceKey(64, 1), unbound.instanceKey(128, 1));
  EXPECT_NE(unbound.instanceKey(64, 1), unbound.instanceKey(64, 2));
  const GraphSpec pinned = GraphSpec::parse("grid:rows=8,cols=8");
  EXPECT_EQ(pinned.instanceKey(64, 1), pinned.instanceKey(128, 1));  // no context n
  EXPECT_NE(pinned.instanceKey(64, 1), pinned.instanceKey(64, 2));   // labeling seed
  const GraphSpec file = GraphSpec::parse("file:x.el");
  EXPECT_EQ(file.instanceKey(64, 1), file.instanceKey(128, 2));  // fully pinned
}

// parse ↔ print round-trip fuzz over the whole registry: random parameter
// subsets in random order must reach a canonical fixpoint.
TEST(GraphSpec, RoundTripFuzz) {
  Rng rng(20260729);
  for (int iter = 0; iter < 400; ++iter) {
    const auto& defs = graphFamilyRegistry();
    const GraphFamilyDef& def = defs[rng.below(defs.size())];
    std::vector<std::string> parts;
    const bool useSizeGroup = !def.sizeParams.empty() && rng.chance(0.5);
    for (const std::string& param : def.params) {
      const bool isSize = std::find(def.sizeParams.begin(), def.sizeParams.end(),
                                    param) != def.sizeParams.end();
      if (isSize ? useSizeGroup : rng.chance(0.5)) {
        const std::string value =
            param == "p" ? "0.25" : std::to_string(1 + rng.below(512));
        parts.push_back(param + "=" + value);
      }
    }
    if (rng.chance(0.5)) parts.push_back("n=" + std::to_string(8 + rng.below(1024)));
    rng.shuffle(parts);
    std::string text = def.key;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      text += (i == 0 ? ":" : ",") + parts[i];
    }
    const std::string canon = GraphSpec::parse(text).toString();
    EXPECT_EQ(GraphSpec::parse(canon).toString(), canon) << "from: " << text;
    EXPECT_EQ(GraphSpec::parse(canon).family(), def.key);
  }
}

TEST(GraphSpec, RegisterGraphFamilyExtensionPoint) {
  static bool registered = false;
  if (!registered) {
    registered = true;
    registerGraphFamily(
        {"doublestar",
         "two stars joined at their hubs (test-only)",
         {"left"},
         {},
         [](const GraphSpec& s, std::uint32_t n, std::uint64_t) {
           const std::uint32_t left = s.u32("left", n / 2);
           GraphBuilder b(n);
           for (std::uint32_t i = 2; i < n; ++i) b.addEdge(i < left ? 0 : 1, i);
           b.addEdge(0, 1);
           return b;
         }});
  }
  const Graph g = makeGraph("doublestar:left=6", 12, 5);
  EXPECT_EQ(g.nodeCount(), 12u);
  EXPECT_TRUE(isConnected(g));
  // Duplicate / reserved keys are rejected.
  EXPECT_THROW(registerGraphFamily({"doublestar", "", {}, {}, nullptr}),
               std::invalid_argument);
  EXPECT_THROW(registerGraphFamily(
                   {"file", "", {}, {},
                    [](const GraphSpec&, std::uint32_t n, std::uint64_t) {
                      return GraphBuilder(n);
                    }}),
               std::invalid_argument);
}

// ------------------------------------------------------------ algorithms

TEST(GraphAlgos, BfsDistancesOnPath) {
  const Graph g = makePath(6).build();
  const auto d = bfsDistances(g, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
}

/// March routing as the protocols historically computed it: a full BFS from
/// `there`, then the lowest port of `here` leading strictly closer.
Port referenceStep(const Graph& g, NodeId here, NodeId there) {
  const auto dist = bfsDistances(g, there);
  if (here == there || dist[here] == kUnreachable) return kNoPort;
  for (Port p = 1; p <= g.degree(here); ++p) {
    if (dist[g.neighbor(here, p)] < dist[here]) return p;
  }
  return kNoPort;
}

void expectScratchClean(const BfsScratch& scratch) {
  EXPECT_TRUE(scratch.queue.empty());
  EXPECT_TRUE(std::all_of(scratch.dist.begin(), scratch.dist.end(),
                          [](std::uint32_t d) { return d == kUnreachable; }));
}

TEST(GraphAlgos, StepTowardMatchesFullBfsPortChoice) {
  // One scratch across every graph and target: a stale label left behind
  // by an early exit would steer a later call off the reference port.
  BfsScratch scratch;
  Rng rng(0x57e9ULL);
  for (const char* family : {"er", "grid", "path", "randtree"}) {
    const Graph g = makeGraph(family, 96, 13);
    const auto n = g.nodeCount();
    for (int i = 0; i < 300; ++i) {
      const auto here = static_cast<NodeId>(rng.below(n));
      const auto there = static_cast<NodeId>(rng.below(n));
      const Port want = referenceStep(g, here, there);
      ASSERT_EQ(stepToward(g, here, there, scratch), want)
          << family << " " << here << " -> " << there;
      ASSERT_EQ(stepToward(g, here, there, scratch), want) << "repeat call";
      if (here != there) {
        EXPECT_NE(want, kNoPort);  // connected families
      }
    }
    EXPECT_EQ(stepToward(g, 5, 5, scratch), kNoPort);
    expectScratchClean(scratch);
  }

  // Two components: a path 0-1-2-3-4 and a cycle 5..9.
  GraphBuilder b(10);
  for (NodeId v = 0; v < 4; ++v) b.addEdge(v, v + 1);
  for (NodeId v = 5; v < 10; ++v) b.addEdge(v, v == 9 ? 5 : v + 1);
  const Graph split = b.build(PortLabeling::RandomPermutation, 3);
  for (NodeId here = 0; here < 10; ++here) {
    for (NodeId there = 0; there < 10; ++there) {
      const Port got = stepToward(split, here, there, scratch);
      EXPECT_EQ(got, referenceStep(split, here, there)) << here << " -> " << there;
      if ((here < 5) != (there < 5)) {
        EXPECT_EQ(got, kNoPort) << "unreachable";
      }
    }
  }
  expectScratchClean(scratch);
}

TEST(GraphAlgos, DiameterKnownValues) {
  EXPECT_EQ(diameter(makePath(10).build()), 9u);
  EXPECT_EQ(diameter(makeCycle(10).build()), 5u);
  EXPECT_EQ(diameter(makeStar(10).build()), 2u);
  EXPECT_EQ(diameter(makeComplete(10).build()), 1u);
  EXPECT_EQ(diameter(makeHypercube(5).build()), 5u);
}

TEST(GraphAlgos, PeripheralNodeOnPathIsEndpoint) {
  const NodeId p = peripheralNode(makePath(9).build());
  EXPECT_TRUE(p == 0 || p == 8);
}

TEST(GraphAlgos, PortOrderDfsSpans) {
  const Graph g = makeGraph("er", 40, 3);
  const auto parent = portOrderDfsTree(g, 0);
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    EXPECT_NE(parent[v], kInvalidNode) << "unreached node " << v;
  }
  EXPECT_EQ(parent[0], 0u);
}

}  // namespace
}  // namespace disp
