// Tests for the graph substrate: CSR integrity, generators, the parsed
// GraphSpec grammar + family registry, port labelings (including the §8.2
// constrained labeling), file I/O (edge-list / Graphalytics, with
// path:line error context), algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <sstream>

#include "temp_path.hpp"
#include "util/rng.hpp"

#include "graph/generators.hpp"
#include "graph/spec.hpp"
#include "graph/graph.hpp"
#include "graph/graph_algos.hpp"
#include "graph/graph_io.hpp"
#include "graph/labeling.hpp"

namespace disp {
namespace {

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_THROW(b.addEdge(1, 1), std::invalid_argument);
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder b(2);
  EXPECT_THROW(b.addEdge(0, 5), std::invalid_argument);
}

// Asserts that `fn` throws std::invalid_argument whose message contains
// `needle` (loader errors name source:line, so a needle can pin that).
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

TEST(GraphBuilder, RejectsDuplicateEdge) {
  // A star with one spoke repeated (reversed), under every labeling.
  GraphBuilder b(5);
  b.addEdge(0, 1).addEdge(0, 2).addEdge(0, 3).addEdge(0, 4).addEdge(2, 0);
  for (const PortLabeling l : {PortLabeling::InsertionOrder,
                               PortLabeling::RandomPermutation,
                               PortLabeling::Constrained}) {
    expectParseError([&] { (void)b.build(l, 3); },
                     "duplicate edge (graph is simple)");
  }
}

// FNV-1a over (n, m, and per node its degree, then every port's neighbor
// and reverse port), read through the public accessors: the CSR offsets,
// targets and reverse ports, independent of how they are stored.
std::uint64_t csrHash(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(g.nodeCount());
  mix(g.edgeCount());
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    mix(g.degree(v));
    for (Port p = 1; p <= g.degree(v); ++p) {
      mix(g.neighbor(v, p));
      mix(g.reversePort(v, p));
    }
  }
  return h;
}

// Hash of every graph below under {InsertionOrder, RandomPermutation,
// Constrained} x seeds {1, 2}; kNoLabeling marks a graph that admits no
// Constrained labeling (the build must throw).  A different hash means a
// different generated workload: every recorded fact rests on these graphs.
constexpr std::uint64_t kNoLabeling = 0;
struct GoldenFamily {
  const char* spec;
  std::uint32_t n;
  std::uint64_t hash[6];
};
constexpr GoldenFamily kGoldenFamilies[] = {
    {"path", 50, {0xd17519e8354cd7d7ULL, 0xd17519e8354cd7d7ULL, 0x1135920f4511a9d7ULL,
                  0x44bc07c452a32bd7ULL, 0xaa4bd0b262c8d617ULL, 0xa2b383709f5b5cd7ULL}},
    {"path", 700, {0x3567d5b06dbde03fULL, 0x3567d5b06dbde03fULL, 0x2f6fd32ce0d539c3ULL,
                   0xc7585b73ea32e7afULL, 0x46d9dcce3a593e1fULL, 0x6dd371a0858dbdafULL}},
    {"cycle", 50, {0x32509d4a17b25705ULL, 0x32509d4a17b25705ULL, 0x54063a3e3abefa45ULL,
                   0xe68171180671e045ULL, 0x7d177b1c7672a7c5ULL, 0x489e044f81d93645ULL}},
    {"cycle", 700, {0x0778feffc4811361ULL, 0x0778feffc4811361ULL, 0x95131cd6501459adULL,
                    0x4107a3dbffc53239ULL, 0x1851b993ef918009ULL, 0xa19dd3859ab51ef5ULL}},
    {"star", 50, {0x73be4adad1c94297ULL, 0x73be4adad1c94297ULL, 0x60af5e66b32d1ed7ULL,
                  0xdde3c671414f4e97ULL, 0x7241d473a6de2997ULL, 0x0a414f2247d6d3b7ULL}},
    {"star", 700, {0x94283f5555de5fcfULL, 0x94283f5555de5fcfULL, 0x2994acb0c012629fULL,
                   0xd0bfd2bc70699e03ULL, 0x74ed85b2861e7edfULL, 0xb53eb7c64c08e097ULL}},
    {"wheel", 50, {0xb0b4a16ba28ad1a7ULL, 0xb0b4a16ba28ad1a7ULL, 0xc9f9a3b4a4dc7fe7ULL,
                   0x5ae43b9da3ae4227ULL, kNoLabeling, kNoLabeling}},
    {"wheel", 700, {0x8d7ec79c98647408ULL, 0x8d7ec79c98647408ULL, 0xc84d4db66f6ca268ULL,
                    0xa789341bc0f6ae70ULL, kNoLabeling, kNoLabeling}},
    {"complete", 24, {0xbf22bdb60050528eULL, 0xbf22bdb60050528eULL, 0x0c15714e6a25f7ceULL,
                      0xed7e8f5798ec94eeULL, 0x6df23dea5d39a88eULL, 0x92ad5b45c41c6cceULL}},
    {"complete", 60, {0x5428768da44b62d5ULL, 0x5428768da44b62d5ULL, 0x862dd02f3d3916d5ULL,
                      0xd642e4160b7a6195ULL, 0x2b4219c6d893adf5ULL, 0x60e82f56d7d69a95ULL}},
    {"bipartite", 30, {0x3c5ce949e5c340bbULL, 0x3c5ce949e5c340bbULL, 0x6abd02046814661bULL,
                       0xc94276fb003941dbULL, 0xe6b6d9bd641c9c7bULL, 0xdfe3b9b8d75dd41bULL}},
    {"bipartite", 90, {0x17a7206aa2a58366ULL, 0x17a7206aa2a58366ULL, 0x526691bed7a1eec6ULL,
                       0x7073e3db3fcde066ULL, 0x83e76a36fc4e8786ULL, 0xec02f796d92a90c6ULL}},
    {"bintree", 63, {0x119854460035d07aULL, 0x119854460035d07aULL, 0xadd8f4157f4f6f1aULL,
                     0xc430a8d6b46c62baULL, 0xe87c2b55f0329a3aULL, 0xc9deb95506fda97aULL}},
    {"bintree", 1000, {0x600ced9585033cfaULL, 0x600ced9585033cfaULL, 0x436831cc0a0c6f76ULL,
                       0xf441ae44e5a3dac6ULL, 0x5ba3dd0e7ddcc7c2ULL, 0x1c022b32bbde521eULL}},
    {"randtree", 80, {0x669c88393daebfbaULL, 0x63f326b315d37e2fULL, 0xf789b57963b93e3aULL,
                      0xf3cb76c43343af8fULL, 0xde32bb2f3edc3a3aULL, 0xf02a9af1f41254cfULL}},
    {"randtree", 1000, {0x68b91755c9233746ULL, 0x7e6821ec370d1f8dULL, 0x90f418eab6202006ULL,
                        0x9dba7e063173ca0dULL, 0x121269d01cea6cc2ULL, 0xb42155d52513ec45ULL}},
    {"caterpillar", 60, {0x54d5f231f80ae328ULL, 0x54d5f231f80ae328ULL, 0x84e139aee7b6dce8ULL,
                         0xcf80cbafe5889048ULL, 0xba414a7b7e9beae8ULL, 0x37e5583a65b0a908ULL}},
    {"caterpillar", 800, {0xa152117f7eafe531ULL, 0xa152117f7eafe531ULL, 0xeff5cc75043a6c3dULL,
                          0xdc38c9144298822dULL, 0x624fd2cbcc1384b1ULL, 0x9e103ce54f3807f5ULL}},
    {"grid", 49, {0x5d7f316cd44d8c40ULL, 0x5d7f316cd44d8c40ULL, 0xadbb18b4e0888500ULL,
                  0x8c9625cfa0ca22c0ULL, kNoLabeling, kNoLabeling}},
    {"grid", 900, {0x19cad86c5f2710b7ULL, 0x19cad86c5f2710b7ULL, 0xda317b2a8ef91e0bULL,
                   0x9db5684227cdcb0bULL, kNoLabeling, kNoLabeling}},
    {"hypercube", 32, {0x724cd5244443f195ULL, 0x724cd5244443f195ULL, 0xdc72771e3d251cb5ULL,
                       0xc5e7059c30d480b5ULL, 0xc1af5ab0159681f5ULL, 0xde7475e65e5cf335ULL}},
    {"hypercube", 1024, {0x4a4c1f719ee1f725ULL, 0x4a4c1f719ee1f725ULL, 0xdfdeacd50b0b5eedULL,
                         0x400bfe540aae6cd5ULL, 0xa5acd482229a276dULL, 0x5503475ac05b48f9ULL}},
    {"er", 100, {0xe90fe36e7cb938c6ULL, 0xff4d0f7e44821620ULL, 0x6671782391ea9fc6ULL,
                 0x5bfcfda4b874d5e0ULL, 0xc057df015c341d46ULL, 0x1bcf87397c4c0e80ULL}},
    {"er", 800, {0x0cd47b6dec42efdfULL, 0xe880387922bb2565ULL, 0xe03d40d2ab55087bULL,
                 0x584c85608546d05dULL, 0xfb5bf31420fe0387ULL, 0x185e3f672f049a15ULL}},
    {"ba", 100, {0x2fdd1419d4676094ULL, 0xa11841e792845ed2ULL, 0x0e49e9d80ddba9f4ULL,
                 0x2036245744e300f2ULL, 0xe425992cdfc97794ULL, 0x78de41ec57dfe2f2ULL}},
    {"ba", 1000, {0x5c77d36e546c8797ULL, 0x39f342089f69947cULL, 0xbd03c7ee1b0f07ebULL,
                  0xc0775346cbb32b28ULL, 0xf0bf8be68db5acf3ULL, 0xa9909f2b6d261edcULL}},
    {"rmat", 128, {0x10f21d80d9890658ULL, 0xb496639a58cf3985ULL, 0xd2d1b52132062cb8ULL,
                   0xc05802c051add785ULL, 0x830b730e2e0d77d8ULL, 0x0bbf152f800048a5ULL}},
    {"rmat", 1024, {0xc1564b789a1e1b40ULL, 0x0baf9f717ca935c0ULL, 0x4eb9cf37c3189ce8ULL,
                    0x153eae03c0d62a44ULL, 0x74daab7a4c828e48ULL, 0x34b94dd50152f01cULL}},
    {"regular", 60, {0x4c242909d0a993e1ULL, 0xd043291fc5e99341ULL, 0x2239f765c9d6ddc1ULL,
                     0x8cea36a0401247e1ULL, 0xe1d41c8cf0e665e1ULL, 0xdaec49182d800b41ULL}},
    {"regular", 600, {0xcc54b69cab8bbf6bULL, 0xcd6fe24c80de0193ULL, 0xdabf05e3448072d7ULL,
                      0x8cb47633853f50f7ULL, 0xb9a5f4da01d18233ULL, 0x7f964cc75400de9fULL}},
    {"lollipop", 40, {0xff0914a1618ff539ULL, 0xff0914a1618ff539ULL, 0x143efda2113805d9ULL,
                      0xf74b412f56c49879ULL, 0x8f0ce6fc6bb254d9ULL, 0x96f9a678cfbf35f9ULL}},
    {"lollipop", 300, {0x683672925f565267ULL, 0x683672925f565267ULL, 0x041285830cae33b3ULL,
                       0x84aa09f1011493bbULL, 0xc925b9d713605507ULL, 0xf4c7e4ea91cc1c13ULL}},
    {"barbell", 36, {0x8ffbda4c4f8f86e3ULL, 0x8ffbda4c4f8f86e3ULL, 0x0e13f383642d23e3ULL,
                     0x25ffadf678b3e703ULL, 0x072b51ed4e47b6a3ULL, 0xf636252c1db30cc3ULL}},
    {"barbell", 300, {0xef37da72e2ccf831ULL, 0xef37da72e2ccf831ULL, 0x47a36fa263aa7341ULL,
                      0xc40fe3e0ceb6e165ULL, 0x4520e3cc2868c29dULL, 0x010b132cfbbb6aedULL}},
    {"expander", 64, {0xe15e722f6441b28aULL, 0x39056b6751c39b0aULL, 0x160a19df2cb244eaULL,
                      0xf626afb65de224caULL, 0xb120285a8cf7904aULL, 0x0e4c5d4e6cd0f28aULL}},
    {"expander", 1000, {0x525b217307d3def1ULL, 0xd22281bf6dff4dbdULL, 0x5fa007a162028af5ULL,
                        0xaa92d44e7b178cfdULL, 0x07a856e34f77de8dULL, 0x524433c3338e745dULL}},
};

// Random labeling only: the web-scale sampler, two sparse specs whose edge
// lists leave many components for connectComponents to join, and a small
// `er` at a seed the family rows above do not use.
struct GoldenSpec {
  const char* spec;
  std::uint32_t n;
  std::uint64_t seed;
  std::uint64_t hash;
};
constexpr GoldenSpec kGoldenSpecs[] = {
    {"er:fast=1", 16384, 7, 0x6a252d01f8ad2642ULL},
    {"er:fast=1,p=0.0005", 4096, 3, 0xc105c815eac7a8ddULL},
    {"rmat:ef=2", 2048, 5, 0x456ff08c4a3af1b7ULL},
    {"er", 60, 5, 0xc019c0c5fa865e1dULL},
};

TEST(GraphBuild, GoldenCsrHashes) {
  const PortLabeling labelings[] = {PortLabeling::InsertionOrder,
                                    PortLabeling::RandomPermutation,
                                    PortLabeling::Constrained};
  for (const GoldenFamily& f : kGoldenFamilies) {
    for (int i = 0; i < 6; ++i) {
      const PortLabeling l = labelings[i / 2];
      const std::uint64_t seed = 1 + i % 2;
      SCOPED_TRACE(std::string(f.spec) + " n=" + std::to_string(f.n) +
                   " labeling=" + std::to_string(i / 2) +
                   " seed=" + std::to_string(seed));
      if (f.hash[i] == kNoLabeling) {
        EXPECT_THROW((void)makeGraph(f.spec, f.n, seed, l), std::invalid_argument);
      } else {
        EXPECT_EQ(csrHash(makeGraph(f.spec, f.n, seed, l)), f.hash[i]);
      }
    }
  }
  for (const GoldenSpec& s : kGoldenSpecs) {
    SCOPED_TRACE(s.spec);
    EXPECT_EQ(csrHash(makeGraph(s.spec, s.n, s.seed)), s.hash);
  }
}

// A const& build copies the edge list and leaves the builder whole; a
// consuming build frees the list after the rows pass (Constrained keeps it
// for its matching).  Both must give the golden graph, and the consuming
// one must still reject what the copying one rejects.
TEST(GraphBuild, CopyingAndConsumingBuildsAgree) {
  const PortLabeling labelings[] = {PortLabeling::InsertionOrder,
                                    PortLabeling::RandomPermutation,
                                    PortLabeling::Constrained};
  const std::set<std::pair<std::string, std::uint32_t>> picked{
      {"er", 800}, {"ba", 1000}, {"lollipop", 300}, {"wheel", 50}};
  for (const GoldenFamily& f : kGoldenFamilies) {
    if (picked.count({f.spec, f.n}) == 0) continue;
    const GraphSpec spec = GraphSpec::parse(f.spec);
    for (int l = 0; l < 3; ++l) {
      SCOPED_TRACE(std::string(f.spec) + " labeling=" + std::to_string(l));
      const std::uint64_t seed = 1;
      GraphBuilder b = graphFamilyDef(spec.family()).make(spec, f.n, seed);
      const std::size_t edgeCount = b.edges().size();
      const std::uint64_t want = f.hash[2 * l];
      if (want == kNoLabeling) {
        EXPECT_THROW((void)b.build(labelings[l], seed), std::invalid_argument);
        EXPECT_THROW((void)std::move(b).build(labelings[l], seed), std::invalid_argument);
        continue;
      }
      EXPECT_EQ(csrHash(b.build(labelings[l], seed)), want);
      EXPECT_EQ(csrHash(b.build(labelings[l], seed)), want);
      EXPECT_EQ(b.edges().size(), edgeCount);
      EXPECT_EQ(csrHash(std::move(b).build(labelings[l], seed)), want);
    }
  }

  // The consuming build checks for duplicates after freeing the list.
  for (const PortLabeling l : labelings) {
    GraphBuilder dup(5);
    dup.addEdge(0, 1).addEdge(0, 2).addEdge(0, 3).addEdge(0, 4).addEdge(2, 0);
    expectParseError([&] { (void)std::move(dup).build(l, 3); },
                     "duplicate edge (graph is simple)");
  }
}

TEST(GraphBuild, ValidateRejectsParallelEdges) {
  // TwoPassBuilder leaves duplicate rejection to its callers, so it can
  // hand validateGraph a multigraph.
  const std::vector<Edge> multi{{0, 1}, {1, 2}, {1, 0}};
  TwoPassBuilder tp(3);
  for (const Edge& e : multi) tp.countEdge(e.u, e.v);
  tp.beginEdges();
  for (const Edge& e : multi) tp.addEdge(e.u, e.v);
  const Graph g = tp.finish();
  try {
    validateGraph(g);
    FAIL() << "validateGraph accepted a parallel edge";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("parallel edge"), std::string::npos)
        << "message was: " << e.what();
  }
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

// neighbors(v) is v's row in port order: its size is the degree, and both
// iteration and indexing agree with neighbor(v, p).
TEST(Graph, NeighborViewFollowsPortOrder) {
  const Graph g = makeGraph("er", 60, 9, PortLabeling::RandomPermutation);
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    const Graph::NeighborView row = g.neighbors(v);
    ASSERT_EQ(row.size(), g.degree(v)) << "node " << v;
    Port p = 1;
    for (auto it = row.begin(); it != row.end(); it++, ++p) {
      EXPECT_EQ(*it, g.neighbor(v, p)) << "node " << v << " port " << p;
      EXPECT_EQ(row[p - 1], g.neighbor(v, p)) << "node " << v << " port " << p;
    }
    EXPECT_EQ(p, g.degree(v) + 1) << "node " << v;
  }
}

// Each edge of K6 has exactly one slot at each end, and the two slots name
// each other through their reverse ports.
TEST(Graph, EveryEdgeHasOneSlotAtEachEnd) {
  const Graph g = makeComplete(6).build(PortLabeling::RandomPermutation, 4);
  EXPECT_EQ(g.edgeCount(), 15u);
  std::map<std::pair<NodeId, NodeId>, int> slots;
  for (NodeId v = 0; v < g.nodeCount(); ++v) {
    for (Port p = 1; p <= g.degree(v); ++p) {
      const NodeId u = g.neighbor(v, p);
      const Port back = g.reversePort(v, p);
      ++slots[{std::min(u, v), std::max(u, v)}];
      EXPECT_EQ(g.neighbor(u, back), v) << v << ":" << p;
      EXPECT_EQ(g.reversePort(u, back), p) << v << ":" << p;
    }
  }
  EXPECT_EQ(slots.size(), 15u);
  for (const auto& [edge, count] : slots) {
    EXPECT_EQ(count, 2) << edge.first << "-" << edge.second;
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

// label() places the matching's port pairs as given, so constrainedPorts
// must number every row 1..degree, and each pair must land on its own edge.
TEST(Labeling, ConstrainedPortsNumberEveryRowAndLandOnTheirEdges) {
  const std::uint64_t seed = 11;
  for (const GraphBuilder& b : {makeComplete(5), makeStar(40), makeRandomTree(60, 3),
                                makeLollipop(30, 6)}) {
    SCOPED_TRACE("n=" + std::to_string(b.nodeCount()));
    const std::vector<Edge>& edges = b.edges();
    const std::vector<std::pair<Port, Port>> pairs =
        constrainedPorts(b.nodeCount(), edges, seed);
    ASSERT_EQ(pairs.size(), edges.size());
    std::vector<std::vector<Port>> rows(b.nodeCount());
    for (std::size_t i = 0; i < edges.size(); ++i) {
      rows[edges[i].u].push_back(pairs[i].first);
      rows[edges[i].v].push_back(pairs[i].second);
    }
    for (NodeId v = 0; v < b.nodeCount(); ++v) {
      std::vector<Port> expected(rows[v].size());
      std::iota(expected.begin(), expected.end(), 1U);
      std::sort(rows[v].begin(), rows[v].end());
      EXPECT_EQ(rows[v], expected) << "node " << v;
    }
    const Graph g = b.build(PortLabeling::Constrained, seed);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const auto [pu, pv] = pairs[i];
      EXPECT_EQ(g.neighbor(edges[i].u, pu), edges[i].v) << "edge " << i;
      EXPECT_EQ(g.reversePort(edges[i].u, pu), pv) << "edge " << i;
    }
  }
}

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
}

TEST(GraphIo, LoadAnyGraphNamesPathOnMissingFile) {
  expectParseError([] { (void)loadAnyGraph("/nonexistent/g.el"); },
                   "cannot open file for reading: /nonexistent/g.el");
  // Either half of a pair opens the vertex file first.
  expectParseError([] { (void)loadAnyGraph("/nonexistent/g.e"); },
                   "cannot open file for reading: /nonexistent/g.v");
  expectParseError([] { (void)makeGraph("file:/nonexistent/g.el", 0, 1); },
                   "/nonexistent/g.el");
}

// Through the file: entry point a parse error names the file and the line.
TEST(GraphIo, LoadAnyGraphErrorsNameFileAndLine) {
  const std::string el = processTempPath("garbage", ".el");
  std::ofstream(el) << "0 1\nnot a graph\n";
  expectParseError([&] { (void)loadAnyGraph(el); }, el + ":2");

  const std::string base = processTempPath("garbage_pair");
  std::ofstream(base + ".v") << "1\n2\n3\n";
  std::ofstream(base + ".e") << "1 2\n2 9\n";
  expectParseError([&] { (void)loadAnyGraph(base + ".v"); },
                   base + ".e:2: unknown vertex id '9'");
  for (const std::string& path : {el, base + ".v", base + ".e"}) {
    std::filesystem::remove(path);
  }
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

// A file: spec loads the loader's deterministic ports whatever context
// size, seed and labeling it is given, so a file needs no port archive.
TEST(GraphSpec, FileSpecIgnoresSizeSeedAndLabeling) {
  const std::string path = std::string(DISP_SOURCE_DIR) + "/tests/data/tiny.el";
  const std::uint64_t loaded = csrHash(loadAnyGraph(path));
  for (const PortLabeling l : {PortLabeling::InsertionOrder,
                               PortLabeling::RandomPermutation,
                               PortLabeling::Constrained}) {
    EXPECT_EQ(csrHash(makeGraph("file:" + path, 99, 5, l)), loaded);
    EXPECT_EQ(csrHash(GraphSpec::parse("file:" + path).instantiate(7, 123, l)), loaded);
  }
}

// The family table is one constant array: every call returns the same
// rows, keys are unique, `file` (a parse special form) has no row, and a
// size group names only parameters its family accepts.
TEST(GraphSpec, FamilyTableIsConstantWithUniqueKeys) {
  const auto defs = graphFamilyRegistry();
  EXPECT_EQ(defs.data(), graphFamilyRegistry().data());
  EXPECT_EQ(graphFamilyKeys().size(), defs.size());
  std::set<std::string> keys;
  for (const GraphFamilyDef& def : defs) {
    EXPECT_TRUE(keys.insert(def.key).second) << "duplicate family " << def.key;
    EXPECT_NE(def.make, nullptr) << def.key;
    EXPECT_EQ(findGraphFamily(def.key), &def) << def.key;
    for (const std::string& size : def.sizeParams) {
      EXPECT_NE(std::find(def.params.begin(), def.params.end(), size), def.params.end())
          << def.key << " size parameter " << size;
    }
  }
  EXPECT_EQ(findGraphFamily("file"), nullptr);
  expectParseError([] { (void)graphFamilyDef("doublestar"); },
                   "unknown graph family: doublestar");
}

// parse ↔ print round-trip fuzz over the whole registry: random parameter
// subsets in random order must reach a canonical fixpoint.
TEST(GraphSpec, RoundTripFuzz) {
  Rng rng(20260729);
  for (int iter = 0; iter < 400; ++iter) {
    const auto defs = graphFamilyRegistry();
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
