// Tests for Boruvka-over-sketches connectivity, checked against exact
// references on structured and random graphs.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/matrix_checker.h"
#include "stream/stream_file.h"
#include "core/connectivity.h"
#include "core/graph_snapshot.h"
#include "dsu/dsu.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/stream_types.h"
#include "util/random.h"

namespace gz {
namespace {

// Builds per-node sketches directly from an edge list (no buffering).
std::vector<NodeSketch> SketchGraph(uint64_t num_nodes, uint64_t seed,
                                    const EdgeList& edges) {
  NodeSketchParams p;
  p.num_nodes = num_nodes;
  p.seed = seed;
  std::vector<NodeSketch> sketches;
  sketches.reserve(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) sketches.emplace_back(p);
  for (const Edge& e : edges) {
    const uint64_t idx = EdgeToIndex(e, num_nodes);
    sketches[e.u].Update(idx);
    sketches[e.v].Update(idx);
  }
  return sketches;
}

// Verifies a claimed spanning forest against the true edge set and the
// true partition: forest edges must be real, acyclic, and produce the
// same partition.
void CheckForest(const ConnectivityResult& result, uint64_t num_nodes,
                 const EdgeList& edges) {
  std::set<std::pair<NodeId, NodeId>> edge_set;
  for (const Edge& e : edges) edge_set.insert({e.u, e.v});

  Dsu truth(num_nodes);
  for (const Edge& e : edges) truth.Union(e.u, e.v);

  Dsu forest_dsu(num_nodes);
  for (const Edge& e : result.spanning_forest) {
    EXPECT_TRUE(edge_set.count({e.u, e.v}) > 0)
        << "forest contains non-edge " << e.u << "-" << e.v;
    EXPECT_TRUE(forest_dsu.Union(e.u, e.v)) << "forest has a cycle";
  }
  EXPECT_EQ(result.num_components, truth.num_sets());
  // Partitions must match exactly.
  for (uint64_t i = 0; i < num_nodes; ++i) {
    for (uint64_t j = i + 1; j < num_nodes; ++j) {
      EXPECT_EQ(result.component_of[i] == result.component_of[j],
                truth.Find(i) == truth.Find(j))
          << i << " vs " << j;
    }
  }
}

TEST(ConnectivityTest, EmptyGraphAllIsolated) {
  auto sketches = SketchGraph(8, 1, {});
  const ConnectivityResult r = BoruvkaConnectivity(&sketches);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 8u);
  EXPECT_TRUE(r.spanning_forest.empty());
}

TEST(ConnectivityTest, SingleEdge) {
  auto sketches = SketchGraph(4, 2, {Edge(1, 2)});
  const ConnectivityResult r = BoruvkaConnectivity(&sketches);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 3u);
  ASSERT_EQ(r.spanning_forest.size(), 1u);
  EXPECT_EQ(r.spanning_forest[0], Edge(1, 2));
}

TEST(ConnectivityTest, PathGraph) {
  EdgeList edges;
  const uint64_t n = 32;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  auto sketches = SketchGraph(n, 3, edges);
  const ConnectivityResult r = BoruvkaConnectivity(&sketches);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.spanning_forest.size(), n - 1);
  CheckForest(r, n, edges);
}

TEST(ConnectivityTest, StarGraph) {
  EdgeList edges;
  const uint64_t n = 64;
  for (NodeId i = 1; i < n; ++i) edges.emplace_back(0, i);
  auto sketches = SketchGraph(n, 4, edges);
  const ConnectivityResult r = BoruvkaConnectivity(&sketches);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  CheckForest(r, n, edges);
}

TEST(ConnectivityTest, GiantStarFoldIsBitwiseIdenticalForAnyThreadCount) {
  // A star is the worst case the tree-reduction fold exists for: after
  // round one EVERYTHING merges into a single component, so the whole
  // per-round XOR fold lands in one group. The pairwise reduction must
  // spread that group over the pool AND stay bitwise-invisible: the
  // result and the post-run scratch sketches (the folded bytes
  // themselves) must be identical for every thread count.
  EdgeList edges;
  const uint64_t n = 4096;  // Above the pool-spawn floor.
  for (NodeId i = 1; i < n; ++i) edges.emplace_back(0, i);

  auto baseline = SketchGraph(n, 6, edges);
  const ConnectivityResult want =
      BoruvkaConnectivity(&baseline, 0, -1, /*num_threads=*/1);
  EXPECT_FALSE(want.failed);
  EXPECT_EQ(want.num_components, 1u);
  CheckForest(want, n, edges);

  for (const int threads : {2, 4, 8}) {
    auto sketches = SketchGraph(n, 6, edges);
    const ConnectivityResult got =
        BoruvkaConnectivity(&sketches, 0, -1, threads);
    EXPECT_EQ(got.failed, want.failed) << threads << " threads";
    EXPECT_EQ(got.num_components, want.num_components);
    EXPECT_EQ(got.rounds_used, want.rounds_used);
    EXPECT_EQ(got.spanning_forest, want.spanning_forest)
        << threads << " threads";
    EXPECT_EQ(got.component_of, want.component_of);
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(sketches[i] == baseline[i])
          << "sketch " << i << " diverged at " << threads << " threads";
    }
  }
}

TEST(ConnectivityTest, CompleteGraph) {
  EdgeList edges;
  const uint64_t n = 24;
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  auto sketches = SketchGraph(n, 5, edges);
  const ConnectivityResult r = BoruvkaConnectivity(&sketches);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 1u);
  CheckForest(r, n, edges);
}

TEST(ConnectivityTest, TwoCliquesStayApart) {
  EdgeList edges;
  const uint64_t n = 20;
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v = u + 1; v < 10; ++v) edges.emplace_back(u, v);
  }
  for (NodeId u = 10; u < 20; ++u) {
    for (NodeId v = u + 1; v < 20; ++v) edges.emplace_back(u, v);
  }
  auto sketches = SketchGraph(n, 6, edges);
  const ConnectivityResult r = BoruvkaConnectivity(&sketches);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 2u);
  CheckForest(r, n, edges);
}

TEST(ConnectivityTest, ComponentsFromLabelsGroups) {
  std::vector<NodeId> labels = {0, 0, 2, 2, 4};
  const auto components = ComponentsFromLabels(labels);
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0], (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(components[1], (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(components[2], (std::vector<NodeId>{4}));
}

// Property sweep: random graphs across densities and seeds, verified
// against Kruskal on an exact adjacency matrix.
class ConnectivityRandomTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, uint64_t>> {
};

TEST_P(ConnectivityRandomTest, MatchesKruskalReference) {
  const auto [num_nodes, density, seed] = GetParam();
  ErdosRenyiParams ep;
  ep.num_nodes = num_nodes;
  ep.p = density;
  ep.seed = seed;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();

  auto sketches = SketchGraph(num_nodes, seed * 101 + 7, edges);
  const ConnectivityResult r = BoruvkaConnectivity(&sketches);
  ASSERT_FALSE(r.failed);
  CheckForest(r, num_nodes, edges);

  // Cross-check against the matrix checker's Kruskal.
  AdjacencyMatrixChecker checker(num_nodes);
  for (const Edge& e : edges) {
    checker.Update({e, UpdateType::kInsert});
  }
  const ConnectivityResult kruskal = checker.ConnectedComponents();
  EXPECT_EQ(r.num_components, kruskal.num_components);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConnectivityRandomTest,
    ::testing::Combine(::testing::Values<uint64_t>(16, 64, 128),
                       ::testing::Values(0.01, 0.1, 0.5),
                       ::testing::Values<uint64_t>(1, 2, 3)));

TEST(ConnectivityTest, ConnectedPointQuery) {
  auto sketches = SketchGraph(8, 9, {Edge(0, 1), Edge(1, 2), Edge(4, 5)});
  const ConnectivityResult r = BoruvkaConnectivity(&sketches);
  ASSERT_FALSE(r.failed);
  EXPECT_TRUE(r.Connected(0, 2));
  EXPECT_TRUE(r.Connected(4, 5));
  EXPECT_FALSE(r.Connected(0, 4));
  EXPECT_FALSE(r.Connected(3, 6));
  EXPECT_TRUE(r.Connected(7, 7));
}

TEST(ConnectivityTest, ConnectedOutOfRangeNodeIsFalse) {
  // Regression: out-of-range node ids used to index component_of
  // unchecked (UB); they must simply report "not connected".
  auto sketches = SketchGraph(8, 9, {Edge(0, 1)});
  const ConnectivityResult r = BoruvkaConnectivity(&sketches);
  ASSERT_FALSE(r.failed);
  EXPECT_FALSE(r.Connected(0, 8));
  EXPECT_FALSE(r.Connected(8, 0));
  EXPECT_FALSE(r.Connected(12345, 67890));
  EXPECT_FALSE(r.Connected(0, static_cast<NodeId>(-1)));
  // In-range behavior is unchanged.
  EXPECT_TRUE(r.Connected(0, 1));

  // An empty (default) result connects nothing, in range or not.
  const ConnectivityResult empty;
  EXPECT_FALSE(empty.Connected(0, 0));
}

TEST(ConnectivityTest, SpanningForestStreamOutput) {
  // Problem 1: the answer is itself an insert-only edge stream.
  const uint64_t n = 16;
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 10; ++i) edges.emplace_back(i, i + 1);
  auto sketches = SketchGraph(n, 10, edges);
  const ConnectivityResult r = BoruvkaConnectivity(&sketches);
  ASSERT_FALSE(r.failed);

  const std::string path =
      std::string(::testing::TempDir()) + "/forest_stream.gzst";
  ASSERT_TRUE(WriteSpanningForestStream(r, n, path).ok());

  uint64_t read_nodes = 0;
  auto readback = ReadStreamFile(path, &read_nodes);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(read_nodes, n);
  ASSERT_EQ(readback.value().size(), r.spanning_forest.size());
  // All inserts, and replaying them reproduces the same partition.
  Dsu dsu(n);
  for (const GraphUpdate& u : readback.value()) {
    EXPECT_EQ(u.type, UpdateType::kInsert);
    dsu.Union(u.edge.u, u.edge.v);
  }
  EXPECT_EQ(dsu.num_sets(), r.num_components);
  std::remove(path.c_str());
}

TEST(ConnectivityTest, RoundWindowRestrictsWork) {
  // With a 1-round window on a path graph, Boruvka cannot finish and
  // must report failure.
  EdgeList edges;
  for (NodeId i = 0; i + 1 < 16; ++i) edges.emplace_back(i, i + 1);
  auto sketches = SketchGraph(16, 11, edges);
  const ConnectivityResult r =
      BoruvkaConnectivity(&sketches, /*first_round=*/0, /*num_rounds=*/1);
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.rounds_used, 1);
}

TEST(ConnectivityTest, WrongSketchCountAborts) {
  NodeSketchParams p;
  p.num_nodes = 8;
  p.seed = 1;
  std::vector<NodeSketch> sketches;
  for (int i = 0; i < 4; ++i) sketches.emplace_back(p);  // Too few.
  EXPECT_DEATH(BoruvkaConnectivity(&sketches), "one node sketch per vertex");
}

TEST(ConnectivityTest, BadRoundWindowAborts) {
  auto sketches = SketchGraph(8, 12, {Edge(0, 1)});
  const int rounds = sketches[0].rounds();
  EXPECT_DEATH(BoruvkaConnectivity(&sketches, rounds, 1),
               "first_round");
}

// Everything a caller can observe of a query result.
void ExpectSameResult(const ConnectivityResult& got,
                      const ConnectivityResult& want) {
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.rounds_used, want.rounds_used);
  EXPECT_EQ(got.num_components, want.num_components);
  EXPECT_EQ(got.spanning_forest, want.spanning_forest);
  EXPECT_EQ(got.component_of, want.component_of);
}

// Copy-on-write Boruvka (const input) is the same engine as the
// in-place one: at every thread count it must return the same forest,
// labels and round count as a query that consumes a copy, and it must
// leave the queried snapshot bitwise unchanged. The star folds one
// giant group per round; the sparse ER graph leaves many components of
// mixed sizes, some of which stop absorbing early.
TEST(ConnectivityTest, ConstQueryMatchesConsumedAtAnyThreadCount) {
  EdgeList star;
  for (NodeId i = 1; i < 4096; ++i) star.emplace_back(0, i);
  ErdosRenyiParams ep;
  ep.num_nodes = 2048;
  ep.p = 1.2 / 2048;
  ep.seed = 17;
  const EdgeList er = ErdosRenyiGenerator(ep).Generate();
  const struct {
    const char* name;
    uint64_t n;
    const EdgeList* edges;
  } cases[] = {{"giant star", 4096, &star}, {"sparse ER", 2048, &er}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const GraphSnapshot snapshot(SketchGraph(c.n, 21, *c.edges),
                                 c.edges->size());
    const std::vector<uint8_t> before = snapshot.Serialize();
    for (const int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(threads);
      const ConnectivityResult got = Connectivity(snapshot, threads);
      GraphSnapshot consumed = snapshot;
      const ConnectivityResult want =
          Connectivity(std::move(consumed), threads);
      ASSERT_FALSE(want.failed);
      ExpectSameResult(got, want);
      CheckForest(got, c.n, *c.edges);
    }
    EXPECT_TRUE(snapshot.Serialize() == before)
        << "a const query wrote into its input";
  }
}

// The same identity inside a round window, the form multi-phase
// algorithms (forest peeling) call: the const engine may only ever
// hold rounds of the window, and must still agree with the in-place
// engine on every window, including one it cannot finish in.
TEST(ConnectivityTest, ConstWindowMatchesInPlaceWindow) {
  const uint64_t n = 1500;
  const EdgeList edges = RandomConnectedGraph(n, 3 * n, 23);
  const std::vector<NodeSketch> input = SketchGraph(n, 24, edges);
  const int rounds = input[0].rounds();
  const struct {
    int first_round, num_rounds;
  } windows[] = {{0, 1}, {0, 3}, {2, 4}, {rounds / 2, -1}, {0, -1}};
  for (const auto& w : windows) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "window " << w.first_round << "+"
                                        << w.num_rounds << ", " << threads
                                        << " threads");
      const ConnectivityResult got = BoruvkaConnectivity(
          input, w.first_round, w.num_rounds, threads);
      std::vector<NodeSketch> scratch = input;
      const ConnectivityResult want = BoruvkaConnectivity(
          &scratch, w.first_round, w.num_rounds, threads);
      ExpectSameResult(got, want);
    }
  }
  EXPECT_TRUE(input == SketchGraph(n, 24, edges))
      << "a const query wrote into its input";
}

TEST(ConnectivityTest, ManySmallComponents) {
  // Disjoint triangles.
  EdgeList edges;
  const uint64_t n = 60;
  for (NodeId base = 0; base < n; base += 3) {
    edges.emplace_back(base, base + 1);
    edges.emplace_back(base + 1, base + 2);
    edges.emplace_back(base, base + 2);
  }
  auto sketches = SketchGraph(n, 8, edges);
  const ConnectivityResult r = BoruvkaConnectivity(&sketches);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, n / 3);
  CheckForest(r, n, edges);
}

}  // namespace
}  // namespace gz
