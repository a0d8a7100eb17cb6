// Tests for the explicit-representation baselines and StreamingCC.
#include <gtest/gtest.h>

#include <tuple>

#include "baseline/csr_batch_graph.h"
#include "baseline/disk_adjacency_graph.h"
#include "baseline/hash_adjacency_graph.h"
#include "baseline/matrix_checker.h"
#include "baseline/streaming_cc.h"
#include "stream/erdos_renyi_generator.h"
#include "stream/stream_transform.h"

namespace gz {
namespace {

// ---------------- AdjacencyMatrixChecker --------------------------------

TEST(MatrixCheckerTest, TracksEdges) {
  AdjacencyMatrixChecker m(8);
  m.Update({Edge(1, 2), UpdateType::kInsert});
  EXPECT_TRUE(m.HasEdge(Edge(1, 2)));
  EXPECT_FALSE(m.HasEdge(Edge(1, 3)));
  EXPECT_EQ(m.num_edges(), 1u);
  m.Update({Edge(1, 2), UpdateType::kDelete});
  EXPECT_FALSE(m.HasEdge(Edge(1, 2)));
  EXPECT_EQ(m.num_edges(), 0u);
}

TEST(MatrixCheckerTest, IllegalUpdatesAbort) {
  AdjacencyMatrixChecker m(8);
  EXPECT_DEATH(m.Update({Edge(0, 1), UpdateType::kDelete}), "absent");
  m.Update({Edge(0, 1), UpdateType::kInsert});
  EXPECT_DEATH(m.Update({Edge(0, 1), UpdateType::kInsert}),
               "already present");
}

TEST(MatrixCheckerTest, KruskalComponents) {
  AdjacencyMatrixChecker m(6);
  m.Update({Edge(0, 1), UpdateType::kInsert});
  m.Update({Edge(1, 2), UpdateType::kInsert});
  m.Update({Edge(3, 4), UpdateType::kInsert});
  const ConnectivityResult r = m.ConnectedComponents();
  EXPECT_EQ(r.num_components, 3u);  // {0,1,2}, {3,4}, {5}.
  EXPECT_EQ(r.spanning_forest.size(), 3u);
}

TEST(MatrixCheckerTest, EdgesEnumerationMatches) {
  AdjacencyMatrixChecker m(10);
  m.Update({Edge(2, 7), UpdateType::kInsert});
  m.Update({Edge(0, 9), UpdateType::kInsert});
  const EdgeList edges = m.Edges();
  EXPECT_EQ(edges.size(), 2u);
  EXPECT_TRUE((edges[0] == Edge(0, 9) && edges[1] == Edge(2, 7)) ||
              (edges[0] == Edge(2, 7) && edges[1] == Edge(0, 9)));
}

// ---------------- Explicit dynamic graphs -------------------------------

template <typename GraphT>
GraphT MakeGraph(uint64_t n);

template <>
HashAdjacencyGraph MakeGraph(uint64_t n) {
  return HashAdjacencyGraph(n);
}

template <>
CsrBatchGraph MakeGraph(uint64_t n) {
  return CsrBatchGraph(n, /*batch_capacity=*/16);
}

template <typename GraphT>
class ExplicitGraphTest : public ::testing::Test {};

using GraphTypes = ::testing::Types<HashAdjacencyGraph, CsrBatchGraph>;
TYPED_TEST_SUITE(ExplicitGraphTest, GraphTypes);

TYPED_TEST(ExplicitGraphTest, InsertDeleteAndComponents) {
  TypeParam g = MakeGraph<TypeParam>(10);
  g.Update({Edge(0, 1), UpdateType::kInsert});
  g.Update({Edge(1, 2), UpdateType::kInsert});
  g.Update({Edge(5, 6), UpdateType::kInsert});
  ConnectivityResult r = g.ConnectedComponents();
  EXPECT_EQ(r.num_components, 7u);
  EXPECT_EQ(r.component_of[0], r.component_of[2]);

  g.Update({Edge(1, 2), UpdateType::kDelete});
  r = g.ConnectedComponents();
  EXPECT_EQ(r.num_components, 8u);
  EXPECT_NE(r.component_of[0], r.component_of[2]);
}

TYPED_TEST(ExplicitGraphTest, AgreesWithMatrixCheckerOnRandomStream) {
  const uint64_t n = 64;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.1;
  ep.seed = 31;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 31;
  tp.disconnect_count = 5;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);

  TypeParam g = MakeGraph<TypeParam>(n);
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    g.Update(u);
    checker.Update(u);
  }
  ConnectivityResult got = g.ConnectedComponents();
  const ConnectivityResult expect = checker.ConnectedComponents();
  EXPECT_EQ(got.num_components, expect.num_components);
  EXPECT_EQ(g.num_edges(), checker.num_edges());
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.component_of[i] == got.component_of[j],
                expect.component_of[i] == expect.component_of[j]);
    }
  }
}

TEST(CsrBatchGraphTest, TypeFlipForcesFlush) {
  CsrBatchGraph g(8, /*batch_capacity=*/100);
  g.Update({Edge(0, 1), UpdateType::kInsert});
  g.Update({Edge(0, 2), UpdateType::kInsert});
  // Delete arrives while inserts are pending: must flush then apply.
  g.Update({Edge(0, 1), UpdateType::kDelete});
  g.Flush();
  EXPECT_FALSE(g.HasEdge(Edge(0, 1)));
  EXPECT_TRUE(g.HasEdge(Edge(0, 2)));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(CsrBatchGraphTest, ByteSizeGrowsWithEdges) {
  CsrBatchGraph g(100, 10);
  const size_t before = g.ByteSize();
  for (NodeId i = 0; i + 1 < 100; ++i) {
    g.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  g.Flush();
  EXPECT_GT(g.ByteSize(), before);
}

TEST(HashAdjacencyGraphTest, ByteSizeGrowsWithEdges) {
  HashAdjacencyGraph g(100);
  const size_t before = g.ByteSize();
  for (NodeId i = 0; i + 1 < 100; ++i) {
    g.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  EXPECT_GT(g.ByteSize(), before);
}

// ---------------- DiskAdjacencyGraph ------------------------------------

DiskAdjacencyParams DiskParams(uint64_t n, const char* name,
                               size_t cache = 4) {
  DiskAdjacencyParams p;
  p.num_nodes = n;
  p.file_path = std::string(::testing::TempDir()) + "/" + name;
  p.cache_vertices = cache;
  return p;
}

TEST(DiskAdjacencyGraphTest, InsertDeleteAndComponents) {
  DiskAdjacencyGraph g(DiskParams(10, "diskadj_basic.bin"));
  ASSERT_TRUE(g.Init().ok());
  g.Update({Edge(0, 1), UpdateType::kInsert});
  g.Update({Edge(1, 2), UpdateType::kInsert});
  g.Update({Edge(5, 6), UpdateType::kInsert});
  ConnectivityResult r = g.ConnectedComponents();
  EXPECT_EQ(r.num_components, 7u);
  EXPECT_TRUE(r.Connected(0, 2));

  g.Update({Edge(1, 2), UpdateType::kDelete});
  r = g.ConnectedComponents();
  EXPECT_EQ(r.num_components, 8u);
  EXPECT_FALSE(r.Connected(0, 2));
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(DiskAdjacencyGraphTest, TinyCacheForcesEvictions) {
  // Cache of 2 vertices, star graph: every update faults both regions.
  DiskAdjacencyGraph g(DiskParams(32, "diskadj_evict.bin", 2));
  ASSERT_TRUE(g.Init().ok());
  for (NodeId v = 1; v < 32; ++v) {
    g.Update({Edge(0, v), UpdateType::kInsert});
  }
  EXPECT_GT(g.bytes_written(), 0u);  // Dirty evictions happened.
  const ConnectivityResult r = g.ConnectedComponents();
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.spanning_forest.size(), 31u);
}

TEST(DiskAdjacencyGraphTest, ZeroDegreeVertexReadBackAfterEviction) {
  // Vertices 0 and 1 gain and lose their only edge, are evicted with
  // degree 0 by a cache of 2, and are read back empty.
  DiskAdjacencyGraph g(DiskParams(8, "diskadj_zero_degree.bin", 2));
  ASSERT_TRUE(g.Init().ok());
  g.Update({Edge(0, 1), UpdateType::kInsert});
  g.Update({Edge(0, 1), UpdateType::kDelete});
  g.Update({Edge(2, 3), UpdateType::kInsert});
  g.Update({Edge(4, 5), UpdateType::kInsert});
  EXPECT_GT(g.bytes_written(), 0u);
  g.Update({Edge(0, 1), UpdateType::kInsert});  // Reads both back.
  EXPECT_EQ(g.num_edges(), 3u);
  const ConnectivityResult r = g.ConnectedComponents();
  EXPECT_EQ(r.num_components, 5u);
  EXPECT_TRUE(r.Connected(0, 1));
  EXPECT_FALSE(r.Connected(1, 2));
}

TEST(DiskAdjacencyGraphTest, AgreesWithMatrixCheckerOnRandomStream) {
  const uint64_t n = 48;
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.12;
  ep.seed = 41;
  StreamTransformParams tp;
  tp.num_nodes = n;
  tp.seed = 41;
  const StreamTransformResult stream =
      BuildStream(ErdosRenyiGenerator(ep).Generate(), tp);

  DiskAdjacencyGraph g(DiskParams(n, "diskadj_random.bin", 6));
  ASSERT_TRUE(g.Init().ok());
  AdjacencyMatrixChecker checker(n);
  for (const GraphUpdate& u : stream.updates) {
    g.Update(u);
    checker.Update(u);
  }
  const ConnectivityResult got = g.ConnectedComponents();
  const ConnectivityResult expect = checker.ConnectedComponents();
  EXPECT_EQ(got.num_components, expect.num_components);
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(got.Connected(i, j), expect.Connected(i, j));
    }
  }
}

TEST(DiskAdjacencyGraphTest, IllegalUpdatesAbort) {
  DiskAdjacencyGraph g(DiskParams(8, "diskadj_illegal.bin"));
  ASSERT_TRUE(g.Init().ok());
  EXPECT_DEATH(g.Update({Edge(0, 1), UpdateType::kDelete}), "absent");
}

TEST(DiskAdjacencyGraphTest, RamFootprintBounded) {
  // RAM usage is bounded by the cache, not the graph.
  DiskAdjacencyGraph g(DiskParams(64, "diskadj_ram.bin", 4));
  ASSERT_TRUE(g.Init().ok());
  for (NodeId i = 0; i + 1 < 64; ++i) {
    g.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  EXPECT_LT(g.RamByteSize(), g.DiskByteSize());
}

// ---------------- StreamingCC (standard l0 sampler) ---------------------

TEST(StreamingCcTest, SmallGraphCorrect) {
  StreamingCcParams p;
  p.num_nodes = 16;
  p.seed = 5;
  StreamingCc scc(p);
  for (NodeId i = 0; i + 1 < 8; ++i) {
    scc.Update({Edge(i, i + 1), UpdateType::kInsert});
  }
  const ConnectivityResult r = scc.Query();
  ASSERT_FALSE(r.failed);
  EXPECT_EQ(r.num_components, 16u - 8u + 1u);
  EXPECT_EQ(r.component_of[0], r.component_of[7]);
}

TEST(StreamingCcTest, DeletionsRespected) {
  StreamingCcParams p;
  p.num_nodes = 8;
  p.seed = 6;
  StreamingCc scc(p);
  scc.Update({Edge(0, 1), UpdateType::kInsert});
  scc.Update({Edge(1, 2), UpdateType::kInsert});
  scc.Update({Edge(0, 1), UpdateType::kDelete});
  const ConnectivityResult r = scc.Query();
  ASSERT_FALSE(r.failed);
  EXPECT_NE(r.component_of[0], r.component_of[1]);
  EXPECT_EQ(r.component_of[1], r.component_of[2]);
}

class StreamingCcRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingCcRandomTest, MatchesExactChecker) {
  const uint64_t seed = GetParam();
  const uint64_t n = 24;  // Small: the standard sampler is slow.
  ErdosRenyiParams ep;
  ep.num_nodes = n;
  ep.p = 0.15;
  ep.seed = seed;
  const EdgeList edges = ErdosRenyiGenerator(ep).Generate();

  StreamingCcParams p;
  p.num_nodes = n;
  p.seed = seed + 100;
  StreamingCc scc(p);
  AdjacencyMatrixChecker checker(n);
  for (const Edge& e : edges) {
    scc.Update({e, UpdateType::kInsert});
    checker.Update({e, UpdateType::kInsert});
  }
  const ConnectivityResult got = scc.Query();
  const ConnectivityResult expect = checker.ConnectedComponents();
  ASSERT_FALSE(got.failed);
  EXPECT_EQ(got.num_components, expect.num_components);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingCcRandomTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(StreamingCcTest, LargerThanCubeSketchStructure) {
  // The paper's size claim: standard-sampler node sketches dwarf
  // CubeSketch node sketches for the same graph.
  StreamingCcParams p;
  p.num_nodes = 64;
  p.seed = 1;
  StreamingCc scc(p);
  NodeSketchParams np;
  np.num_nodes = 64;
  np.seed = 1;
  NodeSketch cube(np);
  EXPECT_GT(scc.ByteSize() / 64, cube.ByteSize());
}

}  // namespace
}  // namespace gz
