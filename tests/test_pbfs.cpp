// PBFS integration tests: parallel BFS distances must equal serial BFS on
// every generator, under both reducer mechanisms and several worker counts.
#include <gtest/gtest.h>

#include <tuple>

#include "pbfs/graph.hpp"
#include "pbfs/pbfs.hpp"
#include "runtime/api.hpp"

namespace {

using namespace cilkm::pbfs;

TEST(Graph, FromEdgesBuildsSymmetricCsr) {
  const std::vector<std::pair<Vertex, Vertex>> edges{{0, 1}, {1, 2}, {0, 2}};
  const Graph g = Graph::from_edges(4, edges);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 6u);  // symmetrised
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, GeneratorsProduceRequestedShapes) {
  const Graph u = uniform_random(1000, 5000, 1);
  EXPECT_EQ(u.num_vertices(), 1000u);
  EXPECT_EQ(u.num_edges(), 10000u);

  const Graph r = rmat(10, 4000, 0.45, 0.22, 0.22, 2);
  EXPECT_EQ(r.num_vertices(), 1024u);
  EXPECT_EQ(r.num_edges(), 8000u);

  const Graph g3 = grid3d(10);
  EXPECT_EQ(g3.num_vertices(), 1000u);
  // 3 * side^2 * (side-1) undirected edges, stored both ways.
  EXPECT_EQ(g3.num_edges(), 2u * 3u * 100u * 9u);
}

TEST(Graph, RmatDegreesAreSkewed) {
  const Graph r = rmat(12, 40000, 0.55, 0.2, 0.2, 3);
  std::uint32_t max_deg = 0;
  std::uint64_t total = 0;
  for (Vertex v = 0; v < r.num_vertices(); ++v) {
    max_deg = std::max(max_deg, r.degree(v));
    total += r.degree(v);
  }
  const double avg = static_cast<double>(total) / r.num_vertices();
  EXPECT_GT(max_deg, 20 * avg);  // power-law hubs
}

TEST(SerialBfs, HandLineGraph) {
  // 0-1-2-3: distances are the indices.
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto result = serial_bfs(g, 0);
  EXPECT_EQ(result.dist, (std::vector<Vertex>{0, 1, 2, 3}));
  EXPECT_EQ(result.num_layers, 4u);
}

TEST(SerialBfs, DisconnectedVerticesStayUnreached) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {3, 4}});
  const auto result = serial_bfs(g, 0);
  EXPECT_EQ(result.dist[2], kUnreached);
  EXPECT_EQ(result.dist[3], kUnreached);
  EXPECT_EQ(result.dist[1], 1u);
}

struct PbfsParams {
  const char* kind;
  unsigned workers;
};

// Print the sweep point by value: the default byte dump shows the `kind`
// pointer and padding, which differ per process and make the test names
// unstable.
void PrintTo(const PbfsParams& p, std::ostream* os) {
  *os << p.kind << "_P" << p.workers;
}

class PbfsMatchesSerial : public ::testing::TestWithParam<PbfsParams> {
 protected:
  Graph make_graph() const {
    const std::string kind = GetParam().kind;
    if (kind == "uniform") return uniform_random(20000, 100000, 7);
    if (kind == "rmat") return rmat(14, 80000, 0.45, 0.22, 0.22, 8);
    if (kind == "grid") return grid3d(22);
    if (kind == "sparse") return uniform_random(30000, 25000, 9);
    return grid3d(8);
  }
};

TEST_P(PbfsMatchesSerial, MemoryMappedPolicy) {
  const Graph g = make_graph();
  const auto expect = serial_bfs(g, 0);
  BfsResult got;
  cilkm::run(GetParam().workers,
             [&] { got = pbfs<cilkm::mm_policy>(g, 0); });
  EXPECT_EQ(got.dist, expect.dist);
  EXPECT_EQ(got.num_layers, expect.num_layers);
}

TEST_P(PbfsMatchesSerial, HypermapPolicy) {
  const Graph g = make_graph();
  const auto expect = serial_bfs(g, 0);
  BfsResult got;
  cilkm::run(GetParam().workers,
             [&] { got = pbfs<cilkm::hypermap_policy>(g, 0); });
  EXPECT_EQ(got.dist, expect.dist);
  EXPECT_EQ(got.num_layers, expect.num_layers);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PbfsMatchesSerial,
    ::testing::Values(PbfsParams{"uniform", 1}, PbfsParams{"uniform", 4},
                      PbfsParams{"rmat", 1}, PbfsParams{"rmat", 4},
                      PbfsParams{"rmat", 8}, PbfsParams{"grid", 2},
                      PbfsParams{"grid", 4}, PbfsParams{"sparse", 4}));

TEST(Pbfs, WorksOutsideSchedulerServially) {
  const Graph g = uniform_random(5000, 20000, 11);
  const auto expect = serial_bfs(g, 0);
  const auto got = pbfs<cilkm::mm_policy>(g, 0);  // serial fallback path
  EXPECT_EQ(got.dist, expect.dist);
}

TEST(Pbfs, CountsReducerLookups) {
  const Graph g = grid3d(16);
  BfsResult got;
  cilkm::run(2, [&] { got = pbfs<cilkm::mm_policy>(g, 0); });
  EXPECT_GT(got.reducer_lookups, 0u);
  // Lookups are per chunk, not per edge — orders of magnitude below |E|
  // (the paper's Figure 10(b) lookup counts are small for this reason).
  EXPECT_LT(got.reducer_lookups, g.num_edges() / 4);
}

TEST(Pbfs, PaperSuiteSpecsAreGenerable) {
  // Tiny-scale sanity pass over the Figure 10(b) stand-ins.
  for (const auto& spec : paper_graph_suite(/*shrink=*/256)) {
    const Graph g = generate(spec);
    EXPECT_GT(g.num_vertices(), 0u) << spec.name;
    EXPECT_GT(g.num_edges(), 0u) << spec.name;
    const auto result = serial_bfs(g, 0);
    EXPECT_GT(result.num_layers, 0u) << spec.name;
  }
}

}  // namespace
