// BFS (Fig 3) — levels must equal sequential BFS for every method; for
// single-winner methods the (parent, sel_edge) pair must additionally be a
// consistent discovery record (the multi-word CW guarantee naive lacks).
#include "algorithms/bfs.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "algorithms/dispatch.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"

namespace crcw::algo {
namespace {

using graph::Csr;
using graph::kNoVertex;
using graph::vertex_t;

/// Checks the whole BfsResult for a single-winner method: valid BFS tree
/// AND the recorded sel_edge actually is the CSR slot (parent → v).
void expect_consistent_discovery(const Csr& g, vertex_t source, const BfsResult& r) {
  ASSERT_TRUE(validate_bfs_tree(g, source, r.level, r.parent));
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (v == source || r.level[v] == -1) continue;
    const vertex_t p = r.parent[v];
    const graph::edge_t j = r.sel_edge[v];
    ASSERT_GE(j, g.offset(p)) << "sel_edge outside parent's adjacency";
    ASSERT_LT(j, g.offset(p) + g.degree(p));
    ASSERT_EQ(g.targets()[j], v) << "sel_edge does not point at v — mixed multi-word write";
  }
}

// ---------------------------------------------------------------------------
// Property sweep: method × graph family × threads.

struct GraphCase {
  std::string name;
  Csr graph;
  vertex_t source;
};

GraphCase make_case(const std::string& name) {
  using namespace graph;
  if (name == "path64") return {name, build_csr(64, path(64)), 0};
  if (name == "star256") return {name, build_csr(256, star(256)), 5};
  if (name == "grid8x8") return {name, build_csr(64, grid2d(8, 8)), 0};
  if (name == "gnm2k") return {name, random_graph(500, 2000, 11), 3};
  if (name == "rmat") return {name, build_csr(512, rmat(512, 2048, 7), {.remove_self_loops = true}), 0};
  if (name == "disconnected")
    return {name, build_csr(100, planted_components(4, 25, 10, 5)), 0};
  if (name == "singleton") return {name, build_csr(1, {}), 0};
  throw std::logic_error("unknown case " + name);
}

using BfsParam = std::tuple<std::string, std::string, int>;

class BfsMethodTest : public ::testing::TestWithParam<BfsParam> {};

TEST_P(BfsMethodTest, LevelsMatchSequentialBfs) {
  const auto& [method, gcase, threads] = GetParam();
  const GraphCase c = make_case(gcase);
  const BfsResult r = run_bfs(method, c.graph, c.source, {.threads = threads});
  const auto expected = graph::bfs_levels(c.graph, c.source);
  ASSERT_EQ(r.level.size(), expected.size());
  for (std::size_t v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(r.level[v], expected[v]) << method << "/" << gcase << " vertex " << v;
  }
}

TEST_P(BfsMethodTest, SingleWinnerMethodsProduceConsistentTrees) {
  const auto& [method, gcase, threads] = GetParam();
  if (method == "naive") {
    GTEST_SKIP() << "naive gives no multi-word consistency guarantee (§4)";
  }
  const GraphCase c = make_case(gcase);
  const BfsResult r = run_bfs(method, c.graph, c.source, {.threads = threads});
  expect_consistent_discovery(c.graph, c.source, r);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByGraphsByThreads, BfsMethodTest,
    ::testing::Combine(
        ::testing::Values("naive", "gatekeeper", "gatekeeper-sparse", "gatekeeper-skip",
                          "caslt", "critical"),
        ::testing::Values("path64", "star256", "grid8x8", "gnm2k", "rmat", "disconnected",
                          "singleton"),
        ::testing::Values(1, 8)),
    [](const ::testing::TestParamInfo<BfsParam>& pinfo) {
      auto name = std::get<0>(pinfo.param) + "_" + std::get<1>(pinfo.param) + "_t" +
                  std::to_string(std::get<2>(pinfo.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------

TEST(Bfs, RoundsEqualEccentricityPlusOne) {
  const auto g = graph::build_csr(32, graph::path(32));
  const BfsResult r = bfs_caslt(g, 0);
  // 31 productive levels + the final empty round.
  EXPECT_EQ(r.rounds, 32u);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  const auto g = graph::build_csr(4, graph::path(4));
  EXPECT_THROW((void)bfs_caslt(g, 99), std::invalid_argument);
}

TEST(Bfs, SourceIsItsOwnParent) {
  const auto g = graph::random_graph(50, 100, 1);
  const BfsResult r = bfs_caslt(g, 7);
  EXPECT_EQ(r.parent[7], 7u);
  EXPECT_EQ(r.level[7], 0);
}

TEST(Bfs, SelfLoopsAndParallelEdgesAreHarmless) {
  graph::EdgeList edges = {{0, 0}, {0, 1}, {0, 1}, {1, 2}, {2, 2}};
  const auto g = graph::build_csr(3, edges);
  const BfsResult r = bfs_caslt(g, 0);
  EXPECT_EQ(r.level[1], 1);
  EXPECT_EQ(r.level[2], 2);
  expect_consistent_discovery(g, 0, r);
}

TEST(Bfs, StarMaximisesContentionButStaysCorrect) {
  // From a star leaf: round 2 has N-2 edges all discovering... nothing
  // (centre already visited); from the centre: N-1 independent discoveries;
  // from a leaf the centre is the single hot target. All shapes must hold.
  const auto g = graph::build_csr(1000, graph::star(1000));
  for (const vertex_t src : {vertex_t{0}, vertex_t{1}}) {
    const BfsResult r = run_bfs("gatekeeper", g, src);
    const auto expected = graph::bfs_levels(g, src);
    for (std::size_t v = 0; v < 1000; ++v) ASSERT_EQ(r.level[v], expected[v]);
  }
}

TEST(Bfs, AllMethodsAgreeOnReachableSetSize) {
  const auto g = graph::random_graph(300, 500, 21);
  std::int64_t reached = -1;
  for (const auto& method : bfs_methods()) {
    const BfsResult r = run_bfs(method, g, 0);
    std::int64_t count = 0;
    for (const auto l : r.level) count += (l != -1) ? 1 : 0;
    if (reached == -1) reached = count;
    EXPECT_EQ(count, reached) << method;
  }
}

TEST(BfsFrontier, MatchesLevelSynchronousOnAllCases) {
  for (const char* name :
       {"path64", "star256", "grid8x8", "gnm2k", "rmat", "disconnected", "singleton"}) {
    const GraphCase c = make_case(name);
    const BfsResult expected = bfs_caslt(c.graph, c.source);
    for (const int threads : {1, 8}) {
      const BfsResult got = bfs_frontier(c.graph, c.source, {.threads = threads});
      ASSERT_EQ(got.level, expected.level) << name << " t=" << threads;
      ASSERT_EQ(got.rounds, expected.rounds) << name;
      expect_consistent_discovery(c.graph, c.source, got);
    }
  }
}

TEST(BfsDirectionOptimizing, MatchesLevelSynchronousOnAllCases) {
  for (const char* name :
       {"path64", "star256", "grid8x8", "gnm2k", "rmat", "disconnected", "singleton"}) {
    const GraphCase c = make_case(name);
    const BfsResult expected = bfs_caslt(c.graph, c.source);
    for (const int threads : {1, 8}) {
      const BfsResult got = bfs_direction_optimizing(c.graph, c.source, {.threads = threads});
      ASSERT_EQ(got.level, expected.level) << name << " t=" << threads;
      expect_consistent_discovery(c.graph, c.source, got);
    }
  }
}

TEST(BfsDirectionOptimizing, DenseGraphActuallySwitchesAndStaysCorrect) {
  // A complete graph forces the bottom-up path from round one.
  const auto g = graph::build_csr(200, graph::complete(200));
  const BfsResult r = bfs_direction_optimizing(g, 0);
  for (std::size_t v = 1; v < 200; ++v) ASSERT_EQ(r.level[v], 1);
  expect_consistent_discovery(g, 0, r);
}

TEST(BfsFrontier, SlotAllocationLosesNoVertex) {
  // Every discovered vertex must land in exactly one frontier: reachable
  // count via frontier BFS equals the sequential one.
  const auto g = graph::random_graph(400, 1200, 9);
  const auto expected = graph::bfs_levels(g, 0);
  const BfsResult r = bfs_frontier(g, 0, {.threads = 8});
  for (std::size_t v = 0; v < expected.size(); ++v) ASSERT_EQ(r.level[v], expected[v]);
}

TEST(Bfs, GatekeeperVariantsNeedTheirReset) {
  // Regression guard: on a 10-level path, a gatekeeper kernel without the
  // per-level reset would stall after level 1. If the kernel terminates
  // with correct levels, the reset (full sweep or sparse) ran.
  const auto g = graph::build_csr(10, graph::path(10));
  for (const char* method : {"gatekeeper", "gatekeeper-sparse", "gatekeeper-skip"}) {
    const BfsResult r = run_bfs(method, g, 0);
    EXPECT_EQ(r.level[9], 9) << method;
  }
}

// ---------------------------------------------------------------------------
// One-thread differential: every policy of Figures 7–9 is the same
// level-scan kernel, so at one thread each must commit exactly what a
// serial copy of that loop commits.

struct SerialReference {
  BfsResult result;
  std::uint64_t acquires = 0;  ///< edges that passed the visited check
};

/// Serial copy of the level-scan loop: every level scans all vertices in
/// index order, and a vertex on the level relaxes its edges in CSR order;
/// the first edge that finds u unvisited discovers it.
SerialReference serial_reference(const Csr& g, vertex_t source) {
  const std::uint64_t n = g.num_vertices();
  SerialReference ref;
  BfsResult& r = ref.result;
  r.level.assign(n, -1);
  r.parent.assign(n, kNoVertex);
  r.sel_edge.assign(n, static_cast<graph::edge_t>(-1));
  r.level[source] = 0;
  r.parent[source] = source;
  std::int64_t l = 0;
  bool done = false;
  while (!done) {
    done = true;
    for (vertex_t v = 0; v < n; ++v) {
      if (r.level[v] != l) continue;
      for (graph::edge_t j = g.offset(v); j < g.offset(v) + g.degree(v); ++j) {
        const vertex_t u = g.targets()[j];
        if (r.level[u] != -1) continue;
        ++ref.acquires;
        r.parent[u] = v;
        r.sel_edge[u] = j;
        r.level[u] = l + 1;
        done = false;
      }
    }
    ++l;
  }
  r.rounds = static_cast<std::uint64_t>(l);
  return ref;
}

TEST(Bfs, SingleThreadMatchesSerialReference) {
  for (const char* name : {"path64", "star256", "grid8x8", "gnm2k", "rmat", "disconnected"}) {
    const GraphCase c = make_case(name);
    const SerialReference ref = serial_reference(c.graph, c.source);
    for (const char* method : {"naive", "caslt", "gatekeeper", "gatekeeper-sparse",
                               "gatekeeper-skip", "critical"}) {
      const BfsResult r = run_bfs(method, c.graph, c.source, {.threads = 1});
      EXPECT_EQ(r.level, ref.result.level) << method << "/" << name;
      EXPECT_EQ(r.parent, ref.result.parent) << method << "/" << name;
      EXPECT_EQ(r.sel_edge, ref.result.sel_edge) << method << "/" << name;
      EXPECT_EQ(r.rounds, ref.result.rounds) << method << "/" << name;
    }
    const auto profile = profile_bfs("caslt", c.graph, c.source, {.threads = 1});
    ASSERT_TRUE(profile.has_value());
    EXPECT_EQ(profile->attempts, ref.acquires) << name;
  }
}

// ---------------------------------------------------------------------------
// Profiles: what the counters of each reset and slot scheme must show.

TEST(BfsProfile, SparseResetSweepsFewerTagsThanTheFullSweep) {
  // A path discovers one vertex per level, so the full sweep re-zeroes all
  // 200 tags on each of its 200 levels while the sparse reset re-zeroes
  // only the tags of last level's discoveries.
  const auto g = graph::build_csr(200, graph::path(200));
  const auto full = profile_bfs("gatekeeper", g, 0, {.threads = 4});
  const auto sparse = profile_bfs("gatekeeper-sparse", g, 0, {.threads = 4});
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(sparse.has_value());
  EXPECT_EQ(full->reset_tags, 200u * 200u);
  EXPECT_EQ(sparse->reset_tags, 199u);  // every discovery, reset once
  EXPECT_EQ(sparse->wins, full->wins);
}

TEST(BfsProfile, FrontierSlotAtomicsAgainstGrants) {
  // At one thread the CAS-LT site counts exactly one attempt, atomic and
  // win per discovered vertex; what the profile holds beyond that is the
  // "frontier-slots" site, which grants one slot per discovery.
  const GraphCase c = make_case("gnm2k");
  const auto levels = graph::bfs_levels(c.graph, c.source);
  std::uint64_t discovered = 0;
  for (const auto l : levels) discovered += l > 0 ? 1 : 0;
  ASSERT_GT(discovered, 100u);

  const auto shared = profile_bfs("frontier-shared", c.graph, c.source, {.threads = 1});
  const auto chunked = profile_bfs("frontier", c.graph, c.source, {.threads = 1});
  ASSERT_TRUE(shared.has_value());
  ASSERT_TRUE(chunked.has_value());

  // Shared tail: one fetch_add per granted slot.
  EXPECT_EQ(shared->attempts - discovered, discovered);
  EXPECT_EQ(shared->atomics - discovered, discovered);
  EXPECT_EQ(shared->refills, 0u);
  // Chunked grants: one shared fetch_add per chunk, so fewer atomics than
  // grants.
  EXPECT_EQ(chunked->attempts - discovered, discovered);
  EXPECT_EQ(chunked->atomics - discovered, chunked->refills);
  EXPECT_LT(chunked->atomics - discovered, discovered);
}

}  // namespace
}  // namespace crcw::algo
