// Connected Components (Awerbuch–Shiloach) — the partition must equal
// union–find's for every method, graph family, and thread count.
#include "algorithms/cc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algorithms/dispatch.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"

namespace crcw::algo {
namespace {

using graph::Csr;
using graph::edge_t;
using graph::vertex_t;

struct GraphCase {
  std::string name;
  Csr graph;
  std::uint64_t expected_components;
};

GraphCase make_case(const std::string& name) {
  using namespace graph;
  if (name == "path") return {name, build_csr(100, path(100)), 1};
  if (name == "star") return {name, build_csr(200, star(200)), 1};
  if (name == "cycle") return {name, build_csr(64, cycle(64)), 1};
  if (name == "grid") return {name, build_csr(100, grid2d(10, 10)), 1};
  if (name == "gnm") {
    Csr g = random_graph(300, 900, 13);
    const std::uint64_t k = count_components(g);
    return {name, std::move(g), k};
  }
  if (name == "planted5") return {name, build_csr(100, planted_components(5, 20, 6, 3)), 5};
  if (name == "isolated") return {name, build_csr(50, {}), 50};
  if (name == "twopair") return {name, build_csr(4, EdgeList{{0, 1}, {2, 3}}), 2};
  throw std::logic_error("unknown case " + name);
}

using CcParam = std::tuple<std::string, std::string, int>;

class CcMethodTest : public ::testing::TestWithParam<CcParam> {};

TEST_P(CcMethodTest, PartitionMatchesUnionFind) {
  const auto& [method, gcase, threads] = GetParam();
  const GraphCase c = make_case(gcase);
  const CcResult r = run_cc(method, c.graph, {.threads = threads});
  EXPECT_EQ(r.components, c.expected_components) << method << "/" << gcase;
  EXPECT_TRUE(graph::validate_components(c.graph, r.label)) << method << "/" << gcase;
}

TEST_P(CcMethodTest, LabelsAreRootsOfThemselves) {
  // After convergence every label must itself be labelled with itself —
  // i.e. pointer jumping reached a fixpoint.
  const auto& [method, gcase, threads] = GetParam();
  const GraphCase c = make_case(gcase);
  const CcResult r = run_cc(method, c.graph, {.threads = threads});
  for (vertex_t v = 0; v < c.graph.num_vertices(); ++v) {
    ASSERT_EQ(r.label[r.label[v]], r.label[v]) << method << "/" << gcase << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByGraphsByThreads, CcMethodTest,
    ::testing::Combine(
        ::testing::Values("gatekeeper", "gatekeeper-skip", "caslt", "critical", "min-hook"),
        ::testing::Values("path", "star", "cycle", "grid", "gnm", "planted5", "isolated",
                          "twopair"),
        ::testing::Values(1, 8)),
    [](const ::testing::TestParamInfo<CcParam>& pinfo) {
      auto name = std::get<0>(pinfo.param) + "_" + std::get<1>(pinfo.param) + "_t" +
                  std::to_string(std::get<2>(pinfo.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------

TEST(Cc, EmptyGraph) {
  const Csr g;
  const CcResult r = cc_caslt(g);
  EXPECT_TRUE(r.label.empty());
  EXPECT_EQ(r.components, 0u);
}

TEST(Cc, SingleVertex) {
  const auto g = graph::build_csr(1, {});
  const CcResult r = cc_caslt(g);
  EXPECT_EQ(r.components, 1u);
  EXPECT_EQ(r.label[0], 0u);
}

TEST(Cc, SelfLoopsAndMultiEdges) {
  graph::EdgeList edges = {{0, 0}, {0, 1}, {0, 1}, {2, 2}};
  const auto g = graph::build_csr(3, edges);
  const CcResult r = cc_caslt(g);
  EXPECT_EQ(r.components, 2u);
  EXPECT_TRUE(graph::validate_components(g, r.label));
}

TEST(Cc, IterationCountIsLogarithmic) {
  // A-S converges in O(log n) iterations; a path is the deep-tree stressor.
  const auto g = graph::build_csr(4096, graph::path(4096));
  const CcResult r = cc_caslt(g);
  EXPECT_EQ(r.components, 1u);
  EXPECT_LE(r.iterations, 30u) << "A-S must converge in O(log n) iterations";
}

TEST(Cc, ManySeedsManyShapes) {
  // Randomised property sweep: sparse through dense.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const std::uint64_t n = 100 + seed * 50;
    const std::uint64_t m = n * (1 + seed % 4);
    const auto g = graph::random_graph(n, m, seed);
    const auto expected = graph::count_components(g);
    const CcResult r = cc_caslt(g);
    ASSERT_EQ(r.components, expected) << "seed " << seed;
    ASSERT_TRUE(graph::validate_components(g, r.label)) << "seed " << seed;
  }
}

TEST(Cc, AllMethodsProduceIdenticalCanonicalLabels) {
  const auto g = graph::random_graph(200, 380, 23);
  const auto canon = graph::canonicalize_labels(cc_caslt(g).label);
  for (const auto& method : cc_methods()) {
    const CcResult r = run_cc(method, g);
    EXPECT_EQ(graph::canonicalize_labels(r.label), canon) << method;
  }
}

/// The multi-array hook record really is a spanning forest — the §7.2
/// reason CC demands single-winner CW: n − components edges, no cycles,
/// and exactly the connectivity of the full graph. Endpoints are recovered
/// from the CSR slots; every edge must merge two distinct trees, and the
/// final partition must equal the labels.
::testing::AssertionResult is_spanning_forest(const Csr& g, const CcResult& r) {
  if (r.forest_edges.size() != g.num_vertices() - r.components) {
    return ::testing::AssertionFailure() << r.forest_edges.size() << " forest edges for "
                                         << g.num_vertices() << " vertices in "
                                         << r.components << " components";
  }
  std::vector<vertex_t> src(g.num_edges());
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (edge_t j = g.offset(u); j < g.offset(u) + g.degree(u); ++j) src[j] = u;
  }
  graph::UnionFind uf(g.num_vertices());
  for (const auto j : r.forest_edges) {
    if (j >= g.num_edges()) return ::testing::AssertionFailure() << "slot " << j;
    if (!uf.unite(src[j], g.targets()[j])) {
      return ::testing::AssertionFailure() << "cycle edge in forest, slot " << j;
    }
  }
  if (uf.num_sets() != r.components) {
    return ::testing::AssertionFailure() << uf.num_sets() << " forest trees";
  }
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    if (uf.find(v) != uf.find(r.label[v])) {
      return ::testing::AssertionFailure() << "forest splits v=" << v << " from its label";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Cc, ForestEdgesFormASpanningForest) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto g = graph::random_graph(150, 300 + seed * 120, seed);
    EXPECT_TRUE(is_spanning_forest(g, cc_caslt(g, {.threads = 8}))) << seed;
  }
}

TEST(Cc, ForestEdgesAcrossAllGuardedMethods) {
  const auto g = graph::random_graph(120, 240, 77);
  for (const std::string method : {"gatekeeper", "gatekeeper-skip", "caslt", "critical"}) {
    EXPECT_TRUE(is_spanning_forest(g, run_cc(method, g))) << method;
  }
  // min-hook uses combining writes (no payload) — no forest by design.
  EXPECT_TRUE(run_cc("min-hook", g).forest_edges.empty());
}

// ---------------------------------------------------------------------------
// The row walk against today's A–S loop, kept here as a serial reference:
// one pass over a flat (src, dst) edge list in CSR slot order, the first
// qualifying edge per root taking the hook. At one thread every guarded
// method admits exactly that edge, so labels, forest and iteration count
// must match bit for bit; and every edge meeting a hooking condition must
// still attempt, so the profiled attempts equal the reference's count.

struct FlatReference {
  std::vector<vertex_t> label;
  std::vector<edge_t> forest_edges;
  std::uint64_t iterations = 0;
  std::uint64_t acquires = 0;
};

FlatReference flat_reference(const Csr& g) {
  const vertex_t n = static_cast<vertex_t>(g.num_vertices());
  std::vector<vertex_t> src;
  std::vector<vertex_t> dst;
  for (vertex_t u = 0; u < n; ++u) {
    for (const vertex_t v : g.neighbors(u)) {
      src.push_back(u);
      dst.push_back(v);
    }
  }
  constexpr edge_t kNoEdge = static_cast<edge_t>(-1);
  FlatReference ref;
  std::vector<vertex_t>& parent = ref.label;
  parent.resize(n);
  std::iota(parent.begin(), parent.end(), vertex_t{0});
  std::vector<vertex_t> snapshot;
  std::vector<std::uint8_t> star(n);
  std::vector<edge_t> hook_edge(n, kNoEdge);

  const auto detect_stars = [&] {
    std::fill(star.begin(), star.end(), std::uint8_t{1});
    for (vertex_t v = 0; v < n; ++v) {
      const vertex_t p = parent[v];
      const vertex_t gp = parent[p];
      if (p != gp) star[v] = star[p] = star[gp] = 0;
    }
    for (vertex_t v = 0; v < n; ++v) star[v] = star[parent[v]];
  };
  const auto hook_round = [&](auto hooks) {
    snapshot = parent;
    std::vector<std::uint8_t> taken(n, 0);
    bool hooked = false;
    for (edge_t j = 0; j < src.size(); ++j) {
      const vertex_t pu = snapshot[src[j]];
      const vertex_t pv = snapshot[dst[j]];
      if (star[src[j]] == 0 || !hooks(pu, pv)) continue;
      ++ref.acquires;
      if (taken[pu] != 0) continue;
      taken[pu] = 1;
      parent[pu] = pv;
      hook_edge[pu] = j;
      hooked = true;
    }
    return hooked;
  };

  for (bool changed = true; changed;) {
    ++ref.iterations;
    detect_stars();
    changed = hook_round([](vertex_t pu, vertex_t pv) { return pv < pu; });
    detect_stars();
    changed |= hook_round([&](vertex_t pu, vertex_t pv) { return pv > pu && snapshot[pv] == pv; });
    snapshot = parent;
    for (vertex_t v = 0; v < n; ++v) {
      if (snapshot[snapshot[v]] != parent[v]) {
        parent[v] = snapshot[snapshot[v]];
        changed = true;
      }
    }
  }
  for (vertex_t v = 0; v < n; ++v) {
    if (hook_edge[v] != kNoEdge) ref.forest_edges.push_back(hook_edge[v]);
  }
  return ref;
}

TEST(Cc, SingleThreadMatchesFlatReference) {
  using namespace graph;
  const std::vector<std::pair<std::string, Csr>> graphs = {
      {"gnm", random_graph(500, 1500, 3)},
      {"rmat", build_csr(512, rmat(512, 2048, 5))},
      {"path", build_csr(300, path(300))},
      {"star", build_csr(200, star(200))},
      {"planted8", build_csr(160, planted_components(8, 20, 5, 9))},
  };
  std::uint64_t lost = 0;  // attempts after a root's hook was taken
  for (const auto& [name, g] : graphs) {
    const FlatReference ref = flat_reference(g);
    lost += ref.acquires - ref.forest_edges.size();
    for (const std::string method : {"caslt", "gatekeeper", "critical"}) {
      const CcResult r = run_cc(method, g, {.threads = 1});
      EXPECT_EQ(r.label, ref.label) << method << "/" << name;
      EXPECT_EQ(r.forest_edges, ref.forest_edges) << method << "/" << name;
      EXPECT_EQ(r.iterations, ref.iterations) << method << "/" << name;
    }
    const auto profile = profile_cc("caslt", g, {.threads = 1});
    ASSERT_TRUE(profile.has_value());
    EXPECT_EQ(profile->attempts, ref.acquires) << name;
    EXPECT_EQ(profile->wins, ref.forest_edges.size()) << name;
  }
  EXPECT_GT(lost, 0u) << "no graph has a row with two qualifying edges";
}

/// Skewed degrees: a hub adjacent to every other vertex of an R-MAT graph
/// owns a third of the CSR slots in one row, the case a static vertex split
/// would leave on one thread. The second graph adds planted components the
/// hub does not reach, so the partition is not trivially one set.
TEST(Cc, HubHeavyGraphAtFourThreads) {
  constexpr std::uint64_t kRmat = 2048;
  graph::EdgeList hubbed = graph::rmat(kRmat, 4 * kRmat, 17);
  constexpr vertex_t kHub = kRmat / 2;
  for (vertex_t v = 0; v < kRmat; ++v) {
    if (v != kHub) hubbed.push_back({kHub, v});
  }
  graph::EdgeList beside = hubbed;
  for (const graph::Edge e : graph::planted_components(6, 30, 4, 21)) {
    beside.push_back({e.u + static_cast<vertex_t>(kRmat), e.v + static_cast<vertex_t>(kRmat)});
  }
  const std::vector<std::pair<std::string, Csr>> graphs = {
      {"hub", graph::build_csr(kRmat, hubbed)},
      {"hub+planted6", graph::build_csr(kRmat + 6 * 30, beside)},
  };
  for (const auto& [name, g] : graphs) {
    const std::uint64_t expected = graph::count_components(g);
    for (const auto& method : cc_methods()) {
      const CcResult r = run_cc(method, g, {.threads = 4});
      EXPECT_EQ(r.components, expected) << method << "/" << name;
      EXPECT_TRUE(graph::validate_components(g, r.label)) << method << "/" << name;
      if (method != "min-hook") {
        EXPECT_TRUE(is_spanning_forest(g, r)) << method << "/" << name;
      }
    }
  }
}

TEST(Cc, DispatchRejectsNaive) {
  // §7.2: no naive CC exists — racing multi-array hooks are unsafe.
  const auto g = graph::build_csr(2, graph::path(2));
  EXPECT_THROW((void)run_cc("naive", g), std::invalid_argument);
  EXPECT_THROW((void)profile_cc("naive", g), std::invalid_argument);
}

TEST(CcProfile, SparseResetSweepsFewerTagsThanTheFullSweep) {
  // The full sweep re-zeroes all n tags before every hooking substep; the
  // sparse reset re-zeroes only the roots the previous substep hooked, and
  // a root is hooked at most once in its lifetime.
  constexpr std::uint64_t kN = 2000;
  const auto g = graph::random_graph(kN, 3 * kN, 3);
  const auto full = profile_cc("gatekeeper", g, {.threads = 4});
  const auto sparse = profile_cc("gatekeeper-sparse", g, {.threads = 4});
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(sparse.has_value());
  EXPECT_EQ(full->reset_tags, full->rounds * kN);
  EXPECT_LT(sparse->reset_tags, full->reset_tags);
  EXPECT_LE(sparse->reset_tags, sparse->wins);
  EXPECT_LE(sparse->wins, kN - 1);
}

}  // namespace
}  // namespace crcw::algo
