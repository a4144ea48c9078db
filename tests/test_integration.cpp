// Cross-module integration: OpenMP kernels vs the PRAM model simulator vs
// sequential references, end to end — generate, run, cross-validate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/dispatch.hpp"
#include "algorithms/max.hpp"
#include "core/arbiter.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/reference.hpp"
#include "pram/machine.hpp"
#include "sim/programs.hpp"
#include "util/rng.hpp"

namespace crcw {
namespace {

/// The headline cross-check: the OpenMP CAS-LT kernel and the PRAM model
/// simulator execute the same Maximum algorithm and must agree — the
/// implementation realises the model.
TEST(Integration, MaxKernelAgreesWithModelSimulator) {
  util::Xoshiro256 rng(4);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint32_t> list(60);
    for (auto& x : list) x = static_cast<std::uint32_t>(rng.bounded(1000));

    const std::uint64_t impl = algo::max_index_caslt(list);

    std::vector<sim::word_t> model_list(list.begin(), list.end());
    sim::Simulator model(sim::AccessMode::kCommon, 1, trial);
    const std::uint64_t modeled = sim::programs::max_constant_time(model, model_list);

    EXPECT_EQ(impl, modeled) << "trial " << trial;
  }
}

TEST(Integration, BfsKernelAgreesWithModelSimulator) {
  const auto g = graph::random_graph(120, 400, 9);
  const auto impl = algo::bfs_caslt(g, 0);
  sim::Simulator model(sim::AccessMode::kArbitrary, 1);
  const auto modeled = sim::programs::bfs(model, g.offsets(), g.targets(), 0);
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(impl.level[v], modeled.level[v]) << v;
  }
}

/// Arbitrary-CW whole-pipeline property: whichever writes win — OpenMP
/// scheduling on the implementation side, seeded adversary on the model
/// side — the *deterministic observables* (levels, partitions) agree.
TEST(Integration, ArbitraryWinnersNeverChangeObservables) {
  const auto g = graph::random_graph(150, 450, 31);
  const auto ref_levels = graph::bfs_levels(g, 0);
  const auto ref_labels = graph::connected_components(g);

  for (int repeat = 0; repeat < 5; ++repeat) {
    const auto b = algo::bfs_caslt(g, 0, {.threads = 8});
    for (std::size_t v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(b.level[v], ref_levels[v]);
    }
    const auto c = algo::cc_caslt(g, {.threads = 8});
    ASSERT_EQ(graph::canonicalize_labels(c.label), ref_labels);
  }
}

TEST(Integration, GraphPipelineGenerateSaveLoadRun) {
  const auto dir = std::filesystem::temp_directory_path() / "crcw_integration";
  std::filesystem::create_directories(dir);
  const auto path = (dir / "g.csr").string();

  const auto g = graph::random_graph(200, 600, 12);
  graph::save_csr_binary(path, g);
  const auto loaded = graph::load_csr_binary(path);
  ASSERT_EQ(loaded, g);

  const auto bfs = algo::bfs_caslt(loaded, 0);
  EXPECT_TRUE(graph::validate_bfs_tree(loaded, 0, bfs.level, bfs.parent));

  const auto cc = algo::cc_caslt(loaded);
  EXPECT_TRUE(graph::validate_components(loaded, cc.label));

  // BFS reachability from v and v's component must be the same vertex set.
  const auto& labels = cc.label;
  for (std::size_t v = 0; v < loaded.num_vertices(); ++v) {
    EXPECT_EQ(bfs.level[v] != -1, labels[v] == labels[0]) << v;
  }
  std::filesystem::remove_all(dir);
}

TEST(Integration, MachineDrivenBfsMatchesKernel) {
  // The same BFS written directly against pram::Machine — the PRAM round
  // counter feeding the CAS-LT arbiter — must match the packaged kernel.
  const auto g = graph::random_graph(100, 300, 44);
  const std::uint64_t n = g.num_vertices();

  pram::Machine m(pram::MachineConfig{.threads = 4});
  WriteArbiter<CasLtPolicy> arbiter(n);
  std::vector<std::int64_t> level(n, -1);
  level[0] = 0;

  bool done = false;
  std::int64_t l = 0;
  while (!done) {
    std::atomic<std::uint8_t> any{0};
    m.step(n, [&](pram::Machine::vproc_t v, round_t round) {
      if (std::atomic_ref<std::int64_t>(level[v]).load(std::memory_order_relaxed) != l) {
        return;
      }
      for (const auto u : g.neighbors(static_cast<graph::vertex_t>(v))) {
        if (std::atomic_ref<std::int64_t>(level[u]).load(std::memory_order_relaxed) == -1 &&
            arbiter.acquire_at(u, round)) {
          std::atomic_ref<std::int64_t>(level[u]).store(l + 1, std::memory_order_relaxed);
          any.store(1, std::memory_order_relaxed);
        }
      }
    });
    done = any.load() == 0;
    ++l;
  }

  const auto expected = graph::bfs_levels(g, 0);
  for (std::size_t v = 0; v < n; ++v) ASSERT_EQ(level[v], expected[v]) << v;
  EXPECT_EQ(m.counters().depth, static_cast<std::uint64_t>(l));
}

TEST(Integration, DispatchCoversEveryAdvertisedMethod) {
  const auto g = graph::random_graph(60, 150, 2);
  std::vector<std::uint32_t> list(100);
  util::Xoshiro256 rng(1);
  for (auto& x : list) x = static_cast<std::uint32_t>(rng.bounded(500));

  for (const auto& mth : algo::max_methods()) {
    EXPECT_EQ(algo::run_max(mth, list), algo::max_index_seq(list)) << mth;
  }
  const auto ref = graph::bfs_levels(g, 0);
  for (const auto& mth : algo::bfs_methods()) {
    const auto r = algo::run_bfs(mth, g, 0);
    for (std::size_t v = 0; v < ref.size(); ++v) ASSERT_EQ(r.level[v], ref[v]) << mth;
  }
  for (const auto& mth : algo::cc_methods()) {
    EXPECT_TRUE(graph::validate_components(g, algo::run_cc(mth, g).label)) << mth;
  }
}

/// Every name run_max/run_bfs/run_cc accepts, with whether its policy has
/// counting tags: profile_* must count exactly those and answer nullopt
/// for the rest (naive has no tag, critical a mutex, the structural rows
/// other than the frontier pair no arbiter of their own).
using Instrumentable = std::vector<std::pair<std::string, bool>>;
const Instrumentable kMaxNames = {{"naive", false}, {"gatekeeper", true},
                                  {"gatekeeper-skip", true}, {"caslt", true},
                                  {"critical", false}, {"reduce", false}};
const Instrumentable kBfsNames = {{"naive", false},
                                  {"gatekeeper", true},
                                  {"gatekeeper-sparse", true},
                                  {"gatekeeper-skip", true},
                                  {"caslt", true},
                                  {"critical", false},
                                  {"frontier", true},
                                  {"frontier-shared", true},
                                  {"direction-optimizing", false}};
const Instrumentable kCcNames = {{"gatekeeper", true}, {"gatekeeper-sparse", true},
                                 {"gatekeeper-skip", true}, {"caslt", true},
                                 {"critical", false}, {"min-hook", false}};

bool lists(const Instrumentable& names, const std::string& method) {
  return std::any_of(names.begin(), names.end(),
                     [&](const auto& entry) { return entry.first == method; });
}

TEST(Integration, ProfilesCountExactlyTheInstrumentablePolicies) {
  const auto g = graph::random_graph(60, 150, 2);
  std::vector<std::uint32_t> list(100);
  util::Xoshiro256 rng(1);
  for (auto& x : list) x = static_cast<std::uint32_t>(rng.bounded(500));

  for (const auto& [mth, counted] : kMaxNames) {
    EXPECT_EQ(algo::run_max(mth, list), algo::max_index_seq(list)) << mth;
    const auto p = algo::profile_max(mth, list);
    ASSERT_EQ(p.has_value(), counted) << mth;
    if (p) {
      EXPECT_GT(p->attempts, 0u) << mth;
    }
  }
  for (const auto& [mth, counted] : kBfsNames) {
    EXPECT_EQ(algo::run_bfs(mth, g, 0).level, graph::bfs_levels(g, 0)) << mth;
    const auto p = algo::profile_bfs(mth, g, 0);
    ASSERT_EQ(p.has_value(), counted) << mth;
    if (p) {
      EXPECT_GT(p->attempts, 0u) << mth;
    }
  }
  for (const auto& [mth, counted] : kCcNames) {
    EXPECT_TRUE(graph::validate_components(g, algo::run_cc(mth, g).label)) << mth;
    const auto p = algo::profile_cc(mth, g);
    ASSERT_EQ(p.has_value(), counted) << mth;
    if (p) {
      EXPECT_GT(p->attempts, 0u) << mth;
    }
  }

  // The lists above cover every advertised method, and a name run_*
  // rejects is rejected by profile_* too.
  for (const auto& mth : algo::max_methods()) EXPECT_TRUE(lists(kMaxNames, mth)) << mth;
  for (const auto& mth : algo::bfs_methods()) EXPECT_TRUE(lists(kBfsNames, mth)) << mth;
  for (const auto& mth : algo::cc_methods()) EXPECT_TRUE(lists(kCcNames, mth)) << mth;
  EXPECT_THROW((void)algo::profile_max("bogus", list), std::invalid_argument);
  EXPECT_THROW((void)algo::profile_bfs("bogus", g, 0), std::invalid_argument);
  EXPECT_THROW((void)algo::profile_cc("bogus", g), std::invalid_argument);
}

}  // namespace
}  // namespace crcw
