#include "algorithms/bfs.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <variant>
#include <vector>

#include "algorithms/dispatch.hpp"
#include "algorithms/method_table.hpp"
#include "core/slot_alloc.hpp"
#include "obs/metrics.hpp"
#include "util/chunking.hpp"

namespace crcw::algo {
namespace {

using graph::Csr;
using graph::edge_t;
using graph::kNoVertex;
using graph::vertex_t;
using methods::PolicyRow;

constexpr edge_t kNoEdge = static_cast<edge_t>(-1);

BfsResult make_result(std::uint64_t n, vertex_t source) {
  if (source >= n) throw std::invalid_argument("bfs: source out of range");
  BfsResult r;
  r.level.assign(n, -1);
  r.parent.assign(n, kNoVertex);
  r.sel_edge.assign(n, kNoEdge);
  r.level[source] = 0;
  r.parent[source] = source;
  return r;
}

/// Relaxed atomic views — the arrays are raced by design (checked by one
/// thread while written by another within a level); atomic_ref keeps that
/// defined behaviour without changing the generated x86 loads/stores.
inline std::int64_t load_level(const std::int64_t& cell) noexcept {
  return std::atomic_ref<const std::int64_t>(cell).load(std::memory_order_relaxed);
}
template <typename T>
inline void store_relaxed(T& cell, T v) noexcept {
  std::atomic_ref<T>(cell).store(v, std::memory_order_relaxed);
}

/// The three output arrays of a BfsResult, as the raw pointers the loops
/// index. Parallel loops take it firstprivate: a shared Tree is re-read
/// through the region's argument block after every atomic, a private copy
/// stays in registers.
struct Tree {
  std::int64_t* level;
  vertex_t* parent;
  edge_t* sel_edge;

  explicit Tree(BfsResult& r)
      : level(r.level.data()), parent(r.parent.data()), sel_edge(r.sel_edge.data()) {}

  /// Fig 3 lines 21-27, the discovery step of every top-down loop here:
  /// edge j = (v, u) puts u on level `next` if u is unvisited and the
  /// policy's canConWrite admits the writer — the one line where the
  /// Figure 7–9 methods differ. Every admitted writer stores through relaxed
  /// atomic_ref, the same x86 mov as a plain store. Naive admits every
  /// discovering edge: level is a common CW and stays correct, but the
  /// arbitrary-CW pair (parent, sel_edge) can commit MIXED across writers
  /// (the §4 hazard; tests only validate levels for naive, and
  /// tests/test_bfs.cpp demonstrates the mixed pair).
  template <typename Scope>
  bool discover(Scope& scope, vertex_t v, edge_t j, vertex_t u, std::int64_t next) const {
    if (load_level(level[u]) != -1) return false;  // Fig 3 "visited" check
    if (!scope.acquire(u)) return false;
    store_relaxed(parent[u], v);
    store_relaxed(sel_edge[u], j);
    store_relaxed(level[u], next);
    return true;
  }
};

/// Folds a run's slot-allocation tallies into a ContentionSite so profile
/// passes see them (attempts = slots handed out, atomics = shared-cursor
/// RMWs). The site is scoped to the call: it detaches immediately and the
/// current MetricsRegistry retains its totals.
void report_slot_counts(std::uint64_t grants, std::uint64_t shared_rmws,
                        std::uint64_t refills) {
  obs::ContentionSite site("frontier-slots");
  site.add_attempts(grants);
  site.add_atomics(shared_rmws);
  // Every slot-cursor fetch_add succeeds, so wins == atomics and the
  // derived failures stays 0 — grants beyond the shared RMWs are the
  // chunking's saving, carried by attempts vs atomics, not by failures.
  site.add_wins(shared_rmws);
  site.add_refills(refills);
}

/// The level-scan kernel of Figure 3: every level scans all vertices, and
/// vertices on the level relax their edges through Tree::discover.
template <WritePolicy Policy>
BfsResult bfs_kernel(const Csr& g, vertex_t source, const BfsOptions& opts, Rearm rearm) {
  const std::uint64_t n = g.num_vertices();
  BfsResult result = make_result(n, source);
  const Tree tree(result);

  const auto offsets = g.offsets();
  const auto targets = g.targets();

  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  methods::ArbiterFor<Policy> arbiter(n, {.rearm = rearm, .threads = threads});
  const auto count = static_cast<std::int64_t>(n);

  std::int64_t l = 0;
  bool done = false;
  while (!done) {
    std::uint8_t frontier_empty = 1;
    // Round id L+1 (Fig 3(a) line 22): monotone across levels, so CAS-LT
    // tags never need re-initialisation. Gatekeeper tags are re-armed here
    // first, on the kernel's team (Fig 3(b) lines 34-35): the Θ(N) sweep
    // CAS-LT avoids, or the sparse re-arm of last level's wins.
    auto scope = arbiter.next_round();

#pragma omp parallel for num_threads(threads) schedule(static) firstprivate(tree) \
    reduction(&& : frontier_empty)
    for (std::int64_t vi = 0; vi < count; ++vi) {
      const auto v = static_cast<vertex_t>(vi);
      if (load_level(tree.level[vi]) != l) continue;
      for (edge_t j = offsets[v]; j < offsets[v + 1]; ++j) {
        if (tree.discover(scope, v, j, targets[j], l + 1)) frontier_empty = 0;
      }
    }
    // Implicit barrier = the synchronisation point before dependent reads.
    done = frontier_empty != 0;
    ++l;  // Fig 3(a) line 33: "update round ID"
  }

  result.rounds = static_cast<std::uint64_t>(l);
  return result;
}

/// How bfs_frontier_kernel allocates next-frontier slots: per-thread
/// chunked grants through a SlotAllocator (one shared RMW per chunk), or
/// the original per-discovery shared fetch_add (kept as the baseline the
/// contention counters are compared against).
enum class SlotMode { kChunked, kShared };

template <WritePolicy Policy>
BfsResult bfs_frontier_kernel(const Csr& g, vertex_t source, const BfsOptions& opts,
                              SlotMode slot_mode) {
  const std::uint64_t n = g.num_vertices();
  BfsResult result = make_result(n, source);
  const Tree tree(result);

  const auto offsets = g.offsets();
  const auto targets = g.targets();

  WriteArbiter<Policy> arbiter(n);
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const int chunk = util::frontier_chunk();

  // Double-buffered frontier/next, each sized ONCE: a frontier holds at
  // most n vertices, plus the chunked grants' per-lane slack (holes that
  // compact() squeezes out again). Levels exchange the buffers with
  // std::swap — no O(frontier) copy per level.
  SlotAllocator slots(threads);
  std::atomic<std::uint64_t> tail{0};  // the one shared cursor of kShared
  const std::size_t cap = static_cast<std::size_t>(
      slot_mode == SlotMode::kChunked ? slots.capacity_for(n) : n);
  std::vector<vertex_t> frontier(cap);
  std::vector<vertex_t> next(cap);
  frontier[0] = source;
  std::uint64_t fsize = 1;
  std::uint64_t shared_rmws = 0;  // slot RMWs under SlotMode::kShared
  std::int64_t l = 0;

  while (fsize > 0) {
    auto scope = arbiter.next_round();
    const auto fcount = static_cast<std::int64_t>(fsize);
    auto* next_data = next.data();

    // Frontier vertices own very different degrees; dynamic chunks keep
    // threads busy on skewed graphs (util/chunking.hpp).
#pragma omp parallel for num_threads(threads) schedule(dynamic, chunk) firstprivate(tree)
    for (std::int64_t fi = 0; fi < fcount; ++fi) {
      const vertex_t v = frontier[static_cast<std::size_t>(fi)];
      const int lane = omp_get_thread_num();
      for (edge_t j = offsets[v]; j < offsets[v + 1]; ++j) {
        const vertex_t u = targets[j];
        if (!tree.discover(scope, v, j, u, l + 1)) continue;
        // The slot-allocating CW: the lane's private cursor costs one shared
        // fetch_add per chunk of discoveries; the baseline RMWs the one
        // shared tail for every discovery.
        next_data[slot_mode == SlotMode::kChunked
                      ? slots.grant(lane)
                      : tail.fetch_add(1, std::memory_order_relaxed)] = u;
      }
    }
    if (slot_mode == SlotMode::kChunked) {
      fsize = slots.compact(next_data);
    } else {
      fsize = tail.exchange(0, std::memory_order_relaxed);
      shared_rmws += fsize;
    }

    std::swap(frontier, next);
    ++l;
  }

  if constexpr (InstrumentedWritePolicy<Policy>) {
    if (slot_mode == SlotMode::kChunked) {
      report_slot_counts(slots.grants(), slots.refills(), slots.refills());
    } else {
      report_slot_counts(shared_rmws, shared_rmws, 0);
    }
  }

  result.rounds = static_cast<std::uint64_t>(l);
  return result;
}

// ---------------------------------------------------------------------------
// The method table behind run_bfs and profile_bfs.

/// A frontier-queue row (always CAS-LT-guarded); `slots` picks the slot.
struct Frontier {
  SlotMode slots;
};
/// The direction-optimizing row: no instrumentable arbiter of its own.
struct DirectionOptimizing {};

using BfsRow = std::variant<PolicyRow<NaivePolicy>, PolicyRow<GatekeeperPolicy>,
                            PolicyRow<GatekeeperSkipPolicy>, PolicyRow<CasLtPolicy>,
                            PolicyRow<CriticalPolicy>, Frontier, DirectionOptimizing>;

constexpr auto kBfsMethods = std::to_array<methods::Entry<BfsRow>>({
    // Figures 7–9: the level-scan kernel under each write policy.
    {"naive", PolicyRow<NaivePolicy>{}},
    {"gatekeeper", PolicyRow<GatekeeperPolicy>{}},
    {"gatekeeper-sparse", PolicyRow<GatekeeperPolicy>{Rearm::kSparse}},
    {"gatekeeper-skip", PolicyRow<GatekeeperSkipPolicy>{}},
    {"caslt", PolicyRow<CasLtPolicy>{}},
    {"critical", PolicyRow<CriticalPolicy>{}},
    // Structural variants beyond the paper's comparison (all CAS-LT based).
    {"frontier", Frontier{SlotMode::kChunked}},
    {"frontier-shared", Frontier{SlotMode::kShared}},
    {"direction-optimizing", DirectionOptimizing{}},
});

}  // namespace

BfsResult bfs_caslt(const Csr& g, vertex_t source, const BfsOptions& opts) {
  return bfs_kernel<CasLtPolicy>(g, source, opts, Rearm::kSweep);
}

BfsResult bfs_frontier(const Csr& g, vertex_t source, const BfsOptions& opts) {
  return bfs_frontier_kernel<CasLtPolicy>(g, source, opts, SlotMode::kChunked);
}

BfsResult bfs_frontier_shared(const Csr& g, vertex_t source, const BfsOptions& opts) {
  return bfs_frontier_kernel<CasLtPolicy>(g, source, opts, SlotMode::kShared);
}

BfsResult bfs_direction_optimizing(const Csr& g, vertex_t source, const BfsOptions& opts) {
  const std::uint64_t n = g.num_vertices();
  BfsResult result = make_result(n, source);
  const Tree tree(result);

  const auto offsets = g.offsets();
  const auto targets = g.targets();

  WriteArbiter<CasLtPolicy> arbiter(n);
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const int bu_chunk = util::bottom_up_chunk();
  const auto count = static_cast<std::int64_t>(n);

  // Switch to bottom-up when the frontier's edge volume exceeds this
  // fraction of the graph (Beamer's alpha heuristic, simplified).
  const std::uint64_t dense_threshold = std::max<std::uint64_t>(1, g.num_edges() / 8);

  std::uint64_t frontier_edges = g.degree(source);
  std::int64_t l = 0;
  bool done = false;
  while (!done) {
    auto scope = arbiter.next_round();
    std::uint8_t frontier_empty = 1;
    std::uint64_t next_edges = 0;

    if (frontier_edges < dense_threshold) {
      // Top-down: the Fig 3(a) step, arbitration by CAS-LT.
#pragma omp parallel for num_threads(threads) schedule(static) firstprivate(tree) \
    reduction(&& : frontier_empty) reduction(+ : next_edges)
      for (std::int64_t vi = 0; vi < count; ++vi) {
        const auto v = static_cast<vertex_t>(vi);
        if (load_level(tree.level[vi]) != l) continue;
        for (edge_t j = offsets[v]; j < offsets[v + 1]; ++j) {
          const vertex_t u = targets[j];
          if (tree.discover(scope, v, j, u, l + 1)) {
            frontier_empty = 0;
            next_edges += g.degree(u);
          }
        }
      }
    } else {
      // Bottom-up: each unvisited vertex claims ITSELF on finding a
      // frontier neighbour. parent/sel_edge/level[u] are written by u's
      // own processor only — exclusive writes, zero CW arbitration.
#pragma omp parallel for num_threads(threads) schedule(dynamic, bu_chunk) firstprivate(tree) \
    reduction(&& : frontier_empty) reduction(+ : next_edges)
      for (std::int64_t ui = 0; ui < count; ++ui) {
        const auto u = static_cast<vertex_t>(ui);
        if (load_level(tree.level[ui]) != -1) continue;
        for (edge_t j = offsets[u]; j < offsets[u + 1]; ++j) {
          const vertex_t v = targets[j];
          if (load_level(tree.level[v]) != l) continue;
          tree.parent[u] = v;
          // Record the (v -> u) slot, like the top-down kernel does. The
          // sorted CSR makes the reverse slot findable by binary search.
          const auto adj_begin = targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
          const auto adj_end = targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
          const auto it = std::lower_bound(adj_begin, adj_end, u);
          tree.sel_edge[u] = offsets[v] + static_cast<edge_t>(it - adj_begin);
          store_relaxed(tree.level[ui], l + 1);
          frontier_empty = 0;
          next_edges += g.degree(u);
          break;
        }
      }
    }

    done = frontier_empty != 0;
    frontier_edges = next_edges;
    ++l;
  }

  result.rounds = static_cast<std::uint64_t>(l);
  return result;
}

BfsResult run_bfs(std::string_view method, const Csr& g, vertex_t source,
                  const BfsOptions& opts) {
  return std::visit(
      methods::Overloaded{
          [&]<WritePolicy P>(PolicyRow<P> row) {
            return bfs_kernel<P>(g, source, opts, row.rearm);
          },
          [&](Frontier row) {
            return bfs_frontier_kernel<CasLtPolicy>(g, source, opts, row.slots);
          },
          [&](DirectionOptimizing) { return bfs_direction_optimizing(g, source, opts); }},
      methods::find(kBfsMethods, "bfs", method));
}

std::optional<obs::ContentionTotals> profile_bfs(std::string_view method, const Csr& g,
                                                 vertex_t source, const BfsOptions& opts) {
  using Profile = std::optional<obs::ContentionTotals>;
  return std::visit(
      methods::Overloaded{
          [&]<WritePolicy P>(PolicyRow<P> row) -> Profile {
            if constexpr (methods::Instrumentable<P>) {
              return methods::profiled([&] {
                (void)bfs_kernel<InstrumentedPolicy<P>>(g, source, opts, row.rearm);
              });
            } else {
              return std::nullopt;
            }
          },
          // The frontier pair also reports its slot-allocation RMWs (a
          // "frontier-slots" site: attempts = slots granted, atomics =
          // shared fetch_adds — chunked grants shrink exactly that number).
          [&](Frontier row) -> Profile {
            return methods::profiled([&] {
              (void)bfs_frontier_kernel<InstrumentedPolicy<CasLtPolicy>>(g, source, opts,
                                                                         row.slots);
            });
          },
          [](DirectionOptimizing) -> Profile { return std::nullopt; }},
      methods::find(kBfsMethods, "bfs", method));
}

}  // namespace crcw::algo
