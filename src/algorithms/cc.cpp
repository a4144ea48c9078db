#include "algorithms/cc.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <span>
#include <stdexcept>
#include <variant>
#include <vector>

#include "algorithms/dispatch.hpp"
#include "algorithms/method_table.hpp"
#include "core/combining.hpp"

namespace crcw::algo {
namespace {

using graph::Csr;
using graph::edge_t;
using graph::vertex_t;
using methods::PolicyRow;

constexpr edge_t kNoEdge = static_cast<edge_t>(-1);

/// Relaxed atomic views over the raced arrays (see bfs.cpp for rationale).
inline void store_v(vertex_t& cell, vertex_t value) noexcept {
  std::atomic_ref<vertex_t>(cell).store(value, std::memory_order_relaxed);
}
inline std::uint8_t load_b(const std::uint8_t& cell) noexcept {
  return std::atomic_ref<const std::uint8_t>(cell).load(std::memory_order_relaxed);
}
inline void store_b(std::uint8_t& cell, std::uint8_t value) noexcept {
  std::atomic_ref<std::uint8_t>(cell).store(value, std::memory_order_relaxed);
}

/// Rows per dynamically scheduled block of a row walk: rows differ in
/// length, so equal vertex ranges per thread would give unequal work.
constexpr int kRowBlock = 512;

/// Calls row(u, first, last) on every CSR row u and its slots [first, last)
/// — "parallelizing across all edges" (§7.2) grouped by source, so a row
/// reads its source's state once and can skip itself whole. True when any
/// row returned true.
template <typename Row>
bool walk_rows(const Csr& g, int threads, Row&& row) {
  const std::span<const edge_t> offsets = g.offsets();
  const auto rows = static_cast<std::int64_t>(g.num_vertices());
  std::uint8_t any_change = 0;
#pragma omp parallel for num_threads(threads) schedule(dynamic, kRowBlock) \
    reduction(| : any_change)
  for (std::int64_t u = 0; u < rows; ++u) {
    if (row(static_cast<vertex_t>(u), offsets[u], offsets[u + 1])) any_change = 1;
  }
  return any_change != 0;
}

/// Star detection (A-S); correct for arbitrary forest depth:
///   1. star[v] = true
///   2. v with a grandparent ≠ parent marks itself, its parent and its
///      grandparent non-star (common CWs of `false`, read before written)
///   3. star[v] = star[P[v]] pulls the root's verdict down to depth-1
///      children (the phase-3 read race is benign: a root's cell does not
///      change in phase 3, and a non-root parent's cell is 0 before and
///      after its own copy, since step 2 cleared it and its parent).
void detect_stars(const std::vector<vertex_t>& parent, std::vector<std::uint8_t>& star,
                  int threads) {
  const auto n = static_cast<std::int64_t>(parent.size());
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t v = 0; v < n; ++v) star[static_cast<std::size_t>(v)] = 1;

  // CAS-LT's own rule for the common writes: read first and skip a write
  // already done, so a root's cell stays shared instead of bouncing
  // between the cores of all its grandchildren.
  const auto clear = [&star](vertex_t cell) {
    if (load_b(star[cell]) != 0) store_b(star[cell], 0);
  };
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t v = 0; v < n; ++v) {
    const vertex_t p = parent[static_cast<std::size_t>(v)];
    const vertex_t gp = parent[p];
    if (p != gp) {
      clear(static_cast<vertex_t>(v));
      clear(p);
      clear(gp);
    }
  }

#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t v = 0; v < n; ++v) {
    const vertex_t p = parent[static_cast<std::size_t>(v)];
    store_b(star[static_cast<std::size_t>(v)], load_b(star[p]));
  }
}

/// Distinct labels, counted as roots: exact once pointer jumping has
/// converged, because every vertex then points at a root.
std::uint64_t count_roots(const std::vector<vertex_t>& parent, int threads) {
  const auto n = static_cast<std::int64_t>(parent.size());
  std::uint64_t roots = 0;
#pragma omp parallel for num_threads(threads) schedule(static) reduction(+ : roots)
  for (std::int64_t v = 0; v < n; ++v) {
    if (parent[static_cast<std::size_t>(v)] == static_cast<vertex_t>(v)) ++roots;
  }
  return roots;
}

/// The Awerbuch–Shiloach kernel of Figures 10–12 over a write policy.
template <WritePolicy Policy>
CcResult cc_kernel(const Csr& g, const CcOptions& opts, Rearm rearm) {
  const std::uint64_t n = g.num_vertices();
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const auto vcount = static_cast<std::int64_t>(n);

  CcResult result;
  result.label.resize(n);
  if (n == 0) return result;

  std::vector<vertex_t>& parent = result.label;  // P[], doubles as the output
  std::vector<vertex_t> snapshot(n);             // pre-substep P (PRAM read set)
  std::vector<std::uint8_t> star(n);
  std::vector<edge_t> hook_edge(n, kNoEdge);  // 2nd member of the multi-array hook
  WriteArbiter<Policy> arbiter(n, {.rearm = rearm, .threads = threads});

#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t v = 0; v < vcount; ++v) {
    parent[static_cast<std::size_t>(v)] = static_cast<vertex_t>(v);
  }

  const auto take_snapshot = [&] {
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t v = 0; v < vcount; ++v) {
      snapshot[static_cast<std::size_t>(v)] = parent[static_cast<std::size_t>(v)];
    }
  };

  // One hooking substep = one arbitrary-CW round: a star's root pu races
  // to hook onto pv = P[v] over every edge (u, v) with hooks(pu, pv). A
  // row whose tree is no star cannot hook and is skipped whole; in a star's
  // row every qualifying edge still attempts, even once pu is taken — the
  // attempt set, and so the contention, is the paper's edge-parallel one.
  const std::span<const vertex_t> targets = g.targets();
  const auto hook_round = [&](auto hooks) {
    take_snapshot();
    // next_round() re-arms the gatekeeper tags once per hooking substep,
    // on the kernel's team — the recurring Θ(N) cost CAS-LT does not pay
    // (§6); the sparse re-arm resets only last substep's winning hooks.
    auto scope = arbiter.next_round();
    return walk_rows(g, threads, [&](vertex_t u, edge_t first, edge_t last) {
      if (star[u] == 0) return false;
      const vertex_t pu = snapshot[u];
      bool hooked = false;
      for (edge_t j = first; j < last; ++j) {
        const vertex_t pv = snapshot[targets[j]];
        if (hooks(pu, pv) && scope.acquire(pu)) {
          // The multi-array hook update of §7.2: new parent + hook edge
          // must come from ONE winning edge, or the pair is inconsistent.
          store_v(parent[pu], pv);
          hook_edge[pu] = j;
          hooked = true;
        }
      }
      return hooked;
    });
  };

  // Safety net for implementation bugs: A-S converges in O(log n)
  // iterations; exceeding a generous multiple means non-convergence.
  std::uint64_t max_iters = 16;
  for (std::uint64_t s = 1; s < n; s *= 2) max_iters += 4;

  std::uint64_t iterations = 0;
  bool changed = true;

  while (changed) {
    if (++iterations > max_iters) {
      throw std::runtime_error("cc_kernel: exceeded iteration bound (no convergence)");
    }
    std::uint8_t any_change = 0;

    // --- 1. star detection -------------------------------------------------
    detect_stars(parent, star, threads);

    // --- 2. conditional star hooking (one arbitrary-CW round) --------------
    if (hook_round([](vertex_t pu, vertex_t pv) { return pv < pu; })) any_change = 1;

    // --- 3. star detection on the hooked forest ----------------------------
    detect_stars(parent, star, threads);

    // --- 4. unconditional star hooking (one arbitrary-CW round) ------------
    // Two extra guards beyond the textbook `pv != pu`, both protecting the
    // invariant that a committed hook is PERMANENT (lockstep A-S instead
    // lets transient 2-cycles form and dissolve in the next jump — e.g.
    // two stars assembled by this iteration's conditional phase can be
    // mutually adjacent here and hook each other; harmless for labels,
    // fatal for the recorded spanning forest):
    //   * snapshot[pv] == pv — hook onto a settled ROOT, never a vertex
    //     whose own root moved this iteration;
    //   * pv > pu — orient unconditional hooks strictly UPWARD, so the
    //     round's hook digraph on tree roots is increasing and therefore
    //     acyclic under any interleaving. A star blocked by either guard
    //     merges in a later round once pointer jumping exposes the
    //     neighbouring root (downward merges belong to the conditional
    //     phase by construction).
    const auto onto_settled_root = [&](vertex_t pu, vertex_t pv) {
      return pv > pu && snapshot[pv] == pv;
    };
    if (hook_round(onto_settled_root)) any_change = 1;

    // --- 5. pointer jumping -------------------------------------------------
    take_snapshot();
#pragma omp parallel for num_threads(threads) schedule(static) \
    reduction(| : any_change)
    for (std::int64_t v = 0; v < vcount; ++v) {
      const vertex_t target = snapshot[snapshot[static_cast<std::size_t>(v)]];
      if (target != parent[static_cast<std::size_t>(v)]) {
        parent[static_cast<std::size_t>(v)] = target;
        any_change = 1;
      }
    }

    changed = any_change != 0;
  }

  result.iterations = iterations;
  result.components = count_roots(result.label, threads);
  // A root is hooked at most once in its lifetime (a hooked root never
  // becomes a root again), so the per-root hook records are final and
  // together form the spanning forest: one edge per merged tree.
  for (std::uint64_t v = 0; v < n; ++v) {
    if (hook_edge[v] != kNoEdge) result.forest_edges.push_back(hook_edge[v]);
  }
  return result;
}

/// The min-label hooking row (cc_min_hook): combining writes, no arbiter.
struct MinHook {};

using CcRow = std::variant<PolicyRow<GatekeeperPolicy>, PolicyRow<GatekeeperSkipPolicy>,
                           PolicyRow<CasLtPolicy>, PolicyRow<CriticalPolicy>, MinHook>;

/// The method table behind run_cc and profile_cc: Figures 10–12 run the
/// A-S kernel under each write policy (no naive row — see cc.hpp).
constexpr auto kCcMethods = std::to_array<methods::Entry<CcRow>>({
    {"gatekeeper", PolicyRow<GatekeeperPolicy>{}},
    {"gatekeeper-sparse", PolicyRow<GatekeeperPolicy>{Rearm::kSparse}},
    {"gatekeeper-skip", PolicyRow<GatekeeperSkipPolicy>{}},
    {"caslt", PolicyRow<CasLtPolicy>{}},
    {"critical", PolicyRow<CriticalPolicy>{}},
    {"min-hook", MinHook{}},
});

}  // namespace

CcResult cc_caslt(const Csr& g, const CcOptions& opts) {
  return cc_kernel<CasLtPolicy>(g, opts, Rearm::kSweep);
}

CcResult cc_min_hook(const Csr& g, const CcOptions& opts) {
  const std::uint64_t n = g.num_vertices();
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const auto vcount = static_cast<std::int64_t>(n);

  CcResult result;
  result.label.resize(n);
  if (n == 0) return result;

  std::vector<vertex_t>& parent = result.label;
  std::vector<vertex_t> snapshot(n);
  const std::span<const vertex_t> targets = g.targets();

#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t v = 0; v < vcount; ++v) {
    parent[static_cast<std::size_t>(v)] = static_cast<vertex_t>(v);
  }

  const auto take_snapshot = [&] {
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t v = 0; v < vcount; ++v) {
      snapshot[static_cast<std::size_t>(v)] = parent[static_cast<std::size_t>(v)];
    }
  };

  std::uint64_t max_iters = 16;
  for (std::uint64_t s = 1; s < n; s *= 2) max_iters += 4;

  std::uint64_t iterations = 0;
  bool changed = true;
  while (changed) {
    if (++iterations > max_iters) {
      throw std::runtime_error("cc_min_hook: exceeded iteration bound");
    }
    std::uint8_t any_change = 0;

    // Hooking: offer the smaller endpoint label into the larger label's
    // cell (atomic fetch-min = Priority(min-value) CW). Since the written
    // value is always strictly below the target index, parent[i] <= i is an
    // invariant and the forest can never form a cycle, whatever the
    // interleaving — monotonicity replaces A-S's star machinery.
    take_snapshot();
    const auto lower = [&](vertex_t u, edge_t first, edge_t last) {
      const vertex_t pu = snapshot[u];
      bool any = false;
      for (edge_t j = first; j < last; ++j) {
        const vertex_t pv = snapshot[targets[j]];
        if (pu == pv) continue;
        std::atomic_ref<vertex_t> cell(parent[std::max(pu, pv)]);
        if (atomic_fetch_min(cell, std::min(pu, pv))) any = true;
      }
      return any;
    };
    if (walk_rows(g, threads, lower)) any_change = 1;

    // Full pointer compression: jump until every pointer is a fixpoint.
    bool compressing = true;
    while (compressing) {
      std::uint8_t jumped = 0;
      take_snapshot();
#pragma omp parallel for num_threads(threads) schedule(static) \
    reduction(| : jumped)
      for (std::int64_t v = 0; v < vcount; ++v) {
        const vertex_t target = snapshot[snapshot[static_cast<std::size_t>(v)]];
        if (target != parent[static_cast<std::size_t>(v)]) {
          parent[static_cast<std::size_t>(v)] = target;
          jumped = 1;
        }
      }
      compressing = jumped != 0;
      if (jumped != 0) any_change = 1;
    }

    changed = any_change != 0;
  }

  result.iterations = iterations;
  result.components = count_roots(result.label, threads);
  return result;
}

CcResult run_cc(std::string_view method, const Csr& g, const CcOptions& opts) {
  return std::visit(
      methods::Overloaded{
          [&]<WritePolicy P>(PolicyRow<P> row) { return cc_kernel<P>(g, opts, row.rearm); },
          [&](MinHook) { return cc_min_hook(g, opts); }},
      methods::find(kCcMethods, "cc", method));
}

std::optional<obs::ContentionTotals> profile_cc(std::string_view method, const Csr& g,
                                                const CcOptions& opts) {
  using Profile = std::optional<obs::ContentionTotals>;
  return std::visit(
      methods::Overloaded{[&]<WritePolicy P>(PolicyRow<P> row) -> Profile {
                            if constexpr (methods::Instrumentable<P>) {
                              return methods::profiled([&] {
                                (void)cc_kernel<InstrumentedPolicy<P>>(g, opts, row.rearm);
                              });
                            } else {
                              return std::nullopt;
                            }
                          },
                          [](MinHook) -> Profile { return std::nullopt; }},
      methods::find(kCcMethods, "cc", method));
}

}  // namespace crcw::algo
