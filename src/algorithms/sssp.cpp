#include "algorithms/sssp.hpp"

#include <omp.h>

#include <atomic>
#include <queue>
#include <stdexcept>

#include "core/arbiter.hpp"
#include "core/combining.hpp"
#include "core/priority.hpp"
#include "util/aligned_buffer.hpp"

namespace crcw::algo {
namespace {

using graph::kNoVertex;
using graph::vertex_t;

void check_input(std::uint64_t n, std::span<const WeightedEdge> edges, vertex_t source) {
  if (source >= n) throw std::invalid_argument("sssp: source out of range");
  for (const auto& e : edges) {
    if (e.u >= n || e.v >= n) throw std::invalid_argument("sssp: endpoint out of range");
  }
}

}  // namespace

SsspResult sssp_two_phase(std::uint64_t n, std::span<const WeightedEdge> edges,
                          vertex_t source, const SsspOptions& opts) {
  check_input(n, edges, source);
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const auto ecount = static_cast<std::int64_t>(edges.size());
  const auto vcount = static_cast<std::int64_t>(n);

  SsspResult result;
  result.dist.assign(n, kUnreachable);
  result.parent.assign(n, kNoVertex);
  result.dist[source] = 0;

  std::vector<std::uint64_t> snapshot(n);
  util::AlignedBuffer<PriorityCell<std::uint64_t, vertex_t>> cells(n);
  WriteArbiter<CasLtPolicy> ties(n);
  auto* dist = result.dist.data();
  auto* parent = result.parent.data();

  bool changed = true;
  while (changed) {
    if (++result.rounds > n) {
      throw std::runtime_error("sssp_two_phase: exceeded round bound");
    }
    std::uint8_t any = 0;

#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t v = 0; v < vcount; ++v) {
      snapshot[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(v)];
      cells[static_cast<std::size_t>(v)].reset();
    }

    // Phase 1: every improving relaxation offers its candidate distance —
    // a Priority(min-value) concurrent write per target vertex.
    const auto offer = [&](vertex_t u, vertex_t v, std::uint32_t w) {
      const std::uint64_t du = snapshot[u];
      if (du == kUnreachable) return;
      const std::uint64_t cand = du + w;
      if (cand < snapshot[v]) cells[v].offer(cand);
    };
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t j = 0; j < ecount; ++j) {
      const auto& e = edges[static_cast<std::size_t>(j)];
      offer(e.u, e.v, e.weight);
      offer(e.v, e.u, e.weight);
    }

    // Phase 2 (after the barrier): holders of the winning key commit the
    // multi-word (dist, parent) update. Equal-key ties are arbitrated by a
    // CAS-LT tag so exactly one writer touches the pair — priority CW
    // selects the value, arbitrary CW selects the writer.
    auto tie_scope = ties.next_round();
    const auto commit = [&](vertex_t u, vertex_t v, std::uint32_t w,
                            std::uint8_t& any_flag) {
      const std::uint64_t du = snapshot[u];
      if (du == kUnreachable) return;
      const std::uint64_t cand = du + w;
      if (cand >= snapshot[v]) return;
      const auto& cell = cells[v];
      if (cell.untouched() || cell.best_key() != cand) return;
      if (tie_scope.acquire(v)) {
        dist[v] = cand;
        parent[v] = u;
        any_flag = 1;
      }
    };
#pragma omp parallel for num_threads(threads) schedule(static) reduction(| : any)
    for (std::int64_t j = 0; j < ecount; ++j) {
      const auto& e = edges[static_cast<std::size_t>(j)];
      commit(e.u, e.v, e.weight, any);
      commit(e.v, e.u, e.weight, any);
    }

    changed = any != 0;
  }
  return result;
}

SsspResult sssp_fetch_min(std::uint64_t n, std::span<const WeightedEdge> edges,
                          vertex_t source, const SsspOptions& opts) {
  check_input(n, edges, source);
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const auto ecount = static_cast<std::int64_t>(edges.size());
  const auto vcount = static_cast<std::int64_t>(n);

  SsspResult result;
  result.dist.assign(n, kUnreachable);
  result.parent.assign(n, kNoVertex);
  result.dist[source] = 0;

  std::vector<std::uint64_t> snapshot(n);
  auto* dist = result.dist.data();

  bool changed = true;
  while (changed) {
    if (++result.rounds > n) {
      throw std::runtime_error("sssp_fetch_min: exceeded round bound");
    }
    std::uint8_t any = 0;

#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t v = 0; v < vcount; ++v) {
      snapshot[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(v)];
    }

    const auto relax = [&](vertex_t u, vertex_t v, std::uint32_t w,
                           std::uint8_t& any_flag) {
      const std::uint64_t du = snapshot[u];
      if (du == kUnreachable) return;
      const std::uint64_t cand = du + w;
      if (cand < snapshot[v]) {
        if (atomic_fetch_min(std::atomic_ref<std::uint64_t>(dist[v]), cand)) any_flag = 1;
      }
    };
#pragma omp parallel for num_threads(threads) schedule(static) reduction(| : any)
    for (std::int64_t j = 0; j < ecount; ++j) {
      const auto& e = edges[static_cast<std::size_t>(j)];
      relax(e.u, e.v, e.weight, any);
      relax(e.v, e.u, e.weight, any);
    }
    changed = any != 0;
  }

  // Parent recovery: any tight incident edge is a valid parent — an
  // arbitrary CW per vertex, guarded so the write happens exactly once.
  WriteArbiter<CasLtPolicy> arbiter(n);
  auto scope = arbiter.next_round();
  auto* parent = result.parent.data();
  const auto adopt = [&](vertex_t u, vertex_t v, std::uint32_t w) {
    if (v == source) return;
    const std::uint64_t du = result.dist[u];
    if (du == kUnreachable || result.dist[v] != du + w) return;
    if (scope.acquire(v)) parent[v] = u;
  };
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t j = 0; j < ecount; ++j) {
    const auto& e = edges[static_cast<std::size_t>(j)];
    adopt(e.u, e.v, e.weight);
    adopt(e.v, e.u, e.weight);
  }
  return result;
}

std::vector<std::uint64_t> sssp_dijkstra(std::uint64_t n,
                                         std::span<const WeightedEdge> edges,
                                         vertex_t source) {
  check_input(n, edges, source);
  std::vector<std::vector<std::pair<vertex_t, std::uint32_t>>> adj(n);
  for (const auto& e : edges) {
    adj[e.u].push_back({e.v, e.weight});
    adj[e.v].push_back({e.u, e.weight});
  }
  std::vector<std::uint64_t> dist(n, kUnreachable);
  dist[source] = 0;
  using Item = std::pair<std::uint64_t, vertex_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.push({0, source});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[v]) continue;
    for (const auto& [u, w] : adj[v]) {
      if (d + w < dist[u]) {
        dist[u] = d + w;
        heap.push({dist[u], u});
      }
    }
  }
  return dist;
}

bool validate_sssp(std::uint64_t n, std::span<const WeightedEdge> edges, vertex_t source,
                   const SsspResult& result) {
  if (result.dist.size() != n || result.parent.size() != n) return false;
  const auto expected = sssp_dijkstra(n, edges, source);
  for (std::uint64_t v = 0; v < n; ++v) {
    if (result.dist[v] != expected[v]) return false;
  }

  // Tight-parent check needs edge weights per pair; build a min-weight map
  // through adjacency scanning (sequential: this is a test-support path).
  std::vector<std::vector<std::pair<vertex_t, std::uint32_t>>> adj(n);
  for (const auto& e : edges) {
    adj[e.u].push_back({e.v, e.weight});
    adj[e.v].push_back({e.u, e.weight});
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    const vertex_t p = result.parent[v];
    if (v == source) {
      if (p != kNoVertex) return false;
      continue;
    }
    if (result.dist[v] == kUnreachable) {
      if (p != kNoVertex) return false;
      continue;
    }
    if (p == kNoVertex || p >= n) return false;
    bool tight = false;
    for (const auto& [u, w] : adj[p]) {
      if (u == v && result.dist[p] + w == result.dist[v]) tight = true;
    }
    if (!tight) return false;
  }
  return true;
}

}  // namespace crcw::algo
