// Connected Components — paper §7.2 "Connected Components Algorithm" and
// the Figure 10/11/12 benchmark.
//
// The Awerbuch–Shiloach (1987) algorithm: a Shiloach–Vishkin variant whose
// hooking decisions are simplified by star detection. State is a parent
// forest P[] (roots are self-loops); each iteration:
//
//   1. star detection            (3 common-CW substeps)
//   2. conditional star hooking  for each edge (u,v): a star containing u
//                                hooks its root onto P[v] when P[v] < P[u]
//   3. star detection again
//   4. unconditional star hooking: surviving stars hook onto any adjacent
//                                different tree (guarantees progress)
//   5. pointer jumping           P[v] = P[P[v]]
//
// Hooking is an *arbitrary* concurrent write: many edges compete to set a
// root's parent, and the winning edge must update multiple cells atomically
// as a unit (the new parent AND the hook-edge record) — which is why the
// paper implements no naive CC variant: racing multi-array updates can
// commit a mix of two different hooks (§5). Every level of the CW guard
// (gatekeeper / CAS-LT / critical) is provided; each hooking substep is one
// concurrent-write round.
//
// Requiring P[v] < P[u] in step 2 orients conditional hooks downward, so the
// forest stays acyclic; unconditional hooking is restricted to stars that
// survived step 3, which cannot have been hooked in this iteration.
//
// Around the writes, the kernel keeps its own work small:
//   * Both hooking steps walk the CSR rows in dynamically scheduled blocks
//     (rows differ in length). A row loads star[u] and P[u] once and is
//     skipped whole when u's tree is not a star, since it cannot hook.
//   * The attempt set is unchanged: in a star's row every edge that meets
//     the hooking condition still calls acquire(P[u]), even after the root
//     is taken, so each round sees the same attempts on the same targets as
//     an edge-parallel loop — the contention Figures 10–12 measure.
//   * Star detection reads a cell before its common write of `false` and
//     skips the store when the cell is already false — CAS-LT's own rule —
//     so a root's cell is not bounced between the cores of its grandchildren.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace crcw::algo {

struct CcOptions {
  int threads = 0;  ///< OpenMP threads; 0 = ambient setting
};

struct CcResult {
  /// Component representative per vertex (a root id; canonicalise with
  /// graph::canonicalize_labels before comparing across runs).
  std::vector<graph::vertex_t> label;
  /// CSR slots whose hooks committed — a spanning forest: exactly
  /// (n − components) edges whose union-find partition equals `label`.
  /// This is the second member of the multi-array hook update (§7.2) and
  /// why CC has no safe naive variant: a racing hook could record an edge
  /// belonging to a different winner. Empty for cc_min_hook (combining
  /// writes carry no payload).
  std::vector<graph::edge_t> forest_edges;
  std::uint64_t iterations = 0;   ///< hook+jump iterations executed
  std::uint64_t components = 0;   ///< number of distinct labels
};

/// The A-S kernel with CAS-LT. Every method of Figures 10–12 — gatekeeper,
/// gatekeeper-sparse, gatekeeper-skip, caslt, critical — is this one kernel
/// under another write policy, run by name through run_cc
/// (algorithms/dispatch.hpp).
[[nodiscard]] CcResult cc_caslt(const graph::Csr& g, const CcOptions& opts = {});

/// Shiloach–Vishkin-style min-label hooking baseline: every edge offers the
/// smaller endpoint label to the larger label's cell via atomic fetch-min
/// (a Priority(min-value) CW, core/combining.hpp), followed by full pointer
/// compression. Monotone — parent[i] < i always — so it is acyclic under
/// any interleaving, no star/stagnancy machinery needed. This is the
/// formulation modern GPU CC codes derive from SV.
[[nodiscard]] CcResult cc_min_hook(const graph::Csr& g, const CcOptions& opts = {});

}  // namespace crcw::algo
