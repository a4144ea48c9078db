// Constant-time basic Maximum — paper Figure 4 and the Figure 5/6 benchmark.
//
// The textbook O(1)-depth, Θ(N²)-work CRCW maximum: one virtual processor
// per ordered pair (i, j) marks the pair's loser in isMax[]; the survivor is
// the maximum. Every write is a *common* concurrent write of `false`, making
// this "an extreme case of concurrency" (§7.2) — up to N-1 processors
// collide on one flag — and therefore the cleanest microscope for comparing
// CW implementations:
//
//   naive       every loser-comparison stores; coherence serialises them
//   gatekeeper  every loser-comparison runs fetch_add; one stores
//   caslt       first loser-comparison wins the CAS and stores; the rest
//               skip both the atomic and the store after one relaxed load
//
// Tie-break (Fig 4 line 9): equal values lose to the larger index, so the
// maximum is the *last* occurrence of the maximal value.
#pragma once

#include <cstdint>
#include <span>

namespace crcw::algo {

struct MaxOptions {
  int threads = 0;  ///< OpenMP threads; 0 = ambient setting
};

/// Sequential reference (last occurrence of the maximum, per the tie-break).
[[nodiscard]] std::uint64_t max_index_seq(std::span<const std::uint32_t> list);

/// OpenMP reduction baseline — the CREW-style way a practitioner would
/// write this; Θ(N) work. Exists to contextualise the N² kernels.
[[nodiscard]] std::uint64_t max_index_reduce(std::span<const std::uint32_t> list,
                                             const MaxOptions& opts = {});

/// Doubly-logarithmic CRCW maximum (JaJa §2.6): candidates are reduced
/// through groups of size 2, 4, 16, 256, … — each group resolved by the
/// constant-time kernel — giving O(log log N) concurrent-write rounds and
/// O(N) work per round (Θ(N log log N) total), against Figure 4's one
/// round of Θ(N²) work. The §8 "better Work-Depth complexity" counterpart,
/// buildable only because rounds are cheap with CAS-LT (no per-round
/// re-initialisation). Same tie-break as the other kernels.
[[nodiscard]] std::uint64_t max_index_doubly_log(std::span<const std::uint32_t> list,
                                                 const MaxOptions& opts = {});

/// Figure 4 with CAS-LT. Every method of Figures 5–6 — naive, gatekeeper,
/// gatekeeper-skip, caslt, critical — is this one kernel under another
/// write policy, run by name through run_max (algorithms/dispatch.hpp).
[[nodiscard]] std::uint64_t max_index_caslt(std::span<const std::uint32_t> list,
                                            const MaxOptions& opts = {});

}  // namespace crcw::algo
