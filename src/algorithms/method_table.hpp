// Method tables for the paper's kernels — private to src/algorithms.
//
// bfs.cpp, max.cpp and cc.cpp each hold ONE table that maps a `--method`
// name to a row: either a PolicyRow<P> — the kernel template instantiated
// with write policy P, which is all that distinguishes the methods of one
// figure ("they differ only in the canConWrite call", §7) — or a row for
// a structural variant with its own loop. run_X runs a PolicyRow with P
// and profile_X runs the same kernel with InstrumentedPolicy<P>, so a name
// can never time one kernel and count another.
//
// A PolicyRow also names how a gatekeeper-family kernel re-arms its tags
// (Rearm::kSweep or kSparse). The kernel only passes that, with its thread
// count, to the arbiter it builds; the arbiter's next_round() does the
// re-arm, on that team, before each round (core/arbiter.hpp).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "core/arbiter.hpp"
#include "core/instrumented.hpp"
#include "obs/metrics.hpp"

namespace crcw::algo::methods {

/// A table row that runs the kernel template under write policy P.
/// Reset-free policies ignore `rearm`.
template <WritePolicy P>
struct PolicyRow {
  Rearm rearm = Rearm::kSweep;
};

/// Policies with a counting tag (core/instrumented.hpp). profile_X answers
/// nullopt for the others: naive has no tag, critical a mutex.
template <typename P>
concept Instrumentable =
    std::is_same_v<P, CasLtPolicy> || std::is_same_v<P, GatekeeperPolicy> ||
    std::is_same_v<P, GatekeeperSkipPolicy>;

/// Stand-in arbiter for NaivePolicy, which admits every writer: it keeps the
/// kernel template uniform without a WriteArbiter of empty tags, so naive
/// allocates, first-touches and sweeps no tag array.
struct NoTags {
  struct Scope {
    static constexpr bool acquire(std::size_t /*target*/) noexcept { return true; }
  };
  explicit NoTags(std::size_t /*targets*/, const ArbiterConfig& /*cfg*/ = {}) noexcept {}
  static Scope next_round() noexcept { return {}; }
};

/// The tag array a policy kernel arbitrates through.
template <WritePolicy P>
using ArbiterFor = std::conditional_t<kSingleWinner<P>, WriteArbiter<P>, NoTags>;

/// One table entry: a method name and what it runs.
template <typename Row>
struct Entry {
  std::string_view name;
  Row row;
};

[[noreturn]] inline void unknown(std::string_view kernel, std::string_view method) {
  throw std::invalid_argument("unknown " + std::string(kernel) + " method '" +
                              std::string(method) + "'");
}

/// The row named `method`; throws std::invalid_argument for an unknown name.
template <typename Table>
const auto& find(const Table& table, std::string_view kernel, std::string_view method) {
  for (const auto& entry : table) {
    if (entry.name == method) return entry.row;
  }
  unknown(kernel, method);
}

/// Runs `fn` with new ContentionSites redirected into a private registry
/// and returns everything they counted (sites die with the kernel's
/// arbiters; the registry retains their totals).
template <typename Fn>
obs::ContentionTotals profiled(Fn&& fn) {
  obs::MetricsRegistry local;
  const obs::ScopedRegistry scoped(local);
  fn();
  return local.totals();
}

/// std::visit over a row with one lambda per row type.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

}  // namespace crcw::algo::methods
