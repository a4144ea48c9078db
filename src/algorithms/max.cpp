#include "algorithms/max.hpp"

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

namespace crcw::algo {
namespace {

using methods::PolicyRow;

void require_nonempty(std::span<const std::uint32_t> list) {
  if (list.empty()) throw std::invalid_argument("max of empty list");
}

/// Fig 4 line 9: true iff i loses the (i, j) comparison.
inline bool loses(std::span<const std::uint32_t> list, std::uint64_t i,
                  std::uint64_t j) noexcept {
  return list[i] < list[j] || (list[i] == list[j] && i < j);
}

/// Serial scan for the surviving flag (Fig 4 lines 13-14: last survivor).
std::uint64_t survivor(std::span<const std::uint8_t> is_max) {
  std::uint64_t max_idx = 0;
  for (std::uint64_t j = 0; j < is_max.size(); ++j) {
    if (is_max[j] != 0) max_idx = j;
  }
  return max_idx;
}

/// The Figure 4 kernel over a write policy; isMax flags and policy tags are
/// allocated per call. Flattens the collapse(2) pair loop into one index
/// space of N² virtual processors.
template <WritePolicy Policy>
std::uint64_t max_index_kernel(std::span<const std::uint32_t> list, const MaxOptions& opts) {
  require_nonempty(list);
  const std::uint64_t n = list.size();
  std::vector<std::uint8_t> is_max(n, 1);
  methods::ArbiterFor<Policy> arbiter(n);
  auto scope = arbiter.next_round();

  const auto pairs = static_cast<std::int64_t>(n * n);
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
#pragma omp parallel for num_threads(threads) schedule(static)
  for (std::int64_t k = 0; k < pairs; ++k) {
    const auto i = static_cast<std::uint64_t>(k) / n;
    const auto j = static_cast<std::uint64_t>(k) % n;
    if (i == j) continue;
    const std::uint64_t loser = loses(list, i, j) ? i : j;
    // Common concurrent write of `false` (Fig 4 line 10), through relaxed
    // atomic_ref: the same x86 mov as a plain store, and no C++ data race.
    // Naive admits every writer and lets coherence serialise the stores;
    // the other policies admit one and let every later contender skip
    // (tags stay valid: one round total).
    if (scope.acquire(loser)) {
      std::atomic_ref<std::uint8_t>(is_max[loser]).store(0, std::memory_order_relaxed);
    }
  }
  // Implicit barrier above is the PRAM synchronisation point before the
  // dependent read below.
  return survivor(is_max);
}

/// The O(N)-work OpenMP reduction row (max_index_reduce).
struct Reduce {};

using MaxRow = std::variant<PolicyRow<NaivePolicy>, PolicyRow<GatekeeperPolicy>,
                            PolicyRow<GatekeeperSkipPolicy>, PolicyRow<CasLtPolicy>,
                            PolicyRow<CriticalPolicy>, Reduce>;

/// The method table behind run_max and profile_max: Figures 5–6 run the
/// Figure 4 kernel under each write policy. Max is one round, so every
/// policy row keeps the default re-arm (the arbiter's serial sweep of its
/// fresh tags).
constexpr auto kMaxMethods = std::to_array<methods::Entry<MaxRow>>({
    {"naive", PolicyRow<NaivePolicy>{}},
    {"gatekeeper", PolicyRow<GatekeeperPolicy>{}},
    {"gatekeeper-skip", PolicyRow<GatekeeperSkipPolicy>{}},
    {"caslt", PolicyRow<CasLtPolicy>{}},
    {"critical", PolicyRow<CriticalPolicy>{}},
    {"reduce", Reduce{}},
});

}  // namespace

std::uint64_t max_index_seq(std::span<const std::uint32_t> list) {
  require_nonempty(list);
  std::uint64_t best = 0;
  for (std::uint64_t i = 1; i < list.size(); ++i) {
    if (list[i] >= list[best]) best = i;  // >=: last occurrence wins ties
  }
  return best;
}

std::uint64_t max_index_reduce(std::span<const std::uint32_t> list, const MaxOptions& opts) {
  require_nonempty(list);
  const auto n = static_cast<std::int64_t>(list.size());
  std::int64_t best = 0;
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
#pragma omp parallel num_threads(threads)
  {
    std::int64_t local = 0;
#pragma omp for nowait
    for (std::int64_t i = 1; i < n; ++i) {
      if (list[static_cast<std::size_t>(i)] >= list[static_cast<std::size_t>(local)]) {
        local = i;
      }
    }
#pragma omp critical
    {
      if (list[static_cast<std::size_t>(local)] > list[static_cast<std::size_t>(best)] ||
          (list[static_cast<std::size_t>(local)] == list[static_cast<std::size_t>(best)] &&
           local > best)) {
        best = local;
      }
    }
  }
  return static_cast<std::uint64_t>(best);
}

std::uint64_t max_index_doubly_log(std::span<const std::uint32_t> list,
                                   const MaxOptions& opts) {
  require_nonempty(list);
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();

  // Surviving candidate indices into `list`; shrinks by the group factor
  // per round.
  std::vector<std::uint64_t> candidates(list.size());
  for (std::uint64_t i = 0; i < list.size(); ++i) candidates[i] = i;
  std::vector<std::uint64_t> winners;
  std::vector<std::uint8_t> is_max(list.size(), 1);
  WriteArbiter<CasLtPolicy> arbiter(list.size());

  // Compares candidate positions a, b within the round (Fig 4 tie-break on
  // the ORIGINAL indices so the overall winner matches max_index_seq).
  const auto loses_cand = [&](std::uint64_t a, std::uint64_t b) {
    const std::uint64_t ia = candidates[a];
    const std::uint64_t ib = candidates[b];
    return list[ia] < list[ib] || (list[ia] == list[ib] && ia < ib);
  };

  std::uint64_t group = 2;  // 2, 4, 16, 256, 65536, ... (squares)
  while (candidates.size() > 1) {
    const std::uint64_t m = candidates.size();
    const std::uint64_t g = std::min<std::uint64_t>(group, m);
    const std::uint64_t groups = (m + g - 1) / g;
    auto scope = arbiter.next_round();  // CAS-LT: no sweep

    // One CW round: every in-group pair marks its loser. Work per round is
    // #groups * g^2 = O(m * g) = O(n) by the group-size schedule.
    const auto pairs = static_cast<std::int64_t>(groups * g * g);
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t k = 0; k < pairs; ++k) {
      const auto gk = static_cast<std::uint64_t>(k);
      const std::uint64_t grp = gk / (g * g);
      const std::uint64_t i = grp * g + (gk % (g * g)) / g;
      const std::uint64_t j = grp * g + (gk % g);
      if (i >= m || j >= m || i == j) continue;
      const std::uint64_t loser = loses_cand(i, j) ? i : j;
      if (scope.acquire(loser)) is_max[loser] = 0;
    }

    // Gather the per-group survivors (exclusive writes, one per group).
    winners.assign(groups, 0);
#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t t = 0; t < static_cast<std::int64_t>(groups); ++t) {
      const auto grp = static_cast<std::uint64_t>(t);
      std::uint64_t w = candidates[grp * g];  // singleton groups keep their member
      for (std::uint64_t i = grp * g; i < std::min(m, (grp + 1) * g); ++i) {
        if (is_max[i] != 0) w = candidates[i];
      }
      winners[grp] = w;
    }
    candidates.swap(winners);
    std::fill(is_max.begin(), is_max.begin() + static_cast<std::ptrdiff_t>(candidates.size()),
              1);
    if (group <= (std::uint64_t{1} << 16)) group = group * group;  // avoid overflow
  }
  return candidates[0];
}

std::uint64_t max_index_caslt(std::span<const std::uint32_t> list, const MaxOptions& opts) {
  return max_index_kernel<CasLtPolicy>(list, opts);
}

std::uint64_t run_max(std::string_view method, std::span<const std::uint32_t> list,
                      const MaxOptions& opts) {
  return std::visit(
      methods::Overloaded{
          [&]<WritePolicy P>(PolicyRow<P>) { return max_index_kernel<P>(list, opts); },
          [&](Reduce) { return max_index_reduce(list, opts); }},
      methods::find(kMaxMethods, "max", method));
}

std::optional<obs::ContentionTotals> profile_max(std::string_view method,
                                                 std::span<const std::uint32_t> list,
                                                 const MaxOptions& opts) {
  using Profile = std::optional<obs::ContentionTotals>;
  return std::visit(
      methods::Overloaded{[&]<WritePolicy P>(PolicyRow<P>) -> Profile {
                            if constexpr (methods::Instrumentable<P>) {
                              return methods::profiled([&] {
                                (void)max_index_kernel<InstrumentedPolicy<P>>(list, opts);
                              });
                            } else {
                              return std::nullopt;
                            }
                          },
                          [](Reduce) -> Profile { return std::nullopt; }},
      methods::find(kMaxMethods, "max", method));
}

}  // namespace crcw::algo
