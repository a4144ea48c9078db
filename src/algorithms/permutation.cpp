#include "algorithms/permutation.hpp"

#include <omp.h>

#include <atomic>
#include <stdexcept>
#include <utility>

#include "core/arbiter.hpp"
#include "core/slot_alloc.hpp"
#include "util/rng.hpp"

namespace crcw::algo {

PermutationResult random_permutation(std::uint64_t n, const PermutationOptions& opts) {
  if (opts.expansion < 2) {
    throw std::invalid_argument("random_permutation: expansion must be >= 2");
  }
  PermutationResult result;
  result.perm.reserve(n);
  if (n == 0) return result;

  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  const std::uint64_t slots = n * opts.expansion;

  constexpr std::uint64_t kEmpty = static_cast<std::uint64_t>(-1);
  std::vector<std::uint64_t> slot_owner(slots, kEmpty);
  WriteArbiter<CasLtPolicy> arbiter(slots);

  // Misses re-enqueue through per-thread chunked slot grants (one shared
  // RMW per chunk, core/slot_alloc.hpp); rounds re-dart every survivor, so
  // the compaction's unspecified order is immaterial. Both buffers carry
  // the grants' per-lane slack and swap between rounds.
  SlotAllocator slot_alloc(threads);
  const auto cap = static_cast<std::size_t>(slot_alloc.capacity_for(n));
  std::vector<std::uint64_t> pending(cap);
  std::vector<std::uint64_t> still_pending(cap);
  for (std::uint64_t i = 0; i < n; ++i) pending[i] = i;
  std::uint64_t pcount_u = n;

  // Safety bound: expected O(log n) rounds w.h.p. with expansion >= 2.
  std::uint64_t max_rounds = 64;
  for (std::uint64_t s = 1; s < n; s *= 2) max_rounds += 8;

  while (pcount_u > 0) {
    if (++result.rounds > max_rounds) {
      throw std::runtime_error("random_permutation: exceeded round bound");
    }
    auto scope = arbiter.next_round();  // CAS-LT: no sweep
    const auto pcount = static_cast<std::int64_t>(pcount_u);
    auto* still_data = still_pending.data();

#pragma omp parallel for num_threads(threads) schedule(static)
    for (std::int64_t pi = 0; pi < pcount; ++pi) {
      const std::uint64_t element = pending[static_cast<std::size_t>(pi)];
      // Per-(element, round) deterministic dart — every virtual processor
      // derives its own stream, PRAM style.
      util::SplitMix64 sm(opts.seed ^ (element * 0x9e3779b97f4a7c15ull) ^
                          (result.rounds << 32));
      const std::uint64_t target = sm.next() % slots;
      // The dart: an arbitrary concurrent write into the slot. Note the
      // round id makes previously WON slots stay won (their tag is from an
      // older round, but their owner is recorded) — so a slot is
      // re-contestable only if it was never claimed, checked below.
      const std::uint64_t seen =
          std::atomic_ref<const std::uint64_t>(slot_owner[target])
              .load(std::memory_order_relaxed);
      if (seen == kEmpty && scope.acquire(target)) {
        std::atomic_ref<std::uint64_t>(slot_owner[target])
            .store(element, std::memory_order_relaxed);
      } else {
        still_data[slot_alloc.grant(omp_get_thread_num())] = element;
      }
    }

    pcount_u = slot_alloc.compact(still_data);
    std::swap(pending, still_pending);
  }

  // Readout: occupied slots in slot order give the permutation.
  for (std::uint64_t s = 0; s < slots; ++s) {
    if (slot_owner[s] != kEmpty) result.perm.push_back(slot_owner[s]);
  }
  return result;
}

}  // namespace crcw::algo
