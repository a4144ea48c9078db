// Sparse gatekeeper re-arm under raw-thread schedules. The tier-1 suites
// exercise it on an OpenMP team; this tier builds the arbiter with one
// re-arm thread, so next_round() re-arms serially — no OpenMP regions at
// all — and acquires with explicit touched-list lanes, so TSan can check
// the claim the sparse scheme rests on: winner-only touch recording
// captures the exact dirty tag set, and resetting just that set leaves
// every tag fresh.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "core/arbiter.hpp"
#include "stress_common.hpp"
#include "util/rng.hpp"

namespace crcw {
namespace {

using stress::run_lockstep;
using stress::scaled;
using stress::thread_count;

/// Sparse re-arm on the calling thread (threads = 1), one lane per raw
/// thread.
ArbiterConfig tracked_config(int lanes) {
  return {.rearm = Rearm::kSparse, .threads = 1, .lanes = lanes};
}

/// Frontier-shaped rounds: a small distinct target set under full
/// contention. The audit runs the serial sparse re-arm and then scans ALL
/// N tags — any tag the touched lists missed stays taken and fails the
/// freshness check in a later round's win count.
TEST(StressSparseReset, DistinctTargetsExactWinnersAndFreshTags) {
  constexpr std::size_t kTargets = 1024;
  constexpr std::size_t kWrites = 64;  // << kTargets: the sparse regime
  const int threads = thread_count();
  const round_t rounds = static_cast<round_t>(scaled(300, 60));

  WriteArbiter<GatekeeperPolicy> arbiter(kTargets, tracked_config(threads));
  std::atomic<std::uint64_t> wins{0};

  run_lockstep(
      threads, rounds,
      [&](int tid, round_t r) {
        for (std::size_t a = 0; a < kWrites; ++a) {
          // Distinct strided set, shifted per round (131 ⊥ 1024).
          const std::size_t target =
              (a * 131 + static_cast<std::size_t>(r)) % kTargets;
          if (arbiter.acquire_at(target, r, tid)) {
            wins.fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
      [&](round_t r) {
        ASSERT_EQ(wins.exchange(0, std::memory_order_relaxed), kWrites)
            << "round " << r;
        ASSERT_EQ(arbiter.touched_count(), kWrites) << "round " << r;
        // The serial sparse re-arm — no OpenMP region under TSan.
        auto scope = arbiter.next_round();
        (void)scope;
        for (std::size_t i = 0; i < kTargets; ++i) {
          ASSERT_EQ(arbiter.tag(i).contenders(), 0u)
              << "tag " << i << " stale after sparse reset, round " << r;
        }
      });
}

/// Randomised contention: threads hammer random targets (collisions within
/// and across threads), so the dirty set is unpredictable — the touched
/// lists must still cover it exactly. Winner-only recording also bounds
/// list growth: at most one entry per (target, round).
TEST(StressSparseReset, RandomContentionNeverLeavesStaleTags) {
  constexpr std::size_t kTargets = 512;
  const int threads = thread_count();
  const round_t rounds = static_cast<round_t>(scaled(300, 60));

  WriteArbiter<GatekeeperPolicy> arbiter(kTargets, tracked_config(threads));

  run_lockstep(
      threads, rounds,
      [&](int tid, round_t r) {
        util::Xoshiro256 rng(static_cast<std::uint64_t>(tid) * 104729 + r);
        for (int a = 0; a < 48; ++a) {
          const auto target = static_cast<std::size_t>(rng.bounded(kTargets));
          (void)arbiter.acquire_at(target, r, tid);
        }
      },
      [&](round_t r) {
        // One touched entry per won target; wins <= distinct targets hit.
        ASSERT_LE(arbiter.touched_count(), kTargets) << "round " << r;
        auto scope = arbiter.next_round();
        (void)scope;
        ASSERT_EQ(arbiter.touched_count(), 0u);
        for (std::size_t i = 0; i < kTargets; ++i) {
          ASSERT_EQ(arbiter.tag(i).contenders(), 0u)
              << "tag " << i << " stale after sparse reset, round " << r;
        }
      });
}

}  // namespace
}  // namespace crcw
