// WriteArbiter — per-target tag arrays with round management.
#include "core/arbiter.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <vector>

#include "core/instrumented.hpp"

namespace crcw {
namespace {

TEST(WriteArbiter, SizeAndInitialRound) {
  WriteArbiter<CasLtPolicy> arb(10);
  EXPECT_EQ(arb.size(), 10u);
  EXPECT_EQ(arb.round(), kInitialRound);
}

TEST(WriteArbiter, NextRoundAdvances) {
  WriteArbiter<CasLtPolicy> arb(4);
  EXPECT_EQ(arb.next_round().round(), 1u);
  EXPECT_EQ(arb.next_round().round(), 2u);
  EXPECT_EQ(arb.round(), 2u);
}

TEST(WriteArbiter, OneWinnerPerTargetPerRound) {
  WriteArbiter<CasLtPolicy> arb(3);
  {
    auto scope = arb.next_round();
    EXPECT_TRUE(scope.acquire(0));
    EXPECT_FALSE(scope.acquire(0));
    EXPECT_TRUE(scope.acquire(1));  // distinct targets are independent
    EXPECT_TRUE(scope.acquire(2));
  }
  auto scope = arb.next_round();
  EXPECT_TRUE(scope.acquire(0));  // re-armed without any reset
}

TEST(WriteArbiter, GatekeeperPolicyModeResets) {
  WriteArbiter<GatekeeperPolicy> arb(5);
  {
    auto scope = arb.next_round(ResetMode::kPolicy);
    for (std::size_t i = 0; i < 5; ++i) ASSERT_TRUE(scope.acquire(i));
    for (std::size_t i = 0; i < 5; ++i) ASSERT_FALSE(scope.acquire(i));
  }
  // kPolicy must perform the gatekeeper re-initialisation sweep.
  auto scope = arb.next_round(ResetMode::kPolicy);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_TRUE(scope.acquire(i));
}

TEST(WriteArbiter, NoneModeSkipsTheReArm) {
  WriteArbiter<GatekeeperPolicy> arb(5);
  {
    auto scope = arb.next_round();
    for (std::size_t i = 0; i < 5; ++i) ASSERT_TRUE(scope.acquire(i));
  }
  {
    // Without the re-arm the gatekeeper tags stay taken…
    auto scope = arb.next_round(ResetMode::kNone);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_FALSE(scope.acquire(i));
  }
  // …until a kPolicy round boundary re-arms them, here on a team.
  WriteArbiter<GatekeeperPolicy> team(5, {.threads = 2});
  {
    auto scope = team.next_round();
    for (std::size_t i = 0; i < 5; ++i) ASSERT_TRUE(scope.acquire(i));
  }
  auto scope = team.next_round();
  for (std::size_t i = 0; i < 5; ++i) EXPECT_TRUE(scope.acquire(i));
}

TEST(WriteArbiter, ResetModeIrrelevantWithoutPolicySweep) {
  // CAS-LT never resets; both modes are pure round increments.
  WriteArbiter<CasLtPolicy> arb(2, {.rearm = Rearm::kSparse, .threads = 2});
  EXPECT_EQ(arb.next_round(ResetMode::kPolicy).round(), 1u);
  EXPECT_EQ(arb.next_round(ResetMode::kNone).round(), 2u);
  EXPECT_EQ(arb.round(), 2u);
}

TEST(WriteArbiter, ExplicitRoundAcquireAt) {
  WriteArbiter<CasLtPolicy> arb(2);
  // Loop iteration used as the round id (§5: "round could be substituted
  // by the loop iteration").
  for (round_t l = 1; l <= 10; ++l) {
    EXPECT_TRUE(arb.acquire_at(0, l));
    EXPECT_FALSE(arb.acquire_at(0, l));
  }
}

TEST(WriteArbiter, RoundScopePinsTheRoundId) {
  WriteArbiter<CasLtPolicy> arb(1);
  auto scope = arb.next_round();
  const round_t r = scope.round();
  EXPECT_EQ(arb.round(), r);
  EXPECT_TRUE(scope.acquire(0));
  EXPECT_FALSE(scope.acquire(0));
}

TEST(WriteArbiter, ResetAllRestoresFreshState) {
  WriteArbiter<CasLtPolicy> arb(2);
  {
    auto scope = arb.next_round();
    ASSERT_TRUE(scope.acquire(0));
  }
  arb.reset_all();
  EXPECT_EQ(arb.round(), kInitialRound);
  auto scope = arb.next_round();
  EXPECT_TRUE(scope.acquire(0));
}

TEST(WriteArbiter, PaddedLayoutSpacing) {
  WriteArbiter<CasLtPolicy, TagLayout::kPadded> arb(4);
  auto scope = arb.next_round();
  const auto a = reinterpret_cast<std::uintptr_t>(&arb.tag(0));
  const auto b = reinterpret_cast<std::uintptr_t>(&arb.tag(1));
  EXPECT_GE(b - a, util::kCacheLineSize);
  EXPECT_TRUE(scope.acquire(0));
  EXPECT_FALSE(scope.acquire(0));
}

TEST(WriteArbiter, PackedLayoutIsDense) {
  WriteArbiter<CasLtPolicy, TagLayout::kPacked> arb(4);
  const auto a = reinterpret_cast<std::uintptr_t>(&arb.tag(0));
  const auto b = reinterpret_cast<std::uintptr_t>(&arb.tag(1));
  EXPECT_EQ(b - a, sizeof(RoundTag));
}

TEST(WriteArbiter, ConfigEnablesTracking) {
  const ArbiterConfig sparse{.rearm = Rearm::kSparse, .lanes = 2};
  WriteArbiter<GatekeeperPolicy> tracked(4, sparse);
  {
    auto scope = tracked.next_round();
    ASSERT_TRUE(scope.acquire(0));
  }
  EXPECT_EQ(tracked.touched_count(), 1u);

  // Touched lists are meaningless for policies without a per-round reset;
  // the arbiter must not pay for lists CAS-LT would never drain.
  WriteArbiter<CasLtPolicy> caslt(4, sparse);
  {
    auto scope = caslt.next_round();
    ASSERT_TRUE(scope.acquire(0));
  }
  EXPECT_EQ(caslt.touched_count(), 0u);

  // Default config = the paper-faithful sweep: no lists.
  WriteArbiter<GatekeeperPolicy> plain(4);
  {
    auto scope = plain.next_round();
    ASSERT_TRUE(scope.acquire(0));
  }
  EXPECT_EQ(plain.touched_count(), 0u);
}

TEST(WriteArbiter, TouchedListsRecordWinnersOnly) {
  WriteArbiter<GatekeeperPolicy> arb(8, {.rearm = Rearm::kSparse, .lanes = 1});
  {
    auto scope = arb.next_round();
    ASSERT_TRUE(scope.acquire(3));
    ASSERT_FALSE(scope.acquire(3));  // loser: no touched entry
    ASSERT_TRUE(scope.acquire(5, /*lane=*/0));  // explicit lane
  }
  EXPECT_EQ(arb.touched_count(), 2u);
  auto scope = arb.next_round();  // the sparse re-arm drains the lists
  EXPECT_EQ(arb.touched_count(), 0u);
  EXPECT_TRUE(scope.acquire(3));
  EXPECT_TRUE(scope.acquire(5));
}

TEST(WriteArbiter, SparseRearmOnOneThreadRunsInNextRound) {
  // threads = 1: the re-arm is a plain loop on the calling thread, no
  // OpenMP region — the mode the raw-thread stress tier relies on.
  WriteArbiter<GatekeeperPolicy> arb(16, {.rearm = Rearm::kSparse, .lanes = 1});
  {
    auto scope = arb.next_round();
    for (std::size_t i = 0; i < 16; i += 4) ASSERT_TRUE(scope.acquire(i));
  }
  auto scope = arb.next_round();
  for (std::size_t i = 0; i < 16; i += 4) EXPECT_TRUE(scope.acquire(i));
  EXPECT_EQ(arb.touched_count(), 4u);
}

TEST(WriteArbiter, NoneModeKeepsTouchedListsForTheNextReArm) {
  WriteArbiter<GatekeeperPolicy> arb(8, {.rearm = Rearm::kSparse, .lanes = 1});
  {
    auto scope = arb.next_round();
    ASSERT_TRUE(scope.acquire(1));
  }
  {
    auto scope = arb.next_round(ResetMode::kNone);
    ASSERT_TRUE(scope.acquire(2));
  }
  EXPECT_EQ(arb.touched_count(), 2u);
  {
    auto scope = arb.next_round();  // re-arms both rounds' wins
    EXPECT_TRUE(scope.acquire(1));
    EXPECT_TRUE(scope.acquire(2));
  }
  arb.reset_all();
  EXPECT_EQ(arb.touched_count(), 0u);
}

/// The reset_tags counter pins who re-arms how much at each boundary: a
/// sweep arbiter N tags per round, a sparse one exactly the previous
/// round's wins, and kNone or CAS-LT nothing — serially and on a team.
TEST(WriteArbiter, ReArmCountsExactlyTheTagsItResets) {
  using IGate = InstrumentedPolicy<GatekeeperPolicy>;
  using ICasLt = InstrumentedPolicy<CasLtPolicy>;
  constexpr std::size_t kTargets = 64;
  const auto win = [](auto& arbiter, std::size_t writes) {
    auto scope = arbiter.next_round();
    for (std::size_t i = 0; i < writes; ++i) EXPECT_TRUE(scope.acquire(i * 3));
  };
  for (const int threads : {1, 4}) {
    WriteArbiter<IGate> sweep(kTargets, {.threads = threads});
    WriteArbiter<IGate> sparse(kTargets, {.rearm = Rearm::kSparse, .threads = threads});
    WriteArbiter<ICasLt> caslt(kTargets, {.threads = threads});
    for (auto* arbiter : {&sweep, &sparse}) {
      win(*arbiter, 5);  // re-arms the fresh tags: N vs 0
      win(*arbiter, 7);  // N vs 5
      win(*arbiter, 2);  // N vs 7
      // kNone: 0 vs 0
      (void)arbiter->next_round(ResetMode::kNone);
    }
    win(caslt, 5);
    win(caslt, 7);
    EXPECT_EQ(sweep.contention().totals().reset_tags, 3 * kTargets) << threads;
    EXPECT_EQ(sparse.contention().totals().reset_tags, 5u + 7u) << threads;
    EXPECT_EQ(sparse.touched_count(), 2u) << threads;
    EXPECT_EQ(caslt.contention().totals().reset_tags, 0u) << threads;
  }
}

TEST(WriteArbiterStress, PerTargetExactlyOneWinner) {
  constexpr std::size_t kTargets = 64;
  WriteArbiter<CasLtPolicy> arb(kTargets);
  std::vector<std::atomic<int>> winners(kTargets);

  for (int round = 0; round < 20; ++round) {
    for (auto& w : winners) w.store(0);
    auto scope = arb.next_round();
#pragma omp parallel num_threads(8)
    {
      for (std::size_t t = 0; t < kTargets; ++t) {
        if (scope.acquire(t)) winners[t].fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (std::size_t t = 0; t < kTargets; ++t) ASSERT_EQ(winners[t].load(), 1) << t;
  }
}

TEST(WriteArbiterStress, CriticalPolicyUnderContention) {
  WriteArbiter<CriticalPolicy> arb(8);
  auto scope = arb.next_round();
  std::atomic<int> winners{0};
#pragma omp parallel num_threads(8)
  {
    for (std::size_t t = 0; t < arb.size(); ++t) {
      if (scope.acquire(t)) winners.fetch_add(1, std::memory_order_relaxed);
    }
  }
  EXPECT_EQ(winners.load(), 8);
}

}  // namespace
}  // namespace crcw
