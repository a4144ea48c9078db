// TaggedBucket: the claim protocol and its pairing with the RoundTag.
#include "core/tagged_bucket.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace crcw {
namespace {

TEST(TaggedBucket, FreshBucketIsEmpty) {
  TaggedBucket<std::uint64_t> b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.key(), TaggedBucket<std::uint64_t>::kEmptyKey);
  EXPECT_EQ(b.tag().last_round(), kInitialRound);
}

TEST(TaggedBucket, FirstClaimWinsLaterClaimsClassify) {
  TaggedBucket<std::uint64_t> b;
  EXPECT_EQ(b.claim(7), BucketClaim::kWon);
  EXPECT_EQ(b.key(), 7u);
  EXPECT_EQ(b.claim(7), BucketClaim::kHeld);   // same key: present
  EXPECT_EQ(b.claim(9), BucketClaim::kOther);  // different key: probe on
  EXPECT_EQ(b.key(), 7u);                      // claim never overwrites
}

TEST(TaggedBucket, ResetReopensTheBucket) {
  TaggedBucket<std::uint64_t> b;
  ASSERT_EQ(b.claim(7), BucketClaim::kWon);
  ASSERT_TRUE(b.tag().try_acquire(3));
  b.reset();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.tag().last_round(), kInitialRound);
  EXPECT_EQ(b.claim(9), BucketClaim::kWon);
}

TEST(TaggedBucket, NarrowKeysUseTheirOwnSentinel) {
  TaggedBucket<std::uint32_t> b;
  EXPECT_EQ(TaggedBucket<std::uint32_t>::kEmptyKey, 0xFFFF'FFFFu);
  EXPECT_EQ(b.claim(0xFFFF'FFFEu), BucketClaim::kWon);  // max-1 is a real key
}

TEST(ClaimWord, CasHookFiresOncePerIssuedCas) {
  // The tables count one atomic per claim CAS through this hook, so it
  // must fire exactly when a CAS is issued: on an empty word, never on a
  // claimed one (those classify from the load alone).
  ClaimWord<std::uint64_t> w;
  int issued = 0;
  const auto count = [&issued] { ++issued; };
  EXPECT_EQ(w.claim(7, count), BucketClaim::kWon);
  EXPECT_EQ(issued, 1);
  EXPECT_EQ(w.claim(7, count), BucketClaim::kHeld);
  EXPECT_EQ(w.claim(9, count), BucketClaim::kOther);
  EXPECT_EQ(issued, 1);
  w.reset();
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.claim(9), BucketClaim::kWon);
}

TEST(TaggedBucket, ClaimThenTagComposeIndependently) {
  // The two arbitrations are separate: losing the claim does not bar a
  // thread from winning the round's value write on that bucket.
  TaggedBucket<std::uint64_t> b;
  ASSERT_EQ(b.claim(7), BucketClaim::kWon);
  EXPECT_TRUE(b.tag().try_acquire(1));
  EXPECT_FALSE(b.tag().try_acquire(1));  // one winner per round
  EXPECT_TRUE(b.tag().try_acquire(2));   // next round reopens
}

TEST(TaggedBucket, ExactlyOneWinnerUnderContention) {
  const int threads = std::max(4, omp_get_max_threads());
  for (int trial = 0; trial < 200; ++trial) {
    TaggedBucket<std::uint64_t> b;
    std::atomic<int> winners{0};
    std::atomic<int> helds{0};
    std::atomic<int> others{0};
#pragma omp parallel num_threads(threads)
    {
      // Each thread offers its own key: one claim wins, same-key rivals
      // (none here) would see kHeld, the rest must observe the winner.
      const auto key = static_cast<std::uint64_t>(omp_get_thread_num());
      switch (b.claim(key)) {
        case BucketClaim::kWon:
          winners.fetch_add(1, std::memory_order_relaxed);
          break;
        case BucketClaim::kHeld:
          helds.fetch_add(1, std::memory_order_relaxed);
          break;
        case BucketClaim::kOther:
          others.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }
    ASSERT_EQ(winners.load(), 1);
    ASSERT_EQ(helds.load(), 0);  // keys are distinct per thread
    ASSERT_EQ(others.load(), threads - 1);
    // The committed key belongs to some thread, and every loser saw it.
    ASSERT_LT(b.key(), static_cast<std::uint64_t>(threads));
  }
}

TEST(LiveTag, FreshTagIsLiveAtInitialRound) {
  // Born-live polarity: a claimed bucket needs no tag RMW on the insert
  // fast path, so the fresh word must already read (kInitialRound, live).
  LiveTag tag;
  EXPECT_TRUE(tag.live());
  EXPECT_EQ(tag.last_round(), kInitialRound);
}

TEST(LiveTag, EraseAndUpsertShareOneArbitration) {
  // An erase is a CAS-LT write committing live=false: same round, same
  // word, one winner across both op kinds.
  LiveTag tag;
  bool was_live = false;
  EXPECT_TRUE(tag.try_acquire(1, /*live=*/false, was_live));
  EXPECT_TRUE(was_live);  // the erase replaced the born-live state
  EXPECT_FALSE(tag.live());
  EXPECT_FALSE(tag.try_acquire(1, /*live=*/true, was_live));  // round closed
  EXPECT_FALSE(tag.live());  // the loser's upsert changed nothing

  // Next round: an upsert revives, and the winner observes the tombstone.
  EXPECT_TRUE(tag.try_acquire(2, /*live=*/true, was_live));
  EXPECT_FALSE(was_live);
  EXPECT_TRUE(tag.live());
}

TEST(LiveTag, MarkLiveFlipsExactlyOnce) {
  LiveTag tag;
  bool was_live = false;
  ASSERT_TRUE(tag.try_acquire(1, /*live=*/false, was_live));
  EXPECT_TRUE(tag.mark_live());   // first reviver wins
  EXPECT_FALSE(tag.mark_live());  // idempotent for everyone after
  EXPECT_TRUE(tag.live());
  EXPECT_EQ(tag.last_round(), 1u);  // the flip never touches the round
}

TEST(LiveTag, PackedRoundTripsThroughRestore) {
  LiveTag tag;
  bool was_live = false;
  ASSERT_TRUE(tag.try_acquire(5, /*live=*/false, was_live));
  LiveTag copy;
  copy.restore(tag.packed());  // what a migration sweep carries
  EXPECT_EQ(copy.last_round(), 5u);
  EXPECT_FALSE(copy.live());
  EXPECT_FALSE(copy.try_acquire(5));  // monotonicity survives the move
  EXPECT_TRUE(copy.try_acquire(6));
}

TEST(LiveTag, OneWinnerAmongMixedErasesAndUpserts) {
  // N threads, half erasing and half upserting the same (key, round):
  // exactly one CAS commits, and post-barrier liveness matches the winner's
  // op kind — the tentpole's composition contract at the tag level.
  const int threads = std::max(4, omp_get_max_threads());
  for (int trial = 0; trial < 200; ++trial) {
    LiveTag tag;
    std::atomic<int> winners{0};
    std::atomic<int> erase_won{0};
    std::atomic<int> replaced_dead{0};
#pragma omp parallel num_threads(threads)
    {
      const bool erase = omp_get_thread_num() % 2 == 0;
      bool was_live = false;
      if (tag.try_acquire(1, /*live=*/!erase, was_live)) {
        winners.fetch_add(1, std::memory_order_relaxed);
        if (erase) erase_won.fetch_add(1, std::memory_order_relaxed);
        if (!was_live) replaced_dead.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ASSERT_EQ(winners.load(), 1);
    ASSERT_EQ(replaced_dead.load(), 0);  // the winner replaced the fresh live state
    ASSERT_EQ(tag.live(), erase_won.load() == 0);
    ASSERT_EQ(tag.last_round(), 1u);
  }
}

TEST(TaggedBucket, DeadClassifiesTombstonedBuckets) {
  TaggedBucket<std::uint64_t> b;
  EXPECT_FALSE(b.dead());  // empty is empty, not dead
  ASSERT_EQ(b.claim(7), BucketClaim::kWon);
  EXPECT_FALSE(b.dead());  // claimed buckets are born live
  bool was_live = false;
  ASSERT_TRUE(b.tag().try_acquire(1, /*live=*/false, was_live));
  EXPECT_TRUE(b.dead());  // claimed + tombstoned: probe walks keep going
  ASSERT_TRUE(b.tag().try_acquire(2, /*live=*/true, was_live));
  EXPECT_FALSE(b.dead());
}

TEST(TaggedBucket, SameKeyRaceReportsWonOrHeldConsistently) {
  const int threads = std::max(4, omp_get_max_threads());
  for (int trial = 0; trial < 200; ++trial) {
    TaggedBucket<std::uint64_t> b;
    std::atomic<int> winners{0};
    std::atomic<int> helds{0};
#pragma omp parallel num_threads(threads)
    {
      switch (b.claim(42)) {
        case BucketClaim::kWon:
          winners.fetch_add(1, std::memory_order_relaxed);
          break;
        case BucketClaim::kHeld:
          helds.fetch_add(1, std::memory_order_relaxed);
          break;
        case BucketClaim::kOther:
          ADD_FAILURE() << "same-key race produced kOther";
          break;
      }
    }
    ASSERT_EQ(winners.load(), 1);
    ASSERT_EQ(helds.load(), threads - 1);
    ASSERT_EQ(b.key(), 42u);
  }
}

}  // namespace
}  // namespace crcw
