// ConcurrentHashMap — OpenTable (ds/open_table.hpp) over TaggedBucket plus
// a value: the key claim arbitrates which key owns a bucket (arbitrary-CW
// insert race, as in ConcurrentHashSet) and the bucket's LiveTag
// arbitrates which *write* — upsert or erase — commits per round (paper-faithful CAS-LT, as in
// ConWriteCell). The two arbitrations compose: for N threads upserting
// and erasing the same key in round r, exactly one claims the bucket (if
// it was empty) and exactly one — not necessarily the same thread — wins
// the round-r write; everyone else returns kLost wait-free and reads the
// committed outcome after the step barrier.
//
// Values are plain (non-atomic) payloads published by the step barrier,
// the exact ConWriteCell contract: find() is valid from serial code or
// after the barrier that closed the writing round, not mid-round.
//
// Lifecycle: an erase commits a *tombstone* — the key keeps its bucket
// (probe chains must keep walking through it) but the LiveTag's liveness
// bit goes dead, so find()/size() no longer see it while a later round's
// upsert can revive it in place. Tombstones are reclaimed by the same
// cooperative chunk-swept migration that grows the table, run toward a
// target sized from the live count: dead buckets are simply not migrated.
// Dropping them is sound because migrations happen between rounds and
// rounds are strictly increasing, so a dropped bucket's committed round
// can never be raced again. needs_reclaim() watches the tombstone-ratio
// watermark (HashConfig::reclaim_ratio) for the step-boundary trigger.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/tagged_bucket.hpp"
#include "ds/hash_common.hpp"
#include "ds/open_table.hpp"
#include "util/sanitizer.hpp"

namespace crcw::ds {

/// Outcome of a round-arbitrated upsert or erase.
enum class MapUpsert {
  kWon,   ///< this thread's write is the round's committed one
  kLost,  ///< another thread won this (key, round); read it post-barrier
  kFull,  ///< probe walk exhausted: grow, then retry
};

/// A map bucket: the claim word and LiveTag, then the barrier-published value.
template <typename Key, typename Value>
struct MapBucket : TaggedBucket<Key> {
  Value value{};
};

template <typename Key, typename Value>
  requires std::unsigned_integral<Key> && std::is_nothrow_default_constructible_v<Value>
class ConcurrentHashMap
    : public OpenTable<Key, MapBucket<Key, Value>, ConcurrentHashMap<Key, Value>> {
  using Bucket = MapBucket<Key, Value>;
  using Base = OpenTable<Key, Bucket, ConcurrentHashMap<Key, Value>>;
  friend Base;

 public:
  using Base::kEmptyKey;

  explicit ConcurrentHashMap(std::uint64_t capacity, HashConfig cfg = {})
      : Base(capacity, std::move(cfg)) {}

  /// First-writer-wins insert (no round): the claim winner — or, for a
  /// tombstoned key, the winner of the idempotent revive — stores `v`;
  /// everyone else observes the key as present. This is the build-phase
  /// primitive (semijoin's arbitrary pick among duplicate build keys).
  /// Returns kInserted for the winner, kFound otherwise; value is
  /// barrier-published.
  SetInsert insert_first(Key key, const Value& v) {
    const auto [r, b] = this->claim(key);
    if (r == SetInsert::kFull) return r;
    Bucket& bucket = this->buckets_[b];
    if (r == SetInsert::kFound) {
      // Fresh claims are born live (LiveTag's polarity): the build-phase
      // fast path is one CAS plus the barrier-published store, no tag RMW.
      if (bucket.tag().live()) return r;
      this->telemetry_.cas();
      if (!bucket.tag().mark_live()) return r;  // revive: first flipper wins
      revived();
    }
    const util::TsanIgnoreWritesScope published_by_barrier;
    bucket.value = v;
    return SetInsert::kInserted;
  }

  /// Round-arbitrated upsert: claims the bucket if empty, then races the
  /// bucket's LiveTag with CAS-LT for round `round`. One winner per
  /// (key, round) — among upserts AND erases — stores `v`; rounds must be
  /// strictly increasing per the LiveTag contract (use one counter per
  /// map, advanced between barriers).
  MapUpsert upsert(round_t round, Key key, const Value& v) {
    return upsert_with(round, key, [&v]() -> const Value& { return v; });
  }

  /// Winner-computes upsert: the factory runs only in the winning thread.
  template <typename Factory>
    requires std::is_invocable_r_v<Value, Factory>
  MapUpsert upsert_with(round_t round, Key key, Factory&& make) {
    const auto [r, b] = this->claim(key);
    if (r == SetInsert::kFull) return MapUpsert::kFull;
    Bucket& bucket = this->buckets_[b];
    bool was_live = false;
    if (!acquire_round(bucket, round, /*live=*/true, was_live)) return MapUpsert::kLost;
    if (!was_live) revived();
    Value made = std::forward<Factory>(make)();
    const util::TsanIgnoreWritesScope published_by_barrier;
    bucket.value = std::move(made);
    return MapUpsert::kWon;
  }

  /// Round-arbitrated erase: the same CAS-LT race as upsert, committing a
  /// tombstone instead of a value. One winner per (key, round) across both
  /// op kinds — a same-round erase/upsert pair on one key resolves to
  /// whichever CAS landed, exactly the paper's arbitrary-CW pick. Erasing
  /// an absent key claims (and immediately tombstones) a bucket so the
  /// arbitration stays symmetric — a same-round upsert loser must observe
  /// the erase's commit on the key's tag; the wasted bucket is recycled by
  /// the next reclaim sweep.
  MapUpsert erase(round_t round, Key key) {
    const auto [r, b] = this->claim(key);
    if (r == SetInsert::kFull) return MapUpsert::kFull;
    bool was_live = false;
    if (!acquire_round(this->buckets_[b], round, /*live=*/false, was_live)) {
      return MapUpsert::kLost;
    }
    if (was_live) this->dead_.add(1);  // live → dead; the fingerprint byte stays
    this->telemetry_.tombstone();
    return MapUpsert::kWon;
  }

  /// Pointer to the committed value for `key`, or nullptr (absent or
  /// erased). Read from serial code or after the barrier that closed the
  /// writing round.
  [[nodiscard]] const Value* find(Key key) const noexcept {
    ProbeStats unused;
    const std::uint64_t b = this->locate(key, unused);
    if (b == Base::kNone || !this->buckets_[b].tag().live()) return nullptr;
    return &this->buckets_[b].value;
  }

  [[nodiscard]] bool contains(Key key) const noexcept { return find(key) != nullptr; }

  /// Serial/post-barrier iteration over committed live (key, value) pairs.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Bucket& bucket : this->buckets_) {
      const Key k = bucket.key();
      if (k != kEmptyKey && bucket.tag().live()) fn(k, bucket.value);
    }
  }
  /// Cut-predicated scan: calls fn(key, value, round) for every entry whose
  /// committed write is live with round <= cut_round. Safe CONCURRENTLY
  /// with writers committing rounds > cut_round — the consistent-snapshot
  /// read the round structure makes cheap (Blelloch & Wei's atomic-copy
  /// observation: a version word beside every slot buys multi-word
  /// consistency with plain loads). Per bucket it is a seqlock-shaped
  /// double read of the packed (round, live) word around the plain value
  /// load:
  ///
  ///   p1 = packed; v = value; fence(acquire); p2 = packed;
  ///   emit iff p1 == p2 && live(p1) && round(p1) <= cut_round
  ///
  /// Soundness: a CAS-LT writer commits its (round, live) word BEFORE its
  /// value store, and rounds are strictly increasing, so p1 == p2 with
  /// round <= cut proves no post-cut writer touched the bucket across the
  /// value load; p1 != p2 (or a post-cut round in either) means the entry
  /// was overwritten after the cut and is excluded either way. NOT safe
  /// concurrently with grow/reclaim (the swap frees this array) — cut
  /// holders must keep migrations parked, which is exactly what the serve
  /// schedulers' held-cut discipline does.
  template <typename Fn>
  void for_each_at(round_t cut_round, Fn&& fn) const {
    for (const Bucket& bucket : this->buckets_) {
      const Key k = bucket.key();
      if (k == kEmptyKey) continue;
      const std::uint64_t p1 = bucket.tag().packed();
      if ((p1 & 1) == 0 || (p1 >> 1) > cut_round) continue;
      const Value v = bucket.value;  // racy iff p2 below disagrees; then dropped
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t p2 = bucket.tag().packed();
      if (p1 == p2) fn(k, v, static_cast<round_t>(p1 >> 1));
    }
  }


  /// Serial restore of one committed (key, value, round) entry into this
  /// table — the snapshot restore path. Claims the bucket and stamps the
  /// packed LiveTag directly (like the migration sweep carries it), so
  /// CAS-LT writes at rounds > `round` behave exactly as they would have
  /// against the original table. Returns false iff the probe walk
  /// exhausted (table sized too small for the snapshot).
  bool restore_slot(Key key, const Value& v, round_t round) {
    const auto [r, b] = this->claim(key);
    if (r == SetInsert::kFull) return false;
    this->buckets_[b].value = v;
    this->buckets_[b].tag().restore(LiveTag::pack(round, /*live=*/true));
    return true;
  }

 private:
  /// CAS-LT on the bucket's LiveTag with the telemetry mirroring
  /// InstrumentedTag<CasLtPolicy>: the pre-load skip issues no RMW, so
  /// `atomics` counts only real compare-exchanges.
  bool acquire_round(Bucket& bucket, round_t round, bool live, bool& was_live) {
    LiveTag& tag = bucket.tag();
    if (tag.last_round() >= round) return false;  // skip: no atomic issued
    this->telemetry_.cas();
    return tag.try_acquire(round, live, was_live);
  }

  /// Dead → live, won by this thread's tag RMW. The fingerprint byte never
  /// left, so only the counters move.
  void revived() {
    this->dead_.sub(1);
    this->telemetry_.win();
  }

  // OpenTable hooks. The value and the packed (round, live) word travel
  // together, so post-migration CAS-LT writes keep refusing closed rounds.
  [[nodiscard]] bool live(std::uint64_t i) const noexcept {
    return this->buckets_[i].tag().live();
  }
  static void carry(Bucket& to, const Bucket& from) {
    to.value = from.value;
    to.tag().restore(from.tag().packed());
  }
  static void after_swap() noexcept {}
};

}  // namespace crcw::ds
