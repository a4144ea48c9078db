// ConcurrentHashSet — open-addressing key membership with arbitrary-CW
// insert arbitration and a cooperative, lock-free, chunk-swept resize: the
// payload-free case of OpenTable (ds/open_table.hpp), whose bucket is a
// bare 8-byte ClaimWord.
//
// The insert race *is* a concurrent write: every thread offering key k
// races one compare-exchange on k's bucket, exactly one wins, and every
// loser learns wait-free whether the committed key was its own (present)
// or a stranger's (probe on) — ClaimWord's claim protocol, which is CAS-LT
// with the empty sentinel in the stale-round role.
//
// Erase is membership split from bucket ownership: a claimed bucket holds
// its key until a migration (probe chains walk through it), while a side
// AtomicBitset marks *tombstoned* buckets. The polarity is deliberate — a
// freshly claimed bucket is live with the bit at rest, so the insert-only
// fast path (the dedup/semijoin build phases) is exactly one CAS with zero
// bitset traffic; only erase (first bit-setter wins) and revive (first
// bit-clearer wins) pay an extra RMW, each an arbitrary concurrent write
// of a boolean. Reclaim sweeps drop the tombstones and shrink the array
// back toward the live count.
#pragma once

#include <atomic>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <utility>

#include "core/tagged_bucket.hpp"
#include "ds/hash_common.hpp"
#include "ds/open_table.hpp"
#include "util/atomic_bitset.hpp"

namespace crcw::ds {

template <typename Key = std::uint64_t>
  requires std::unsigned_integral<Key>
class ConcurrentHashSet : public OpenTable<Key, ClaimWord<Key>, ConcurrentHashSet<Key>> {
  using Base = OpenTable<Key, ClaimWord<Key>, ConcurrentHashSet<Key>>;
  friend Base;

 public:
  using Base::kEmptyKey;

  /// Sizes the bucket array so `capacity` keys stay under cfg.max_load.
  explicit ConcurrentHashSet(std::uint64_t capacity, HashConfig cfg = {})
      : Base(capacity, std::move(cfg)), dead_bits_(this->bucket_count()) {}

  /// Inserts `key`, reviving it if it was erased. Safe concurrently with
  /// other inserts, erases and lookups; NOT concurrently with the grow
  /// sweep (the round structure separates them). kInserted goes to the
  /// thread whose RMW made the key live: the claim winner on a fresh
  /// bucket, the tombstone-bit clearer on an erased one. Throws
  /// std::invalid_argument for the reserved sentinel key.
  SetInsert insert(Key key) {
    const auto [r, b] = this->claim(key);
    return r == SetInsert::kFound ? revive_or_found(b) : r;
  }

  /// Erases `key`: marks its bucket tombstoned. First setter wins —
  /// returns true iff this call transitioned the key live → dead (false
  /// if the key was absent or already erased). The bucket stays claimed
  /// until a reclaim sweep drops it.
  bool erase(Key key) {
    Base::check_key(key);
    assert(!this->growing() && "erase during cooperative grow: missing barrier");
    ProbeStats stats;
    const std::uint64_t b = this->locate(key, stats);
    this->telemetry_.walk(stats);
    return b != Base::kNone && commit_tombstone(b);
  }

  /// Membership test for live keys. Wait-free; concurrent inserts/erases
  /// may or may not be visible.
  [[nodiscard]] bool contains(Key key) const noexcept {
    ProbeStats unused;
    const std::uint64_t b = this->locate(key, unused);
    return b != Base::kNone && !dead_bits_.test(b);
  }

  /// Serial/post-barrier iteration over the committed live keys.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint64_t i = 0; i < this->bucket_count(); ++i) {
      const Key k = this->buckets_[i].key();
      if (k != kEmptyKey && !dead_bits_.test(i)) fn(k);
    }
  }

 private:
  /// Insert tail for a bucket already holding the key: live is a plain
  /// kFound with no RMW; tombstoned races the revive — the first bit
  /// clearer wins. The control byte already holds the key's fingerprint
  /// (erase never touched it), so a revive writes no byte.
  SetInsert revive_or_found(std::uint64_t b) {
    if (!dead_bits_.test(b)) return SetInsert::kFound;
    this->telemetry_.cas();
    if (!dead_bits_.test_and_reset(b)) return SetInsert::kFound;
    this->dead_.sub(1);
    this->telemetry_.win();
    return SetInsert::kInserted;
  }

  /// Erase tail: first bit-setter wins. The bucket keeps its key and its
  /// fingerprint byte; only the bit says the key is dead.
  bool commit_tombstone(std::uint64_t b) {
    if (dead_bits_.test(b)) return false;  // already tombstoned: no RMW
    this->telemetry_.cas();
    if (!dead_bits_.test_and_set(b)) return false;  // a racing eraser won
    this->dead_.add(1);
    this->telemetry_.tombstone();
    return true;
  }

  // OpenTable hooks.
  [[nodiscard]] bool live(std::uint64_t i) const noexcept { return !dead_bits_.test(i); }
  static void carry(ClaimWord<Key>& /*to*/, const ClaimWord<Key>& /*from*/) noexcept {}
  /// Migrated keys are live by construction: the new array's bits start clear.
  void after_swap() { dead_bits_ = util::AtomicBitset(this->bucket_count()); }

  util::AtomicBitset dead_bits_;
};

}  // namespace crcw::ds
