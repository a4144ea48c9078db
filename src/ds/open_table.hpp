// OpenTable — the open-addressing core of ConcurrentHashSet and
// ConcurrentHashMap: the bucket array and its control-byte sidecar, the
// occupancy counters, one probe walk, and one cooperative grow/reclaim
// lifecycle. The set is the payload-free case (its bucket is a bare
// ClaimWord); the map's bucket adds a LiveTag and a value.
//
// The bucket claim is the paper's arbitrary-CW write: one compare-exchange
// from the empty sentinel (ClaimWord, core/tagged_bucket.hpp) admits one
// winner per bucket, and every loser learns wait-free from the value its
// CAS loaded whether its own key committed (present) or a stranger's
// (probe on). There are no locks: claims are lock-free (bounded by the
// probe walk), reads are wait-free.
//
// Both the claim walk and the read walk are one probe loop with a
// different per-lane verdict. Each starts with a home-lane fast path,
// inlined at the call site, and falls back to an outlined group walk: 16
// lanes per util::Group snapshot of the sidecar, visiting candidate lanes
// in probe order, so a claim lands on the earliest free lane exactly as
// serial linear probing would place it. Tables smaller than one group walk
// the same loop over a padded sidecar with the lanes past the table masked
// off (GroupWalk). The sidecar is strictly a filter (docs/architecture.md,
// "SIMD group probing"): the claim winner publishes its key's fingerprint
// after the CAS, and erase and revive never touch it, so a byte is written
// once per migration epoch and the only stale value a walk can read is
// empty — and empty lanes are always candidates, re-verified against the
// claim word like every fingerprint hit.
//
// Growth is DHash-style cooperative migration, run *between* rounds at the
// PRAM step boundary instead of behind per-bucket locks. The sweep skips
// dead buckets, so every migration is also a tombstone reclaim:
//
//   serial:   if (t.needs_grow()) t.grow_prepare();   // or reclaim_prepare()
//   parallel: if (t.growing()) t.grow_help();         // every thread
//   barrier
//   serial:   if (t.growing()) t.grow_finish();
//
// or, from serial code with an OpenMP team: t.maybe_grow_parallel().
//
// A table (the CRTP `Derived`) supplies three hooks:
//   bool live(i) const      is bucket i's key live (dead ones are dropped)
//   carry(to, from)         move the payload beside the key into a target
//   after_swap()            re-size per-bucket side state after the swap
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/tagged_bucket.hpp"
#include "ds/hash_common.hpp"
#include "util/aligned_buffer.hpp"
#include "util/simd.hpp"

namespace crcw::ds {

template <typename Key, typename Bucket, typename Derived>
  requires std::unsigned_integral<Key>
class OpenTable {
 public:
  static constexpr Key kEmptyKey = ClaimWord<Key>::kEmptyKey;

  [[nodiscard]] std::uint64_t bucket_count() const noexcept { return buckets_.size(); }
  /// Live keys: claimed buckets minus tombstones. Serial or post-barrier.
  [[nodiscard]] std::uint64_t size() const noexcept {
    return occupied_.total() - dead_.total();
  }
  /// Claimed buckets, live or dead — what probe-chain length depends on.
  [[nodiscard]] std::uint64_t occupied() const noexcept { return occupied_.total(); }
  /// Erased keys still holding their buckets.
  [[nodiscard]] std::uint64_t tombstones() const noexcept { return dead_.total(); }
  [[nodiscard]] const HashConfig& config() const noexcept { return cfg_; }

  // -- cooperative migration: grow and tombstone reclaim --------------------

  /// True once claimed buckets exceed cfg.max_load — tombstones count,
  /// because they lengthen probe chains exactly like live keys.
  [[nodiscard]] bool needs_grow() const noexcept {
    return static_cast<double>(occupied()) >
           cfg_.max_load * static_cast<double>(buckets_.size());
  }

  /// Tombstone-ratio watermark (HashConfig::reclaim_ratio); the band below
  /// max_load is the hysteresis that keeps churn from alternating
  /// grow/shrink every step.
  [[nodiscard]] bool needs_reclaim() const noexcept {
    const std::uint64_t dead = tombstones();
    return dead > 0 && static_cast<double>(dead) >=
                           cfg_.reclaim_ratio * static_cast<double>(buckets_.size());
  }

  /// Serial: allocates the next array (factor × buckets) and opens the
  /// migration window.
  void grow_prepare(std::uint64_t factor = 2) {
    if (factor < 2) factor = 2;
    migration_prepare(bucket_count_for(buckets_.size() * factor));
  }

  /// Serial: opens a migration sized for the live keys, so the sweep drops
  /// every tombstone and the array shrinks back toward size()/max_load
  /// (with max_load headroom, so it is never immediately grow-worthy).
  void reclaim_prepare() {
    migration_prepare(bucket_count_for(required_buckets(size(), cfg_.max_load)));
  }

  [[nodiscard]] bool growing() const noexcept { return migration_ != nullptr; }

  /// Any thread, repeatedly until it returns: claims chunks of the old
  /// array from the shared cursor and re-inserts every live bucket (key
  /// and payload) into the next array; dead ones are dropped — their
  /// committed rounds are behind every future round, and writes never
  /// overlap migrations. Lock-free: one fetch_add per chunk, one claim CAS
  /// per live bucket. Returning does NOT mean every chunk is migrated; the
  /// caller's barrier before grow_finish() establishes that.
  void grow_help() {
    Migration& mig = *migration_;
    const std::uint64_t end = buckets_.size();
    for (;;) {
      const std::uint64_t begin = mig.cursor.fetch_add(cfg_.migrate_chunk,
                                                       std::memory_order_relaxed);
      if (begin >= end) return;
      telemetry_.chunk_claim();
      const std::uint64_t stop = std::min(begin + cfg_.migrate_chunk, end);
      std::uint64_t moved = 0;
      std::uint64_t dropped = 0;
      std::uint64_t probes = 0;
      for (std::uint64_t i = begin; i < stop; ++i) {
        const Key k = buckets_[i].key();
        if (k == kEmptyKey) continue;
        if (!self().live(i)) {
          ++dropped;
          continue;
        }
        migrate_into(mig, k, buckets_[i], probes);
        ++moved;
      }
      if (moved > 0) mig.live_moved.fetch_add(moved, std::memory_order_relaxed);
      if (dropped > 0) mig.dropped.fetch_add(dropped, std::memory_order_relaxed);
      if (probes > 0) telemetry_.probes(probes);  // one flush per chunk
      telemetry_.migrated(stop - begin);
    }
  }

  /// Serial, after every helper has passed the barrier: installs the next
  /// array and resets the counters to what actually moved.
  void grow_finish() {
    assert(growing() && "grow_finish without grow_prepare");
    assert(migration_->cursor.load(std::memory_order_relaxed) >= buckets_.size() &&
           "grow_finish before the migration sweep completed");
    buckets_ = std::move(migration_->buckets);
    ctrl_ = std::move(migration_->ctrl);
    mask_ = migration_->mask;
    occupied_.reset();
    occupied_.add(migration_->live_moved.load(std::memory_order_relaxed));
    dead_.reset();
    telemetry_.reclaimed(migration_->dropped.load(std::memory_order_relaxed));
    migration_.reset();
    self().after_swap();
  }

  /// Serial convenience: the whole protocol over an OpenMP team.
  /// `threads <= 0` means the ambient OpenMP default.
  void grow_parallel(int threads = 0, std::uint64_t factor = 2) {
    grow_prepare(factor);
    sweep(threads);
  }

  /// Serial: grows iff needed; returns whether it grew.
  bool maybe_grow_parallel(int threads = 0, std::uint64_t factor = 2) {
    if (!needs_grow()) return false;
    grow_parallel(threads, factor);
    return true;
  }

  /// Cooperative rebuild toward the live count: drops every tombstone and
  /// shrinks the array if churn left it oversized.
  void reclaim_parallel(int threads = 0) {
    reclaim_prepare();
    sweep(threads);
  }

  /// Watermark-gated reclaim for step boundaries; true iff a rebuild ran.
  bool maybe_reclaim_parallel(int threads = 0) {
    if (!needs_reclaim()) return false;
    reclaim_parallel(threads);
    return true;
  }

  /// Backlog-sized grow: one grow sized for `backlog` further inserts on
  /// top of occupied() (tombstones hold buckets until a reclaim), instead
  /// of a cascade of ×2 grows each re-migrating every key. True iff a grow
  /// ran. Serial/step-boundary only, like every grow entry point.
  bool maybe_grow_for_backlog(std::uint64_t backlog, int threads = 0) {
    const std::uint64_t occ = occupied();
    const std::uint64_t demand =
        backlog > std::numeric_limits<std::uint64_t>::max() - occ
            ? std::numeric_limits<std::uint64_t>::max()
            : occ + backlog;
    const std::uint64_t want = bucket_count_for(required_buckets(demand, cfg_.max_load));
    if (want <= buckets_.size()) return false;
    // Both sides are powers of two, so the division is exact.
    grow_parallel(threads, want / buckets_.size());
    return true;
  }

  // -- telemetry ------------------------------------------------------------

  [[nodiscard]] TableTelemetry& telemetry() noexcept { return telemetry_; }

  /// Round boundary hook: folds the round's counter deltas into the site's
  /// per-round histograms. Serial/post-barrier.
  void flush_round() noexcept { telemetry_.flush_round(); }

  // -- test/debug introspection (serial or post-barrier only) ---------------

  /// Raw control byte for bucket `i` (empty or fingerprint).
  [[nodiscard]] std::uint8_t debug_ctrl(std::uint64_t i) const noexcept {
    return ctrl_[i].load(std::memory_order_acquire);
  }

  /// Index of the bucket claimed by `key` (live or tombstoned), or ~0 if
  /// unclaimed. A plain scan of every bucket, independent of the probe
  /// walk and its sidecar, so tests can check the walk against it.
  [[nodiscard]] std::uint64_t debug_bucket_of(Key key) const noexcept {
    if (key == kEmptyKey) return kNone;
    for (std::uint64_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i].key() == key) return i;
    }
    return kNone;
  }

 protected:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  /// Outcome of the claim walk, and the key's bucket unless kFull.
  struct Claim {
    SetInsert result;
    std::uint64_t index;
  };

  /// Sizes the bucket array so `capacity` keys stay under cfg.max_load.
  OpenTable(std::uint64_t capacity, HashConfig cfg)
      : cfg_(std::move(cfg)),
        telemetry_(cfg_),
        buckets_(bucket_count_for(required_buckets(capacity, cfg_.max_load))),
        ctrl_(sidecar_size(buckets_.size())),  // value-initialised = all kCtrlEmpty
        mask_(buckets_.size() - 1) {}

  static void check_key(Key key) {
    if (key == kEmptyKey) throw std::invalid_argument("ds: the all-ones key is reserved");
  }

  /// The claim walk: finds `key`'s bucket or claims the earliest free one.
  /// kInserted goes to the thread whose CAS installed the key (the bucket
  /// is born live: its fingerprint byte is published and occupied_ moves);
  /// kFound means the key already owned the bucket, live or dead — liveness
  /// is the caller's concern. Every claim CAS issued counts as an atomic,
  /// won or lost. Safe concurrently with claims and reads, NOT with the
  /// migration sweep. Throws for the reserved sentinel key.
  Claim claim(Key key) {
    check_key(key);
    assert(!growing() && "write during cooperative migration: missing barrier");
    const std::uint64_t mixed = mix64(key);
    ProbeStats stats;
    const Probe p = probe(mixed, stats, [this, key](std::uint64_t i) {
      switch (buckets_[i].claim(key, [this] { telemetry_.cas(); })) {
        case BucketClaim::kWon:
          return Step::kWon;
        case BucketClaim::kHeld:
          return Step::kHit;
        case BucketClaim::kOther:
          break;
      }
      return Step::kNext;
    });
    telemetry_.walk(stats);
    switch (p.step) {
      case Step::kWon:
        ctrl_[p.index].store(ctrl_h2(mixed), std::memory_order_release);
        telemetry_.win();
        occupied_.add(1);
        return {SetInsert::kInserted, p.index};
      case Step::kHit:
        return {SetInsert::kFound, p.index};
      default:
        return {SetInsert::kFull, kNone};
    }
  }

  /// The read walk: the bucket claimed by `key` (live or dead), or kNone.
  /// Wait-free; a concurrent claim may or may not be visible, but keys
  /// never move outside a migration, so a hit is authoritative. An empty
  /// home is a sound miss: a displaced key implies its home was claimed
  /// first, and buckets never unclaim between migrations.
  [[nodiscard]] std::uint64_t locate(Key key, ProbeStats& stats) const noexcept {
    if (key == kEmptyKey) return kNone;
    const Probe p = probe(mix64(key), stats, reader(key));
    return p.step == Step::kHit ? p.index : kNone;
  }

  HashConfig cfg_;
  TableTelemetry telemetry_;
  util::AlignedBuffer<Bucket> buckets_;
  // Control-byte sidecar, one byte per bucket and at least one group (a
  // filter only — see above).
  util::AlignedBuffer<std::atomic<std::uint8_t>> ctrl_;
  std::uint64_t mask_;
  ShardedCounter occupied_;  ///< claimed buckets
  ShardedCounter dead_;      ///< tombstones; moved by the liveness RMW winners

 private:
  /// A walk's verdict on one candidate lane: probe on, the key's bucket
  /// (kWon: this call claimed it), or the end of the chain.
  enum class Step { kNext, kHit, kWon, kMiss };

  /// Where a walk stopped; {kNone, kMiss} when it exhausted the table.
  struct Probe {
    std::uint64_t index;
    Step step;
  };

  struct Migration {
    util::AlignedBuffer<Bucket> buckets;
    util::AlignedBuffer<std::atomic<std::uint8_t>> ctrl;
    std::uint64_t mask = 0;
    alignas(util::kCacheLineSize) std::atomic<std::uint64_t> cursor{0};
    std::atomic<std::uint64_t> live_moved{0};
    std::atomic<std::uint64_t> dropped{0};
  };

  Derived& self() noexcept { return static_cast<Derived&>(*this); }

  /// Sidecar bytes for a table of `buckets`: padded to one whole group so
  /// every group load stays in bounds; GroupWalk masks the padding lanes.
  [[nodiscard]] static std::uint64_t sidecar_size(std::uint64_t buckets) noexcept {
    return std::max<std::uint64_t>(buckets, util::kGroupWidth);
  }

  /// Read-walk verdict: the key is a hit, an empty bucket ends the chain.
  [[nodiscard]] auto reader(Key key) const noexcept {
    return [this, key](std::uint64_t b) {
      const Key current = buckets_[b].key();
      return current == key ? Step::kHit : current == kEmptyKey ? Step::kMiss : Step::kNext;
    };
  }

  /// Home-lane fast path. Home is the walk's first lane, so resolving it
  /// before any group machinery changes no outcome; only a stranger at
  /// home takes the outlined walk, which re-checks home once if its byte
  /// is the fingerprint or still reads empty (a benign extra probe on the
  /// rare path).
  template <typename Visit>
  Probe probe(std::uint64_t mixed, ProbeStats& stats, Visit visit) const {
    const std::uint64_t home = mixed & mask_;
    ++stats.probes;
    const Step step = visit(home);
    if (step != Step::kNext) return {home, step};
    return probe_walk(mixed, stats, visit);
  }

  /// Group walk: visits only the lanes whose control byte is the key's
  /// fingerprint or empty, in lane order. A fingerprint lane whose verdict
  /// is kNext is a verified H2 false positive. The walk counts in locals
  /// and adds to `stats` once: the verdicts issue atomic loads, across
  /// which a count kept in `stats` would go through memory on every step.
  template <typename Visit>
  [[gnu::noinline]] Probe probe_walk(std::uint64_t mixed, ProbeStats& stats,
                                     Visit visit) const {
    const std::uint8_t fp = ctrl_h2(mixed);
    ProbeStats n;
    const auto stop = [&stats, &n](Probe p) {
      stats.probes += n.probes;
      stats.group_loads += n.group_loads;
      stats.fps += n.fps;
      return p;
    };
    GroupWalk walk(mixed & mask_, buckets_.size());
    for (std::uint32_t lanes = walk.first(); !walk.done(); lanes = walk.next()) {
      const util::Group grp = util::Group::load(&ctrl_[walk.base()]);
      ++n.group_loads;
      const std::uint32_t h2m = grp.match(fp) & lanes;
      std::uint32_t cand = (h2m | grp.match_empty()) & lanes;
      while (cand != 0) {
        const auto lane = static_cast<unsigned>(std::countr_zero(cand));
        cand &= cand - 1;
        const std::uint64_t b = walk.base() + lane;
        ++n.probes;
        const Step step = visit(b);
        if (step != Step::kNext) return stop({b, step});
        if (((h2m >> lane) & 1u) != 0) ++n.fps;
      }
    }
    return stop({kNone, Step::kMiss});
  }

  void migration_prepare(std::uint64_t target_buckets) {
    assert(!growing() && "migration_prepare while a migration is already open");
    auto mig = std::make_unique<Migration>();
    mig->buckets = util::AlignedBuffer<Bucket>(target_buckets);
    mig->ctrl =
        util::AlignedBuffer<std::atomic<std::uint8_t>>(sidecar_size(target_buckets));
    mig->mask = target_buckets - 1;
    migration_ = std::move(mig);
  }

  /// Migration insert: keys are unique in the old array and the target is
  /// sized for every live key, so the claim always wins eventually (a lost
  /// CAS is another helper's key). Probes scalar — keys arrive deduplicated
  /// into a sparse target — but seeds the target's sidecar (relaxed:
  /// grow_finish's barrier publishes the whole array). Old buckets are
  /// quiescent, so the payload is carried with plain reads. Probe counts
  /// accumulate in `probes` and flush once per chunk from grow_help.
  void migrate_into(Migration& mig, Key key, const Bucket& old, std::uint64_t& probes) {
    const std::uint64_t mixed = mix64(key);
    for (std::uint64_t b = mixed & mig.mask;; b = (b + 1) & mig.mask) {
      ++probes;
      const BucketClaim won = mig.buckets[b].claim(key, [this] { telemetry_.cas(); });
      if (won == BucketClaim::kWon) {
        mig.ctrl[b].store(ctrl_h2(mixed), std::memory_order_relaxed);
        self().carry(mig.buckets[b], old);
        return;
      }
      assert(won == BucketClaim::kOther && "duplicate key in migration sweep");
    }
  }

  void sweep(int threads) {
#pragma omp parallel num_threads(threads > 0 ? threads : omp_get_max_threads())
    grow_help();
    // The implicit barrier at parallel-region end is the protocol barrier.
    grow_finish();
  }

  std::unique_ptr<Migration> migration_;
};

}  // namespace crcw::ds
