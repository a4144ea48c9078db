// ChainedHashSet — separate chaining whose node allocation rides the
// SlotAllocator's chunk grants: one shared fetch_add per util::slot_chunk()
// nodes instead of one per insert, the exact contention reduction
// core/slot_alloc.hpp built for the frontier kernels, applied to hash
// nodes (Bender et al., "Fast Concurrent Primitives Despite Contention":
// fewer threads touching one line beats micro-tuning the RMW).
//
// Insert is a Treiber push onto the bucket's head index with a
// self-tombstoning dedup pass:
//
//   1. scan the chain — if the key appears LIVE anywhere, it is present
//      and no node is spent;
//   2. grant a node from the caller's lane, fill it, CAS it in at head;
//   3. re-scan *from the new node's next pointer*: if a live same-key
//      node sits deeper, an older insert of the same key committed first —
//      mark our own node dead and report kFound. Only the deepest live
//      same-key node stays live, so exactly one thread per key returns
//      kInserted: the arbitrary-CW one-winner contract, without marked
//      pointers or unlinking.
//
// Invariant: membership is "a live same-key node exists", and at most one
// live node per key survives any insert phase — a pushed node
// self-tombstones exactly when a deeper live twin exists, and by
// induction along the finite chain the deepest live twin never
// tombstones itself. Dead nodes are permanent within a phase (nothing
// revives them; a re-insert of an erased key pushes a fresh node), which
// is what makes the induction sound under erase.
//
// Erase marks the key's live node dead: one compare-exchange on the
// node's dead flag, first clearer wins. Phase discipline: erases run
// concurrently with erases/lookups of any key and inserts of OTHER keys;
// same-key insert/erase races need the usual phase (round) separation —
// the chained set has no round tags, the open tables own that case.
//
// Indices, not pointers, link the chain: nodes live in one arena sized at
// construction. Tombstoned nodes are not leaked: reclaim(), serial at a
// step boundary, unlinks every dead node and feeds the indices back to
// the allocator's recycled pool (SlotAllocator::stock_recycled), so
// long-lived churn reuses the arena. There is no ABA window on the head
// CAS because recycling happens only between phases — no in-flight
// insert can hold a recycled index.
//
// Threading contract mirrors SlotAllocator's: at most one thread per lane
// at a time (OpenMP callers pass omp_get_thread_num(); raw threads pass
// their own dense ids); inserts/erases/lookups run concurrently (see the
// phase discipline above), for_each, reclaim and counter readout are
// serial/post-barrier.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/slot_alloc.hpp"
#include "ds/hash_common.hpp"
#include "util/aligned_buffer.hpp"
#include "util/backoff.hpp"

namespace crcw::ds {

/// Chain-shape diagnostics with the live/dead split: dead (tombstoned)
/// nodes still occupy chain links until a reclaim, so counting them as
/// occupancy would overstate the probe cost the benches report.
struct ChainStats {
  double mean_live = 0.0;          ///< mean live nodes per non-empty chain
  std::uint64_t longest_live = 0;  ///< max live nodes on one chain
  std::uint64_t live_nodes = 0;
  std::uint64_t dead_nodes = 0;    ///< reclaimable tombstones still linked
};

template <typename Key = std::uint64_t>
  requires std::unsigned_integral<Key>
class ChainedHashSet {
 public:
  static constexpr std::uint64_t kNil = std::numeric_limits<std::uint64_t>::max();

  /// `capacity` bounds the *nodes spent*, which exceeds distinct keys by
  /// the tombstoned duplicates plus each lane's unconsumed chunk tail
  /// (SlotAllocator::slack()); the arena adds that slack on top. Reclaim
  /// sweeps recycle tombstones, so under churn the bound applies per
  /// phase, not per lifetime.
  ChainedHashSet(std::uint64_t capacity, int lanes, HashConfig cfg = {})
      : cfg_(std::move(cfg)),
        telemetry_(cfg_),
        heads_(bucket_count_for(required_buckets(capacity, cfg_.max_load))),
        mask_(heads_.size() - 1),
        alloc_(lanes),
        arena_(alloc_.capacity_for(capacity)) {}

  [[nodiscard]] std::uint64_t bucket_count() const noexcept { return heads_.size(); }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_.total(); }
  /// Tombstoned nodes awaiting reclaim (erases + self-tombstoned dups).
  /// Serial or post-barrier.
  [[nodiscard]] std::uint64_t tombstones() const noexcept { return dead_.total(); }
  [[nodiscard]] SlotAllocator& allocator() noexcept { return alloc_; }

  /// Inserts `key` using the caller's lane. Lock-free (the head CAS
  /// retries only when another insert committed). kFull means the node
  /// arena is exhausted — unlike the open tables there is no grow
  /// protocol; size the arena for the workload and reclaim() between
  /// phases.
  SetInsert insert(int lane, Key key) {
    const std::uint64_t b = mix64(key) & mask_;
    std::atomic<std::uint64_t>& head = heads_[b].index;

    std::uint64_t top = head.load(std::memory_order_acquire);
    if (chain_has_live(top, key)) return SetInsert::kFound;

    const std::uint64_t slot = alloc_.grant(lane);
    if (slot >= arena_.size()) return SetInsert::kFull;
    Node& node = arena_[slot];
    node.key = key;
    node.dead.store(false, std::memory_order_relaxed);

    util::Backoff backoff;
    for (;;) {
      node.next.store(top, std::memory_order_relaxed);
      telemetry_.cas();
      if (head.compare_exchange_weak(top, slot, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        break;
      }
      // `top` reloaded; re-link and retry. A failed CAS means another
      // insert committed — lock-free, not wait-free — so this is a true
      // retry loop and gets bounded exponential backoff (util/backoff.hpp);
      // hot chains otherwise convoy every pusher on one head line.
      backoff.pause();
    }

    // Dedup: an older live same-key node deeper in the chain wins.
    if (chain_has_live(node.next.load(std::memory_order_relaxed), key)) {
      node.dead.store(true, std::memory_order_release);
      dead_.add(1);
      return SetInsert::kFound;
    }
    telemetry_.win();
    size_.add(1);
    return SetInsert::kInserted;
  }

  /// Erases `key`: tombstones its live node. First CAS on the dead flag
  /// wins; returns true iff this call transitioned the key live → dead
  /// (false if absent or already erased). The node stays linked — and
  /// counted by tombstones() — until reclaim() unlinks and recycles it.
  bool erase(Key key) {
    const std::uint64_t b = mix64(key) & mask_;
    std::uint64_t walked = 0;
    for (std::uint64_t i = heads_[b].index.load(std::memory_order_acquire); i != kNil;
         i = arena_[i].next.load(std::memory_order_acquire)) {
      ++walked;
      Node& node = arena_[i];
      if (node.key != key || node.dead.load(std::memory_order_acquire)) continue;
      telemetry_.cas();
      bool expected = false;
      if (node.dead.compare_exchange_strong(expected, true, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        telemetry_.probes(walked);
        telemetry_.tombstone();
        dead_.add(1);
        size_.sub(1);
        return true;
      }
      // A racing eraser tombstoned this node first; keep walking in case
      // a deeper live twin exists (it cannot under the phase discipline,
      // but the walk is bounded and the defensive scan is free).
    }
    telemetry_.probes(walked);
    return false;
  }

  /// Wait-free membership test (bounded by chain length); true iff a live
  /// same-key node exists. Concurrent inserts/erases may or may not be
  /// visible.
  [[nodiscard]] bool contains(Key key) const noexcept {
    const std::uint64_t b = mix64(key) & mask_;
    return chain_has_live(heads_[b].index.load(std::memory_order_acquire), key);
  }

  /// Serial/post-barrier iteration over live (deduplicated) keys.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Head& h : heads_) {
      for (std::uint64_t i = h.index.load(std::memory_order_acquire); i != kNil;
           i = arena_[i].next.load(std::memory_order_acquire)) {
        if (!arena_[i].dead.load(std::memory_order_acquire)) fn(arena_[i].key);
      }
    }
  }

  /// Chain-shape diagnostics with live and dead counted separately
  /// (serial). mean/longest describe LIVE occupancy — what a lookup pays
  /// after the next reclaim; dead_nodes is the reclaimable backlog.
  [[nodiscard]] ChainStats chain_stats() const {
    ChainStats s;
    std::uint64_t chains = 0;
    for (const Head& h : heads_) {
      std::uint64_t live = 0;
      std::uint64_t dead = 0;
      for (std::uint64_t i = h.index.load(std::memory_order_acquire); i != kNil;
           i = arena_[i].next.load(std::memory_order_acquire)) {
        if (arena_[i].dead.load(std::memory_order_acquire)) {
          ++dead;
        } else {
          ++live;
        }
      }
      if (live + dead > 0) ++chains;
      s.live_nodes += live;
      s.dead_nodes += dead;
      s.longest_live = std::max(s.longest_live, live);
    }
    if (chains > 0) {
      s.mean_live = static_cast<double>(s.live_nodes) / static_cast<double>(chains);
    }
    return s;
  }

  // -- reclamation (serial, between phases) ---------------------------------

  /// Tombstone watermark against the arena — the resource churn actually
  /// exhausts here. Serial or post-barrier.
  [[nodiscard]] bool needs_reclaim() const noexcept {
    const std::uint64_t dead = tombstones();
    return dead > 0 && static_cast<double>(dead) >=
                           cfg_.reclaim_ratio * static_cast<double>(arena_.size());
  }

  /// Serial: unlinks every dead node and feeds its arena index back to the
  /// allocator's recycled pool, so the next phase's grants reuse them.
  /// Returns the number of nodes recycled. ABA-safe by construction: no
  /// parallel phase is in flight, so no thread holds an unlinked index.
  std::uint64_t reclaim() {
    std::vector<std::uint64_t> freed;
    for (Head& h : heads_) {
      // Dead prefix: advance the head itself.
      std::uint64_t i = h.index.load(std::memory_order_relaxed);
      while (i != kNil && arena_[i].dead.load(std::memory_order_relaxed)) {
        freed.push_back(i);
        i = arena_[i].next.load(std::memory_order_relaxed);
      }
      h.index.store(i, std::memory_order_relaxed);
      // Interior runs: splice each dead run out.
      while (i != kNil) {
        std::uint64_t next = arena_[i].next.load(std::memory_order_relaxed);
        while (next != kNil && arena_[next].dead.load(std::memory_order_relaxed)) {
          freed.push_back(next);
          next = arena_[next].next.load(std::memory_order_relaxed);
        }
        arena_[i].next.store(next, std::memory_order_relaxed);
        i = next;
      }
    }
    for (const std::uint64_t idx : freed) {
      arena_[idx].dead.store(false, std::memory_order_relaxed);
      arena_[idx].next.store(kNil, std::memory_order_relaxed);
    }
    const auto recycled = static_cast<std::uint64_t>(freed.size());
    telemetry_.reclaimed(recycled);
    dead_.reset();
    alloc_.stock_recycled(std::move(freed));
    return recycled;
  }

  /// Watermark-gated reclaim for step boundaries; returns the number of
  /// nodes recycled (0 if below the watermark).
  std::uint64_t maybe_reclaim() { return needs_reclaim() ? reclaim() : 0; }

  // -- telemetry ------------------------------------------------------------

  [[nodiscard]] TableTelemetry& telemetry() noexcept { return telemetry_; }

  /// Round boundary hook: folds the allocator's shared-cursor refills into
  /// the site (counter `refills`) and flushes the round histograms.
  /// Serial/post-barrier.
  void flush_round() noexcept {
    if (telemetry_.enabled()) {
      const std::uint64_t refills = alloc_.refills();
      for (std::uint64_t i = folded_refills_; i < refills; ++i) telemetry_.chunk_claim();
      folded_refills_ = refills;
    }
    telemetry_.flush_round();
  }

 private:
  struct Node {
    Key key{};
    std::atomic<std::uint64_t> next{kNil};
    std::atomic<bool> dead{false};
  };

  struct Head {
    std::atomic<std::uint64_t> index{kNil};
  };

  /// Whether a LIVE `key` node occurs in the chain starting at `from`.
  /// Dead nodes are walked through but never prove membership — a dead
  /// twin means the key was erased (or the node lost a dedup race to a
  /// node that itself proves membership or was erased later).
  [[nodiscard]] bool chain_has_live(std::uint64_t from, Key key) const noexcept {
    std::uint64_t walked = 0;
    for (std::uint64_t i = from; i != kNil;
         i = arena_[i].next.load(std::memory_order_acquire)) {
      ++walked;
      if (arena_[i].key == key && !arena_[i].dead.load(std::memory_order_acquire)) {
        telemetry_.probes(walked);
        return true;
      }
    }
    telemetry_.probes(walked);
    return false;
  }

  HashConfig cfg_;
  mutable TableTelemetry telemetry_;  ///< counters only; recorders are thread-safe
  util::AlignedBuffer<Head> heads_;
  std::uint64_t mask_;
  SlotAllocator alloc_;
  util::AlignedBuffer<Node> arena_;
  ShardedCounter size_;
  ShardedCounter dead_;
  std::uint64_t folded_refills_ = 0;  ///< serial: flush_round only
};

}  // namespace crcw::ds
