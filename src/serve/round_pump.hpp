// RoundPump — the one round pump every serving backend runs on.
//
// Lifecycle of one batch (the admission→round→commit diagram in
// docs/architecture.md):
//
//   clients ──enqueue──▶ RequestQueue lanes, part-major: part p owns lanes
//                           │ [p·L, (p+1)·L) and route(key) picks one of them
//                           │ RequestQueue::trigger closes the batch on
//                           │   size  (pending ≥ max_batch),
//                           │   quiet (no op admitted since the last check), or
//                           │   deadline backstop (oldest wait ≥ max_wait_us)
//                           ▼
//          drain lane by lane into per-part pending lists
//                           ▼ per slice of ≤ max_batch ops per part:
//          admission   latency sample; an op the executor rejects publishes
//                      Result{0, false, r} without touching any state
//          reserve     the executor's backlog-sized grow
//          next_round  round r opens — one increment, CAS-LT needs no reset
//          read pass   per part: reads of the state rounds < r committed
//          ── round boundary: every read of round r closes before any write ──
//          write pass  per part, fused: arbitrate at round r and publish
//          one commit stamp for the round's sampled latencies, end_round
//          end_batch   the executor's reclaim, at batch close
//
// A part is a shard (ShardedScheduler) or an execution stripe
// (stream::StreamScheduler); a key's part is the HIGH bits of
// ds::mix64(key), so part choice and in-table bucket placement (low bits)
// stay decorrelated. Inside a part a slice runs on ONE thread in admission
// order, so the first same-key write is the (key, round) winner and the
// committed outcome never changes again within the round: every op
// publishes the moment its write returns. Parallelism comes from part
// independence, never intra-part fan-out, so a round's outcome does not
// depend on the team size.
//
// Execution rule, the same for every backend: a slice forks the OpenMP
// team (schedule static,1 over parts, the implicit barrier between the two
// passes is the round boundary) only when exec_threads > 1, the slice has
// ≥ kInlineRoundOps ops, and there is more than one part. Otherwise both
// passes run inline on the pump's thread — all reads, then all writes —
// which is also the raw-thread TSan stress tier's mode (exec_threads 1).
//
// Concurrency shape: clients only touch the queue and their futures; the
// tables, arbiter and histograms are touched only under the pump lock, so
// any number of threads may call submit_batch()/flush() and exactly one
// executes; a PumpGuard holds the lock, so even a throwing round releases
// it. Snapshot cuts park grow (reserve) and reclaim (end_batch): both free
// a bucket array a concurrent cut-predicated scan may still walk. A write
// that then finds its table full is refused (Result{0, false, r}); without
// a held cut a full table means the backlog reservation broke, and the
// round throws.
//
// The executor (CRTP: `class X : public RoundPump<X>`) supplies only what
// differs between backends:
//   Admit classify(const Op&) const          reject, read or write
//   void reserve(std::span<const Part>)      backlog grow; skipped while a
//                                            cut is held
//   void read_pass(p, window, r)             part p's reads
//   void write_pass(p, window, r, Tally&)    part p's fused writes + publish
//   void end_round(std::span<const Part>)    per-round upkeep after commit
//   void end_batch()                         reclaim; skipped while a cut is
//                                            held
//   std::uint64_t live_keys() const          the stats() key count
//   std::uint32_t snapshot_shards() const    segments a cut covers
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/arbiter.hpp"
#include "core/policies.hpp"
#include "ds/hash_common.hpp"
#include "serve/config.hpp"
#include "serve/op.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_metrics.hpp"
#include "serve/service_backend.hpp"
#include "snap/cut.hpp"
#include "util/cacheline.hpp"

namespace crcw::serve {

/// What a round does with one admitted op.
enum class Admit : std::uint8_t { kReject, kRead, kWrite };

template <typename Executor>
class RoundPump {
 public:
  /// What one part's write pass reports (written by the part's own thread).
  struct Tally {
    std::uint64_t wins = 0;  ///< writes that won their (key, round)
    bool full = false;       ///< a write found the table full
  };

  /// One part's pump state. Padded so two parts' slice fields, written by
  /// different team threads, never share a line.
  struct alignas(util::kCacheLineSize) Part {
    std::vector<Record> pending;  ///< drained this batch
    std::uint64_t ops_total = 0;  ///< lifetime executed ops
    std::uint64_t ops = 0;        ///< this slice: records in the window
    std::uint64_t writes = 0;     ///< this slice: admitted writes
    Tally tally;                  ///< this slice: the write pass's outcome
  };

  RoundPump(const RoundPump&) = delete;
  RoundPump& operator=(const RoundPump&) = delete;

  /// Part-major lane layout: every part owns the same number of lanes
  /// (resolved_lanes rounded up to a multiple of the part count).
  [[nodiscard]] static int queue_lanes(const ServeConfig& cfg) {
    const ServeConfig v = cfg.validated();
    return v.shards.count * lanes_per_part(v);
  }

  /// Runs one batch if the admission trigger fired (RequestQueue::trigger).
  /// True iff this call executed at least one round; losers of the pump
  /// race return false.
  bool submit_batch() { return run_batch(false); }

  /// Unconditionally drains and executes everything pending (one call =
  /// one drain; callers loop while clients are still enqueuing).
  bool flush() { return run_batch(true); }

  // -- routing --------------------------------------------------------------
  [[nodiscard]] int shard_count() const noexcept { return static_cast<int>(parts_.size()); }
  [[nodiscard]] int shard_of(std::uint64_t key) const noexcept {
    return static_cast<int>((ds::mix64(key) >> 32) & part_mask_);
  }
  /// A lane of the key's own part; distinct client threads spread over the
  /// part's lanes by a dense thread-local slot.
  [[nodiscard]] std::size_t route(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(shard_of(key)) * lanes_per_part_ +
           client_slot() % lanes_per_part_;
  }

  // -- snapshot cuts --------------------------------------------------------
  /// Mints a consistent cut: parks the pump just long enough to read the
  /// round (no batch in flight while the lock is held, so every write
  /// ≤ that round is committed), registers the hold, and lets the pump
  /// resume. The one arbiter is the round authority for every part, so the
  /// cut is consistent across parts. Pair with release_cut() or
  /// snap::HeldCut.
  [[nodiscard]] snap::SnapshotCut mint_cut() {
    const PumpGuard pump(pump_lock_);
    cuts_held_.fetch_add(1, std::memory_order_acq_rel);
    return snap::SnapshotCut{arbiter_.round(), executor().snapshot_shards()};
  }

  void release_cut() noexcept { cuts_held_.fetch_sub(1, std::memory_order_acq_rel); }

  /// Cuts currently held against this backend (maintenance parks on > 0).
  [[nodiscard]] std::uint64_t cuts_held() const noexcept {
    return cuts_held_.load(std::memory_order_acquire);
  }

  /// Serial: continues the committed round sequence after restore.
  void reseed_round(round_t r) { arbiter_.reseed_round(r); }

  // -- introspection --------------------------------------------------------
  [[nodiscard]] round_t round() const noexcept { return arbiter_.round(); }
  [[nodiscard]] std::uint64_t batches() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t deadline_batches() const noexcept {
    return deadline_batches_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t ops_served() const noexcept {
    return ops_served_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int exec_threads() const noexcept { return threads_; }
  /// Ops part s executed since construction (pump-serial counter).
  [[nodiscard]] std::uint64_t shard_ops(int s) const {
    return parts_[static_cast<std::size_t>(s)].ops_total;
  }

  [[nodiscard]] BackendStats stats() const noexcept {
    BackendStats st;
    st.rounds = round();
    st.batches = batches();
    st.deadline_batches = deadline_batches();
    st.ops_served = ops_served();
    st.keys = executor().live_keys();
    st.shards = shard_count();
    st.shard_local_ops = metrics_.route_local();
    st.shard_foreign_ops = metrics_.route_foreign();
    return st;
  }

 protected:
  RoundPump(const ServeConfig& cfg, RequestQueue& queue, ServeMetrics& metrics)
      : cfg_(cfg.validated()),
        threads_(cfg_.batch.resolved_threads()),
        part_mask_(static_cast<std::uint64_t>(cfg_.shards.count) - 1),
        lanes_per_part_(static_cast<std::size_t>(lanes_per_part(cfg_))),
        queue_(queue),
        metrics_(metrics),
        parts_(static_cast<std::size_t>(cfg_.shards.count)) {}

  ~RoundPump() = default;

  [[nodiscard]] const ServeConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::atomic_flag& pump_lock() noexcept { return pump_lock_; }

 private:
  [[nodiscard]] Executor& executor() noexcept { return static_cast<Executor&>(*this); }
  [[nodiscard]] const Executor& executor() const noexcept {
    return static_cast<const Executor&>(*this);
  }

  [[nodiscard]] static int lanes_per_part(const ServeConfig& v) noexcept {
    const int count = v.shards.count;
    return std::max(1, (v.batch.resolved_lanes() + count - 1) / count);
  }

  [[nodiscard]] static std::size_t client_slot() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
    return slot;
  }

  bool run_batch(bool force) {
    const Close why = force ? Close::kForced
                            : queue_.trigger(cfg_.batch.max_batch, cfg_.batch.max_wait_us);
    if (why == Close::kNone) return false;
    const PumpGuard pump(pump_lock_, std::try_to_lock);
    if (!pump) return false;
    // Cleared here rather than at batch close: a round that threw leaves
    // its batch behind, and it must never run again.
    for (Part& part : parts_) part.pending.clear();

    // Drain lane by lane straight into the lane's own part: a routed lane
    // is already part-local. With more than one part, strays (raw enqueues
    // that bypassed route()) are then moved to their key's part and counted
    // foreign.
    std::uint64_t drained = 0;
    std::uint64_t foreign = 0;
    for (std::size_t l = 0; l < queue_.lanes(); ++l) {
      const std::size_t home = std::min(l / lanes_per_part_, parts_.size() - 1);
      const std::size_t first = parts_[home].pending.size();
      drained += queue_.drain_lane_into(l, parts_[home].pending);
      if (parts_.size() > 1) foreign += reroute_strays(home, first);
    }
    if (drained == 0) return false;

    // A drain larger than max_batch on some part becomes several rounds;
    // slice boundaries are deterministic in admission order.
    std::size_t slices = 0;
    for (const Part& part : parts_) {
      slices = std::max<std::size_t>(
          slices, (part.pending.size() + cfg_.batch.max_batch - 1) / cfg_.batch.max_batch);
    }
    for (std::size_t j = 0; j < slices; ++j) execute_slice(j);

    batches_.fetch_add(1, std::memory_order_relaxed);
    if (why == Close::kDeadline) deadline_batches_.fetch_add(1, std::memory_order_relaxed);
    ops_served_.fetch_add(drained, std::memory_order_relaxed);
    metrics_.batch_closed();
    metrics_.routed(drained - foreign, foreign);
    // Batch boundary = step boundary: no round is in flight and the pump
    // lock is held, so the executor may rebuild its tables.
    if (cuts_held() == 0) executor().end_batch();
    return true;
  }

  /// Moves the records of parts_[home].pending[first..) that belong to
  /// another part onto that part's list, keeping admission order; returns
  /// how many moved. A record the executor rejects touches no part, so it
  /// stays home.
  std::uint64_t reroute_strays(std::size_t home, std::size_t first) {
    std::vector<Record>& pending = parts_[home].pending;
    std::size_t kept = first;
    for (std::size_t i = first; i < pending.size(); ++i) {
      const Record rec = pending[i];
      const auto p = static_cast<std::size_t>(shard_of(rec.op.key));
      if (p == home || executor().classify(rec.op) == Admit::kReject) {
        pending[kept++] = rec;
      } else {
        parts_[p].pending.push_back(rec);
      }
    }
    const std::uint64_t moved = pending.size() - kept;
    pending.resize(kept);
    return moved;
  }

  /// Part p's records in slice j: [j·max_batch, …) clamped to pending.
  [[nodiscard]] std::span<const Record> window(std::size_t p, std::size_t j) const {
    const std::vector<Record>& pending = parts_[p].pending;
    const std::size_t begin = std::min(pending.size(), j * cfg_.batch.max_batch);
    const std::size_t end = std::min(pending.size(), begin + cfg_.batch.max_batch);
    return {pending.data() + begin, end - begin};
  }

  /// One logical round across every part.
  void execute_slice(std::size_t j) {
    const std::uint64_t admit_ns = now_ns();
    const bool parked = cuts_held() != 0;
    std::uint64_t admitted = 0;
    for (std::size_t p = 0; p < parts_.size(); ++p) {
      Part& part = parts_[p];
      const std::span<const Record> win = window(p, j);
      part.ops = win.size();
      part.writes = 0;
      part.tally = Tally{};
      for (const Record& rec : win) {
        if (rec.enqueue_ns != 0) metrics_.record_admit(rec.enqueue_ns, admit_ns);
        switch (executor().classify(rec.op)) {
          case Admit::kReject:
            rec.future->publish(Result{0, false, arbiter_.round() + 1});
            break;
          case Admit::kWrite:
            ++part.writes;
            break;
          case Admit::kRead:
            break;
        }
      }
      admitted += part.ops;
      part.ops_total += part.ops;
    }
    metrics_.ops_admitted(admitted);
    // Grow runs its own OpenMP region, so it cannot live inside the
    // execution region below.
    if (!parked) executor().reserve(parts_);

    const auto scope = arbiter_.next_round();
    const round_t r = scope.round();
    const auto n_parts = static_cast<std::ptrdiff_t>(parts_.size());
    const auto read = [&](std::ptrdiff_t p) {
      const auto i = static_cast<std::size_t>(p);
      executor().read_pass(i, window(i, j), r);
    };
    const auto write = [&](std::ptrdiff_t p) {
      const auto i = static_cast<std::size_t>(p);
      executor().write_pass(i, window(i, j), r, parts_[i].tally);
    };
    if (threads_ > 1 && n_parts > 1 && admitted >= kInlineRoundOps) {
#pragma omp parallel num_threads(threads_)
      {
#pragma omp for schedule(static, 1)
        for (std::ptrdiff_t p = 0; p < n_parts; ++p) read(p);
        // implicit barrier — the round boundary: every read of round r,
        // on every part, closed before any round-r write begins anywhere.
#pragma omp for schedule(static, 1)
        for (std::ptrdiff_t p = 0; p < n_parts; ++p) write(p);
      }
    } else {
      for (std::ptrdiff_t p = 0; p < n_parts; ++p) read(p);
      for (std::ptrdiff_t p = 0; p < n_parts; ++p) write(p);
    }

    const std::uint64_t commit_ns = now_ns();
    std::uint64_t wins = 0;
    bool full = false;
    for (std::size_t p = 0; p < parts_.size(); ++p) {
      wins += parts_[p].tally.wins;
      full = full || parts_[p].tally.full;
      const std::span<const Record> win = window(p, j);
      if (win.empty()) continue;
      metrics_.record_commits(win.data(), win.data() + win.size(), admit_ns, commit_ns);
      metrics_.record_shard_round_ops(win.size());
    }
    executor().end_round(parts_);
    if (full && !parked) {
      throw std::runtime_error("serve: table full despite backlog reservation");
    }
    metrics_.write_wins(wins);
    metrics_.flush_round();
  }

  ServeConfig cfg_;
  int threads_;
  std::uint64_t part_mask_;
  std::size_t lanes_per_part_;
  RequestQueue& queue_;
  ServeMetrics& metrics_;
  std::vector<Part> parts_;
  // One arbiter = one logical round id for every part; zero tags because
  // per-key arbitration lives in the executor's tables.
  WriteArbiter<CasLtPolicy> arbiter_{0};
  std::atomic_flag pump_lock_;
  std::atomic<std::uint64_t> cuts_held_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> deadline_batches_{0};
  std::atomic<std::uint64_t> ops_served_{0};
};

}  // namespace crcw::serve
