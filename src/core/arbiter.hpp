// WriteArbiter — one conflict-resolution tag per concurrent-write target.
//
// PRAM kernels perform concurrent writes into whole arrays (Parent[],
// Level[], isMax[], …). A WriteArbiter owns the parallel array of tags and
// the round counter, and it alone re-arms the tags at the round boundary:
// the per-round re-initialisation the paper charges to the gatekeeper
// scheme (§6: depth O(1), work O(N) per round; Fig 3(b) lines 34-35) and
// that CAS-LT tags never need.
//
// Round lifecycle (the only supported way to advance rounds):
//
//   {
//     auto scope = arbiter.next_round();          // PRAM step boundary
//     #pragma omp parallel for
//     for (...) if (scope.acquire(target)) ...;   // concurrent writes
//   }                                             // scope end flushes metrics
//
// Who re-arms, when, and on which threads: next_round(), called serially
// between parallel regions, re-arms before it opens the round, the way the
// arbiter was built (ArbiterConfig). Rearm::kSweep resets every tag and
// Rearm::kSparse only the tags the previous round's winners took. With
// ArbiterConfig::threads > 1 the re-arm is work-shared across an OpenMP
// team of that size — its own parallel region before the round's; with
// one thread it is a plain loop on the calling thread and no OpenMP region
// runs, which is what raw-std::thread callers (the TSan stress tier) need.
// Explicit-round kernels (the serve tables) take the round id from
// next_round() and acquire through acquire_at(i, round) instead of the
// scope's acquire.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/policies.hpp"
#include "obs/metrics.hpp"
#include "util/aligned_buffer.hpp"
#include "util/cacheline.hpp"

namespace crcw {

/// Tag layout: packed (dense, default — what the paper's kernels use) or
/// padded (one tag per cache line; ablation A1 measures the difference).
enum class TagLayout { kPacked, kPadded };

/// Whether next_round() re-arms the tags of a policy that needs it
/// (Policy::kNeedsRoundReset); a no-op either way for the others.
enum class ResetMode {
  kPolicy,  ///< re-arm the way the arbiter was built (ArbiterConfig)
  kNone,    ///< skip it: the caller vouches that the tags are fresh
};

/// How a gatekeeper-family arbiter re-arms its tags before each round.
enum class Rearm : std::uint8_t {
  kSweep,   ///< every tag: the paper's Θ(N) sweep (Fig 3(b) lines 34-35)
  kSparse,  ///< only the tags last round's winners took, recorded in
            ///< per-lane touched lists: O(#writes), not Θ(N)
};

/// Construction-time knobs for WriteArbiter (the defaults are the
/// paper-faithful serial sweep).
struct ArbiterConfig {
  Rearm rearm = Rearm::kSweep;
  /// Threads that re-arm the tags and first-touch their pages: > 1 =
  /// work-shared across an OpenMP team of this size under the static
  /// schedule the kernels' own sweeps use; <= 1 = plain loops on the
  /// calling thread, no OpenMP region.
  int threads = 1;
  /// Touched-list lanes (Rearm::kSparse). The hard contract is at most one
  /// acquiring thread per lane at a time. 0 = max(threads,
  /// omp_get_max_threads()), enough for an OpenMP team acquiring with its
  /// thread numbers; raw-thread callers set it and pass explicit lanes.
  int lanes = 0;

  /// Page placement that matches the re-arm: the team that sweeps the
  /// tags faults their pages in.
  [[nodiscard]] util::FirstTouch first_touch() const noexcept {
    return threads > 1 ? util::FirstTouch::kParallel : util::FirstTouch::kSerial;
  }
};

/// Marker detection: an instrumented policy exposes kInstrumented plus a
/// 3-argument try_acquire(tag, round, ContentionSite&) (see
/// core/instrumented.hpp). The arbiter then owns a ContentionSite and
/// routes every acquire through it.
template <typename P>
concept InstrumentedWritePolicy = WritePolicy<P> && requires { P::kInstrumented; };

template <WritePolicy Policy, TagLayout Layout = TagLayout::kPacked>
class WriteArbiter {
  using Tag = typename Policy::tag_type;
  using Stored =
      std::conditional_t<Layout == TagLayout::kPadded, util::Padded<Tag>, Tag>;

  static constexpr bool kInstrumentedPolicy = InstrumentedWritePolicy<Policy>;

 public:
  using policy_type = Policy;

  /// One concurrent-write step. Holds the round id fixed for its lifetime;
  /// acquire(i) races the calling thread for target i in that round. At
  /// scope end the round's contention counters flush into the arbiter's
  /// ContentionSite histograms (instrumented policies only) — which is why
  /// the scope is deliberately non-copyable and non-movable: exactly one
  /// flush per round, at the step boundary where it is serial-safe.
  class RoundScope {
   public:
    RoundScope(const RoundScope&) = delete;
    RoundScope& operator=(const RoundScope&) = delete;

    ~RoundScope() { arbiter_.flush_round_metrics(); }

    [[nodiscard]] round_t round() const noexcept { return round_; }

    /// True iff the calling thread won this round's write to target i.
    /// `lane` as in acquire_at.
    bool acquire(std::size_t i, int lane = -1) { return arbiter_.acquire_at(i, round_, lane); }

   private:
    friend class WriteArbiter;
    RoundScope(WriteArbiter& a, round_t r) noexcept : arbiter_(a), round_(r) {}

    WriteArbiter& arbiter_;
    round_t round_;
  };

  explicit WriteArbiter(std::size_t targets = 0, const ArbiterConfig& cfg = {})
      : tags_(targets, cfg.first_touch(), cfg.threads),
        touch_lanes_(touch_lane_count(cfg)),
        threads_(cfg.threads) {
    if constexpr (kInstrumentedPolicy) {
      site_ = std::make_unique<obs::ContentionSite>(std::string(Policy::kName));
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return tags_.size(); }
  [[nodiscard]] round_t round() const noexcept { return round_; }

  /// Starts the next concurrent-write step. Not thread-safe: call it from
  /// serial code between parallel regions — the same place the PRAM model
  /// puts its step boundary. ResetMode::kPolicy first re-arms the tags the
  /// way the arbiter was built (see the header comment); kNone skips that.
  /// Policies without a per-round reset only advance the round.
  [[nodiscard]] RoundScope next_round(ResetMode mode = ResetMode::kPolicy) {
    if constexpr (Policy::kNeedsRoundReset) {
      if (mode == ResetMode::kPolicy) rearm();
    }
    ++round_;
    return RoundScope(*this, round_);
  }

  /// Acquire target i at an explicit round id, for kernels that reuse a
  /// loop index as the round (paper §5: "round could be substituted by the
  /// loop iteration"). The caller owns monotonicity of `round` per target
  /// — and, for instrumented runs, calls flush_round_metrics() at its own
  /// step boundaries. Every acquire path funnels through here. On a sparse
  /// arbiter a win is recorded in touched-list `lane` (the winner is the
  /// unique perturbation witness: a gatekeeper tag is dirty iff some RMW
  /// hit it, and the first RMW is exactly the win). lane < 0 means
  /// omp_get_thread_num(); raw-std::thread callers, for whom that is 0,
  /// pass their own, at most one thread per lane at a time.
  bool acquire_at(std::size_t i, round_t round, int lane = -1) {
    bool won;
    if constexpr (kInstrumentedPolicy) {
      won = Policy::try_acquire(tag(i), round, *site_);
    } else {
      won = Policy::try_acquire(tag(i), round);
    }
    if constexpr (Policy::kNeedsRoundReset) {
      // Off the straight line: without the hint GCC lays the append out
      // inline and spills the kernels' edge-loop registers around it.
      if (won && !touch_lanes_.empty()) [[unlikely]] {
        record_touch(i, lane < 0 ? omp_get_thread_num() : lane);
      }
    }
    return won;
  }

  /// True iff the calling thread won the current-round write to target i.
  bool try_acquire(std::size_t i) { return acquire_at(i, round_); }

  /// Entries currently held across the touched lists — the tags the next
  /// sparse re-arm resets (test/debug probe; serial or post-barrier only).
  [[nodiscard]] std::uint64_t touched_count() const noexcept {
    std::uint64_t total = 0;
    for (const auto& lane : touch_lanes_) total += lane.touched.size();
    return total;
  }

  /// Direct tag access for kernels that manage rounds themselves.
  Tag& tag(std::size_t i) {
    if constexpr (Layout == TagLayout::kPadded) {
      return tags_[i].value;
    } else {
      return tags_[i];
    }
  }

  /// Re-seeds the round counter, serially, without touching tags. The
  /// snapshot restore path uses this so post-restore rounds continue the
  /// committed sequence strictly increasing: a checkpoint taken at cut r
  /// replays into fresh tables whose tags carry rounds <= r, and the next
  /// next_round() must hand out r+1, never a round some restored tag
  /// already holds. Seeding backwards would violate CAS-LT monotonicity,
  /// so it is rejected.
  void reseed_round(round_t r) {
    assert(r >= round_ && "reseed_round must not move the round backwards");
    round_ = r;
  }

  /// Restores every tag and the round counter to the fresh state. Serial
  /// call site; the sweep runs on the configured threads.
  void reset_all() {
    sweep();
    for (auto& lane : touch_lanes_) lane.touched.clear();
    round_ = kInitialRound;
  }

  /// Folds the round's contention deltas into the per-round histograms.
  /// RoundScope does this automatically; only explicit-round kernels
  /// (acquire_at) call it by hand, from serial code at step boundaries.
  void flush_round_metrics() noexcept {
    if constexpr (kInstrumentedPolicy) site_->flush_round();
  }

  /// The instance-owned contention counters (instrumented policies only).
  [[nodiscard]] obs::ContentionSite& contention() noexcept
    requires(kInstrumentedPolicy)
  {
    return *site_;
  }
  [[nodiscard]] const obs::ContentionSite& contention() const noexcept
    requires(kInstrumentedPolicy)
  {
    return *site_;
  }

 private:
  // One cache line per lane so concurrent push_backs never share a line.
  // The vector's heap storage is lane-private too (only its owning thread
  // appends; the re-arm reads it between rounds).
  struct alignas(util::kCacheLineSize) TouchLane {
    std::vector<std::size_t> touched;
  };

  [[nodiscard]] static std::size_t touch_lane_count(const ArbiterConfig& cfg) {
    if (!Policy::kNeedsRoundReset || cfg.rearm != Rearm::kSparse) return 0;
    if (cfg.lanes > 0) return static_cast<std::size_t>(cfg.lanes);
    return static_cast<std::size_t>(std::max({cfg.threads, omp_get_max_threads(), 1}));
  }

  void record_touch(std::size_t i, int lane) {
    assert(lane >= 0 && static_cast<std::size_t>(lane) < touch_lanes_.size() &&
           "acquire lane out of range: configure ArbiterConfig::lanes >= team size");
    touch_lanes_[static_cast<std::size_t>(lane)].touched.push_back(i);
  }

  /// Runs body(i) for i in [0, n): work-shared across an OpenMP team of
  /// threads_ under schedule(static), or a plain loop with no OpenMP region
  /// when threads_ <= 1.
  template <typename Body>
  void for_each_index(std::size_t n, const Body& body) {
    if (threads_ > 1) {
      const auto count = static_cast<std::ptrdiff_t>(n);
#pragma omp parallel for num_threads(threads_) schedule(static)
      for (std::ptrdiff_t i = 0; i < count; ++i) body(static_cast<std::size_t>(i));
    } else {
      for (std::size_t i = 0; i < n; ++i) body(i);
    }
  }

  void sweep() {
    for_each_index(tags_.size(), [this](std::size_t i) { Policy::reset(tag(i)); });
  }

  /// The round-boundary re-arm: every tag on a sweep arbiter (no touched
  /// lists), else each lane's recorded wins, lanes work-shared.
  void rearm() {
    if (touch_lanes_.empty()) {
      sweep();
      count_reset_tags(tags_.size());
      return;
    }
    count_reset_tags(touched_count());
    for_each_index(touch_lanes_.size(), [this](std::size_t l) {
      auto& list = touch_lanes_[l].touched;
      for (const std::size_t i : list) Policy::reset(tag(i));
      list.clear();
    });
  }

  void count_reset_tags(std::uint64_t k) noexcept {
    if constexpr (kInstrumentedPolicy) {
      if (k > 0) site_->add_reset_tags(k);
    }
  }

  util::AlignedBuffer<Stored> tags_;
  util::AlignedBuffer<TouchLane> touch_lanes_;  ///< empty unless Rearm::kSparse
  int threads_;
  round_t round_ = kInitialRound;
  // Heap-owned so the arbiter stays movable (ContentionSite pins its
  // address in the registry); null for uninstrumented policies.
  std::unique_ptr<obs::ContentionSite> site_;
};

}  // namespace crcw
