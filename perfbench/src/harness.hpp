// Harness of the repository benchmark: options, clocks, the latency
// recorder, span statistics, the result printer, the environment
// fingerprint and the watchdog. Nothing here knows about a workload.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace pb {

// -- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Op budget instead of a time budget (0 = measure for `seconds`). Set
  /// only in-process by the benchmark's tests, which compare traced and
  /// untraced runs; no command-line flag reaches it.
  std::uint64_t ops = 0;
  /// Shrinks every input (key spaces, streams, the graph); tests only, like
  /// `ops`.
  bool small = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
/// Throws std::invalid_argument on anything else.
Options parse_options(int argc, char** argv);

// -- time and resources --------------------------------------------------------

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Process user+sys CPU time in microseconds.
[[nodiscard]] double cpu_time_us();
/// Peak resident set size of the process in MiB.
[[nodiscard]] double peak_rss_mb();
/// CPUs this process may run on (the affinity mask, like nproc).
[[nodiscard]] int nproc();

/// What one measured slice runs for: wall time, or an exact op count.
struct Budget {
  double seconds = 0.0;     ///< used when ops == 0
  std::uint64_t ops = 0;    ///< exact op count when non-zero
};

// -- latency recorder ----------------------------------------------------------

/// Log-linear histogram of non-negative integers (nanoseconds): exact below
/// 128, then 128 linear sub-buckets per power of two (≤ 0.8% bucket width).
/// Quantiles interpolate by rank inside the bucket; up to kExact samples
/// (pram-cc's solves per slice) they are exact. This is the recorder every
/// gated latency uses; obs::Histogram's power-of-two bounds are too coarse
/// to gate on.
class LogHistogram {
 public:
  LogHistogram();
  void record(std::uint64_t v);
  void merge(const LogHistogram& other);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept;
  /// Nearest-rank quantile (q in [0, 1]); 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kExact = 64;
  static std::size_t index_of(std::uint64_t v) noexcept;
  static void bucket_range(std::size_t idx, double& lo, double& width) noexcept;
  /// True while every sample is also kept in `samples_`.
  [[nodiscard]] bool exact() const noexcept { return samples_.size() == count_; }

  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> samples_;  // the samples themselves, while count_ <= kExact
  std::uint64_t count_ = 0;
  long double sum_ = 0;
};

/// Times one span into a histogram when `on`; a no-op otherwise.
class SpanTimer {
 public:
  SpanTimer(LogHistogram& h, bool on) noexcept : h_(h), t0_(on ? now_ns() : 0) {}
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  ~SpanTimer() {
    if (t0_ != 0) h_.record(now_ns() - t0_);
  }

 private:
  LogHistogram& h_;
  std::uint64_t t0_;
};

// -- results -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First oracle violation (empty when correct).
  std::string error;

  void add(std::string name, double value, std::string unit);
  void fail(const std::string& why);
};

/// The one-line JSON result: keys correct, attempted, failed, metrics —
/// every metric as {"value": v, "unit": u} with all digits of v.
/// Throws std::logic_error on a non-finite value.
[[nodiscard]] std::string format_outcome(const Outcome& o);

/// The end-to-end metric names, in print order (untraced runs).
[[nodiscard]] const std::vector<std::string>& end_to_end_metric_names();
/// The per-layer metric names, in print order (traced runs).
[[nodiscard]] const std::vector<std::string>& per_layer_metric_names();
/// The unit of a named metric; throws std::logic_error for unknown names.
[[nodiscard]] std::string unit_of(const std::string& name);

/// One JSON line describing where and how the run was made: git SHA,
/// compiler, build type, CPU model, nproc, OMP_* variables, seed.
[[nodiscard]] std::string environment_json(const Options& opt);

// -- watchdog --------------------------------------------------------------------

/// Turns a wedged run into a failed one: if `heartbeat` stops advancing
/// for `stall_s`, or the process outlives `deadline_s` since start, it
/// prints the reason to stderr and ends the process with exit code 3 —
/// a wedged pump holds threads that can never be joined.
class Watchdog {
 public:
  Watchdog(double stall_s, double deadline_s);
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog();

  void beat() noexcept { heartbeat_.fetch_add(1, std::memory_order_relaxed); }
  /// Names the phase reported if the watchdog fires.
  void phase(const char* name) noexcept { phase_.store(name, std::memory_order_relaxed); }

 private:
  void run();

  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<const char*> phase_{"start"};
  std::atomic<bool> stop_{false};
  double stall_s_;
  double deadline_s_;
  std::thread thread_;
};

/// The process-wide watchdog main() installs (nullptr in tests).
Watchdog* watchdog() noexcept;
void set_watchdog(Watchdog* w) noexcept;
inline void heartbeat() noexcept {
  if (Watchdog* w = watchdog()) w->beat();
}
inline void set_phase(const char* name) noexcept {
  if (Watchdog* w = watchdog()) w->phase(name);
}

// -- small statistics ------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);

}  // namespace pb
