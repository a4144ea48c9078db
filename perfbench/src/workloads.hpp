// The four workloads and the statistics they hand back to main(), which
// turns them into metrics. A workload sets up (three times, keeping the
// last), runs its timed phase, checks its oracle, and tears down.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "serve/service_backend.hpp"

namespace pb {

/// Spans and counters around the benchmark's calls into the serve layers
/// (session submit/wait, scheduler poll) plus backend counter deltas.
struct ServeSpans {
  LogHistogram submit_ns;  ///< time inside submit(), backpressure help included
  LogHistogram wait_ns;    ///< submit() returning → ready() observed
  LogHistogram batch_ns;   ///< poll() calls that ran a batch
  std::uint64_t polls = 0;
  std::uint64_t idle_polls = 0;
  crcw::serve::BackendStats stats;      ///< deltas over the traced phase
  double enqueue_admit_p99_ns = 0.0;    ///< ServeMetrics pow2 bound (not gated)
  std::uint64_t stale_retries = 0;

  void merge(const ServeSpans& o);
};

/// Spans and counters around the benchmark's calls into the wire codec
/// and the socket.
struct WireSpans {
  LogHistogram encode_ns;  ///< wire::encode_request per request
  LogHistogram decode_ns;  ///< ResponseDecoder::next per response frame
  std::uint64_t bytes = 0;            ///< bytes written + read by clients
  std::uint64_t ops = 0;              ///< ops completed while traced
  std::uint64_t stale_retries = 0;
  std::uint64_t requests_served = 0;  ///< server-side count over the phase

  void merge(const WireSpans& o);
};

/// What one timed phase measured.
struct PhaseStats {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  double seconds = 0.0;   ///< timed wall time
  double cpu_us = 0.0;    ///< process CPU over the timed intervals
  double work = 0.0;      ///< throughput numerator (ops, or edges × solves)
  LogHistogram latency_ns;

  void merge(const PhaseStats& o);
  [[nodiscard]] double throughput() const { return seconds > 0.0 ? work / seconds : 0.0; }
};

/// A workload run, measured as consecutive slices of about kSliceSeconds.
/// Untraced runs time every slice untraced; traced runs alternate
/// untraced and traced slices, so the untraced ones are the base of the
/// tracing overhead under the same drift. The end-to-end metrics are
/// medians over slices: one slice caught in a scheduling stall moves them
/// less than it moves a whole-run mean.
struct RunStats {
  std::vector<double> setup_s;   ///< one per setup repetition
  PhaseStats timed;              ///< all timed slices merged
  PhaseStats traced;             ///< all traced slices merged
  std::vector<PhaseStats> timed_slices;
  std::vector<PhaseStats> traced_slices;
  bool has_traced = false;
  ServeSpans serve;   ///< empty histograms when the workload has no such calls
  WireSpans wire;
  bool has_serve = false;
  bool has_wire = false;
  CoreProbe core;     ///< pram-cc traced runs: the core probe of its graph
  bool has_core = false;
  std::string error;  ///< first oracle violation or program error
};

inline constexpr int kSetups = 3;
inline constexpr double kSliceSeconds = 1.0;

struct Slice {
  Budget budget;
  bool traced = false;
};
/// The run's slices: `--seconds` cut into slices of about kSliceSeconds
/// (an even count, alternating untraced/traced, on traced runs); an op
/// budget is one slice (two halves on traced runs).
[[nodiscard]] std::vector<Slice> plan_slices(const Options& opt);

/// The client op streams a workload feeds the program (pram-cc, which has
/// none, answers with the kv-mixed streams), for the layer probes.
[[nodiscard]] KvInputs workload_inputs(const Options& opt);

RunStats run_kv_ingest(const Options& opt);
RunStats run_kv_mixed(const Options& opt);
RunStats run_kv_wire(const Options& opt);
RunStats run_pram_cc(const Options& opt);

/// Records the first error reported by any thread.
class ErrorSlot {
 public:
  void set(const std::string& e) {
    if (e.empty()) return;
    const std::lock_guard<std::mutex> lock(mu_);
    if (error_.empty()) error_ = e;
    failed_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool failed() const noexcept { return failed_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::string get() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

 private:
  mutable std::mutex mu_;
  std::string error_;
  std::atomic<bool> failed_{false};
};

/// The benchmark's own pump thread: the loop BasicServeSession::start_pump
/// runs (poll; sleep max_wait_us/4 when no batch closed), with poll()
/// spans recorded while `traced` is set. A poll() that throws (the
/// held-cut/kFull wedge) is reported and stops the pump.
template <typename Session>
class PumpThread {
 public:
  PumpThread(Session& session, ErrorSlot& errors)
      : session_(session), errors_(errors), thread_([this] { run(); }) {}
  PumpThread(const PumpThread&) = delete;
  PumpThread& operator=(const PumpThread&) = delete;
  ~PumpThread() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

  void set_traced(bool on) { traced_.store(on, std::memory_order_release); }
  /// Valid once set_traced(false) was followed by a quiescent point (the
  /// clients joined); the spans are owned by the pump thread otherwise.
  [[nodiscard]] ServeSpans take_spans() {
    const std::lock_guard<std::mutex> lock(mu_);
    ServeSpans out = spans_;
    spans_ = ServeSpans{};
    return out;
  }

 private:
  void run() {
    const auto idle = std::chrono::microseconds(
        session_.config().batch.max_wait_us > 4 ? session_.config().batch.max_wait_us / 4 : 1);
    try {
      while (!stop_.load(std::memory_order_relaxed)) {
        const bool traced = traced_.load(std::memory_order_acquire);
        const std::uint64_t t0 = traced ? now_ns() : 0;
        const bool ran = session_.poll();
        if (traced) {
          const std::lock_guard<std::mutex> lock(mu_);
          ++spans_.polls;
          if (ran) {
            spans_.batch_ns.record(now_ns() - t0);
          } else {
            ++spans_.idle_polls;
          }
        }
        if (!ran) std::this_thread::sleep_for(idle);
      }
    } catch (const std::exception& e) {
      errors_.set(std::string("pump: poll() threw: ") + e.what());
    }
  }

  Session& session_;
  ErrorSlot& errors_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> traced_{false};
  std::mutex mu_;  // guards spans_ (uncontended: only take_spans competes)
  ServeSpans spans_;
  std::thread thread_;  // last: starts after every member it uses
};

/// Drives one workload: sets up kSetups times (each from scratch, keeping
/// the last; the setup time reported is their median), runs the timed
/// phase slice by slice, then the traced phase on traced runs, checks the
/// workload's final state, and tears down. `phase(run, budget, traced,
/// stats)` measures one slice.
template <typename Run, typename Phase>
RunStats drive(const Options& opt, Phase&& phase) {
  RunStats rs;
  ErrorSlot errors;
  std::unique_ptr<Run> run;
  for (int i = 0; i < kSetups && !errors.failed(); ++i) {
    set_phase("setup");
    run.reset();
    run = std::make_unique<Run>(opt, errors);
    rs.setup_s.push_back(run->setup_s());
    heartbeat();
  }
  set_phase("timed");
  for (const Slice& s : plan_slices(opt)) {
    if (errors.failed()) break;
    auto& slices = s.traced ? rs.traced_slices : rs.timed_slices;
    slices.push_back(phase(*run, s.budget, s.traced, rs));
    (s.traced ? rs.traced : rs.timed).merge(slices.back());
  }
  if (opt.trace && !errors.failed()) {
    rs.has_traced = true;
    if constexpr (requires(Run& r) { r.graph(); }) {
      rs.core = profile_core(run->graph());
      rs.has_core = true;
    }
  }
  if (!errors.failed()) {
    set_phase("final check");
    errors.set(run->final_check());
  }
  set_phase("teardown");
  run.reset();
  rs.error = errors.get();
  return rs;
}

}  // namespace pb
