#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

extern char** environ;

namespace pb {

// -- options -----------------------------------------------------------------

namespace {

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  std::uint64_t v = 0;
  const char* end = text + std::strlen(text);
  const auto [p, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || p != end) throw std::invalid_argument(flag + ": not an integer");
  return v;
}

}  // namespace

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
      if (!(o.seconds > 0.0) || o.seconds > 120.0) {
        throw std::invalid_argument("--seconds: outside (0, 120]");
      }
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(flag, v);
      if (t > 1) throw std::invalid_argument("--trace: 0 or 1");
      o.trace = t == 1;
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

// -- time and resources --------------------------------------------------------

double cpu_time_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
  }
  const int n = CPU_COUNT(&set);
  return n < 1 ? 1 : n;
}

// -- latency recorder ----------------------------------------------------------

LogHistogram::LogHistogram() : counts_((64 - kSubBits + 1) * kSub, 0) {}

std::size_t LogHistogram::index_of(std::uint64_t v) noexcept {
  if (v < kSub) return static_cast<std::size_t>(v);
  const int e = 63 - std::countl_zero(v);  // e >= kSubBits
  const std::uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
  return static_cast<std::size_t>(e - kSubBits + 1) * kSub + static_cast<std::size_t>(sub);
}

void LogHistogram::bucket_range(std::size_t idx, double& lo, double& width) noexcept {
  if (idx < kSub) {
    lo = static_cast<double>(idx);
    width = 1.0;
    return;
  }
  const int e = static_cast<int>(idx / kSub) + kSubBits - 1;
  const std::size_t sub = idx % kSub;
  width = std::ldexp(1.0, e - kSubBits);
  lo = static_cast<double>(kSub + sub) * width;
}

void LogHistogram::record(std::uint64_t v) {
  if (exact() && count_ < kExact) samples_.push_back(v);
  ++counts_[index_of(v)];
  ++count_;
  sum_ += static_cast<long double>(v);
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (exact() && other.exact() && count_ + other.count_ <= kExact) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LogHistogram::mean() const noexcept {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_ / static_cast<long double>(count_));
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest rank (1-based), then linear interpolation by rank inside the
  // bucket that holds it, so a quantile moves smoothly instead of in
  // bucket-width steps.
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  if (exact()) {
    std::vector<std::uint64_t> sorted = samples_;
    std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     sorted.end());
    return static_cast<double>(sorted[rank - 1]);
  }
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (seen + counts_[i] >= rank) {
      double lo = 0.0;
      double width = 0.0;
      bucket_range(i, lo, width);
      if (width == 1.0) return lo;
      const double frac = (static_cast<double>(rank - seen) - 0.5) /
                          static_cast<double>(counts_[i]);
      return lo + frac * width;
    }
    seen += counts_[i];
  }
  return 0.0;
}

// -- results -------------------------------------------------------------------

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Units are part of the contract with BENCHMARK.json; run.py checks that
// every printed metric matches it by name and unit.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_ops_s", "ops/s"},
    {"latency_p50_us", "us"},
    {"completed_ops_ratio", "ratio"},
    {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MiB"},
};

// latency_p99_us is reported here, not gated: kv-mixed's tail follows
// stalls of the shared machine (spread up to 1.6 over 10 seeds).
constexpr MetricSpec kPerLayer[] = {
    {"latency_p99_us", "us"},
    {"ds.write_ns", "ns"},
    {"ds.find_ns", "ns"},
    {"ds.win_ratio", "ratio"},
    {"ds.atomics_per_op", "count"},
    {"ds.group_loads_per_op", "count"},
    {"ds.tombstones", "count"},
    {"ds.reclaimed", "count"},
    {"ds.bucket_count_final", "count"},
    {"core.attempts_per_edge", "count"},
    {"core.atomics_per_edge", "count"},
    {"core.win_ratio", "ratio"},
    {"cc.iterations", "count"},
    {"queue.submit_ns_p50", "ns"},
    {"queue.submit_ns_p99", "ns"},
    {"queue.enqueue_admit_us_p99", "us"},
    {"pump.batch_us_p50", "us"},
    {"pump.batch_us_p99", "us"},
    {"pump.ops_per_batch", "count"},
    {"pump.rounds_per_batch", "count"},
    {"pump.deadline_ratio", "ratio"},
    {"pump.idle_poll_ratio", "ratio"},
    {"future.wait_us_p50", "us"},
    {"future.wait_us_p99", "us"},
    {"session.stale_retries", "count"},
    {"wire.encode_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"wire.bytes_per_op", "bytes"},
    {"wire.stale_retries", "count"},
    {"wire.requests_served", "count"},
    {"ledger.l0_table_ns", "ns"},
    {"ledger.l1_rounds_ns", "ns"},
    {"ledger.l2_queue_ns", "ns"},
    {"ledger.l3_session_ns", "ns"},
    {"ledger.l4_codec_ns", "ns"},
    {"ledger.l5_tcp_ns", "ns"},
    {"ledger.l1_delta_ns", "ns"},
    {"ledger.l2_delta_ns", "ns"},
    {"ledger.l3_delta_ns", "ns"},
    {"ledger.l4_delta_ns", "ns"},
    {"ledger.l5_delta_ns", "ns"},
    {"ref.mutex_ops_s", "ops/s"},
    {"ref.serve_over_mutex", "ratio"},
    {"trace.throughput_ops_s", "ops/s"},
    {"trace.overhead_pct", "%"},
    {"failed_ops_ratio", "ratio"},
};

template <std::size_t N>
std::vector<std::string> names_of(const MetricSpec (&specs)[N]) {
  std::vector<std::string> out;
  for (const MetricSpec& s : specs) out.emplace_back(s.name);
  return out;
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) throw std::logic_error("non-finite metric value");
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) throw std::logic_error("metric formatting failed");
  out.append(buf, p);
}

void append_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

}  // namespace

void Outcome::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Outcome::fail(const std::string& why) {
  if (correct) error = why;
  correct = false;
}

std::string format_outcome(const Outcome& o) {
  std::string out = "{\"correct\": ";
  out += o.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    if (i != 0) out += ", ";
    append_string(out, o.metrics[i].name);
    out += ": {\"value\": ";
    append_number(out, o.metrics[i].value);
    out += ", \"unit\": ";
    append_string(out, o.metrics[i].unit);
    out += "}";
  }
  out += "}}";
  return out;
}

const std::vector<std::string>& end_to_end_metric_names() {
  static const std::vector<std::string> names = names_of(kEndToEnd);
  return names;
}

const std::vector<std::string>& per_layer_metric_names() {
  static const std::vector<std::string> names = names_of(kPerLayer);
  return names;
}

std::string unit_of(const std::string& name) {
  for (const MetricSpec& s : kEndToEnd) {
    if (name == s.name) return s.unit;
  }
  for (const MetricSpec& s : kPerLayer) {
    if (name == s.name) return s.unit;
  }
  throw std::logic_error("unknown metric " + name);
}

std::string environment_json(const Options& opt) {
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) cpu = line.substr(colon + 2);
        break;
      }
    }
  }
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::string out = "{\"environment\": {\"git_sha\": ";
  append_string(out, sha != nullptr ? sha : "unknown");
  out += ", \"compiler\": ";
#if defined(__clang__)
  append_string(out, std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  append_string(out, std::string("gcc ") + __VERSION__);
#else
  append_string(out, "unknown");
#endif
  out += ", \"build_type\": ";
#ifdef PERFBENCH_BUILD_TYPE
  append_string(out, PERFBENCH_BUILD_TYPE);
#else
  append_string(out, "unknown");
#endif
  out += ", \"cpu_model\": ";
  append_string(out, cpu);
  out += ", \"nproc\": " + std::to_string(nproc());
  out += ", \"omp_env\": {";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("OMP_", 0) != 0 && kv.rfind("GOMP_", 0) != 0) continue;
    const auto eq = kv.find('=');
    if (!first) out += ", ";
    first = false;
    append_string(out, kv.substr(0, eq));
    out += ": ";
    append_string(out, eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  out += "}, \"workload\": ";
  append_string(out, opt.workload);
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += ", \"trace\": ";
  out += opt.trace ? "true" : "false";
  out += "}}";
  return out;
}

// -- watchdog --------------------------------------------------------------------

namespace {
std::atomic<Watchdog*> g_watchdog{nullptr};
const std::uint64_t g_process_start_ns = now_ns();
}  // namespace

Watchdog* watchdog() noexcept { return g_watchdog.load(std::memory_order_acquire); }
void set_watchdog(Watchdog* w) noexcept { g_watchdog.store(w, std::memory_order_release); }

Watchdog::Watchdog(double stall_s, double deadline_s)
    : stall_s_(stall_s), deadline_s_(deadline_s), thread_([this] { run(); }) {}

Watchdog::~Watchdog() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void Watchdog::run() {
  std::uint64_t last = heartbeat_.load(std::memory_order_relaxed);
  std::uint64_t last_change = now_ns();
  while (!stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t now = now_ns();
    const std::uint64_t hb = heartbeat_.load(std::memory_order_relaxed);
    if (hb != last) {
      last = hb;
      last_change = now;
    }
    const double stalled = static_cast<double>(now - last_change) * 1e-9;
    const double alive = static_cast<double>(now - g_process_start_ns) * 1e-9;
    if (stalled > stall_s_ || alive > deadline_s_) {
      std::fprintf(stderr,
                   "perfbench: watchdog fired in phase '%s' (no progress for %.1f s, "
                   "%.1f s since start): failing the run\n",
                   phase_.load(std::memory_order_relaxed), stalled, alive);
      std::fflush(stderr);
      std::_Exit(3);
    }
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace pb
