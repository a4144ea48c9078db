// perfbench — the repository benchmark.
//
//   perfbench --workload kv-ingest|kv-mixed|kv-wire|pram-cc --seed N
//             --seconds S --trace 0|1
//
// Prints an environment line, a run-summary line, and as its last line the
// JSON result. --trace 0 measures the end-to-end metrics; --trace 1 the
// per-layer metrics. Exits 1 on an oracle violation, 2 on bad usage,
// 3 when the watchdog fires.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

RunStats run_workload(const Options& opt) {
  if (opt.workload == "kv-ingest") return run_kv_ingest(opt);
  if (opt.workload == "kv-mixed") return run_kv_mixed(opt);
  if (opt.workload == "kv-wire") return run_kv_wire(opt);
  if (opt.workload == "pram-cc") return run_pram_cc(opt);
  throw std::invalid_argument("unknown workload " + opt.workload);
}

void add(Outcome& o, const std::string& name, double value) {
  o.add(name, value, unit_of(name));
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

template <typename F>
double slice_median(const std::vector<PhaseStats>& slices, F&& f) {
  std::vector<double> v;
  for (const PhaseStats& s : slices) v.push_back(f(s));
  return median(std::move(v));
}

/// Median over slices of the slice's throughput.
double median_throughput(const std::vector<PhaseStats>& slices) {
  return slice_median(slices, [](const PhaseStats& s) { return s.throughput(); });
}

/// A latency quantile: the median over slices of the slice's quantile.
/// (pram-cc's samples are whole solves, a few per slice, so its per-slice
/// p99 is the slice's slowest solve.)
double latency_us(const RunStats& rs, double q) {
  return slice_median(rs.timed_slices,
                      [q](const PhaseStats& s) { return s.latency_ns.quantile(q); }) /
         1e3;
}

void add_end_to_end(Outcome& o, const RunStats& rs) {
  const PhaseStats& t = rs.timed;
  add(o, "setup_s", median(rs.setup_s));
  add(o, "throughput_ops_s", median_throughput(rs.timed_slices));
  add(o, "latency_p50_us", latency_us(rs, 0.50));
  add(o, "completed_ops_ratio",
      ratio(static_cast<double>(t.completed), static_cast<double>(t.attempted)));
  add(o, "cpu_us_per_op", slice_median(rs.timed_slices, [](const PhaseStats& s) {
        return ratio(s.cpu_us, static_cast<double>(s.completed));
      }));
  add(o, "peak_rss_mb", peak_rss_mb());
}

const LogHistogram& pick(const LogHistogram& own, const LogHistogram& fallback) {
  return own.count() > 0 ? own : fallback;
}

void add_per_layer(Outcome& o, const Options& opt, const RunStats& rs) {
  // The end-to-end p99, from the traced run's untraced slices.
  add(o, "latency_p99_us", latency_us(rs, 0.99));
  const KvInputs inputs = workload_inputs(opt);

  set_phase("ds probe");
  const DsProbe ds = replay_ds(inputs, opt.small ? 1u << 12 : 1u << 20);
  add(o, "ds.write_ns", ds.write_ns);
  add(o, "ds.find_ns", ds.find_ns);
  add(o, "ds.win_ratio", ds.win_ratio);
  add(o, "ds.atomics_per_op", ds.atomics_per_op);
  add(o, "ds.group_loads_per_op", ds.group_loads_per_op);
  add(o, "ds.tombstones", static_cast<double>(ds.tombstones));
  add(o, "ds.reclaimed", static_cast<double>(ds.reclaimed));
  add(o, "ds.bucket_count_final", static_cast<double>(ds.bucket_count_final));

  set_phase("core probe");
  const CoreProbe core =
      rs.has_core ? rs.core
                  : profile_core(make_graph(opt.seed, opt.small ? 1u << 10 : 1u << 16,
                                            opt.small ? 1u << 13 : 1u << 19));
  add(o, "core.attempts_per_edge", core.attempts_per_edge);
  add(o, "core.atomics_per_edge", core.atomics_per_edge);
  add(o, "core.win_ratio", core.win_ratio);
  add(o, "cc.iterations", static_cast<double>(core.iterations));

  // The ledger always runs; its session depth stands in for serve spans a
  // workload's own traffic does not produce, its codec/TCP depths for wire
  // spans.
  ServeSpans led_serve;
  WireSpans led_wire;
  const LedgerProbe ledger = run_ledger(opt.seed, opt.small, led_serve, led_wire);

  const ServeSpans& own = rs.serve;
  const bool own_stats = rs.has_serve || rs.has_wire;
  const auto& st = own_stats ? own.stats : led_serve.stats;
  const auto& polls = own.polls > 0 ? own : led_serve;
  add(o, "queue.submit_ns_p50", pick(own.submit_ns, led_serve.submit_ns).quantile(0.50));
  add(o, "queue.submit_ns_p99", pick(own.submit_ns, led_serve.submit_ns).quantile(0.99));
  add(o, "queue.enqueue_admit_us_p99",
      (own_stats ? own.enqueue_admit_p99_ns : led_serve.enqueue_admit_p99_ns) / 1e3);
  add(o, "pump.batch_us_p50", pick(own.batch_ns, led_serve.batch_ns).quantile(0.50) / 1e3);
  add(o, "pump.batch_us_p99", pick(own.batch_ns, led_serve.batch_ns).quantile(0.99) / 1e3);
  add(o, "pump.ops_per_batch",
      ratio(static_cast<double>(st.ops_served), static_cast<double>(st.batches)));
  add(o, "pump.rounds_per_batch",
      ratio(static_cast<double>(st.rounds), static_cast<double>(st.batches)));
  add(o, "pump.deadline_ratio",
      ratio(static_cast<double>(st.deadline_batches), static_cast<double>(st.batches)));
  add(o, "pump.idle_poll_ratio",
      ratio(static_cast<double>(polls.idle_polls), static_cast<double>(polls.polls)));
  add(o, "future.wait_us_p50", pick(own.wait_ns, led_serve.wait_ns).quantile(0.50) / 1e3);
  add(o, "future.wait_us_p99", pick(own.wait_ns, led_serve.wait_ns).quantile(0.99) / 1e3);
  add(o, "session.stale_retries",
      static_cast<double>(rs.has_serve ? own.stale_retries : led_serve.stale_retries));

  const WireSpans& wire = rs.has_wire ? rs.wire : led_wire;
  add(o, "wire.encode_ns", wire.encode_ns.mean());
  add(o, "wire.decode_ns", wire.decode_ns.mean());
  add(o, "wire.bytes_per_op",
      ratio(static_cast<double>(wire.bytes), static_cast<double>(wire.ops)));
  add(o, "wire.stale_retries", static_cast<double>(wire.stale_retries));
  add(o, "wire.requests_served", static_cast<double>(wire.requests_served));

  static const char* kDepths[6] = {"ledger.l0_table_ns",   "ledger.l1_rounds_ns",
                                   "ledger.l2_queue_ns",   "ledger.l3_session_ns",
                                   "ledger.l4_codec_ns",   "ledger.l5_tcp_ns"};
  for (int d = 0; d < 6; ++d) add(o, kDepths[d], ledger.ns[d]);
  for (int d = 1; d < 6; ++d) {
    add(o, "ledger.l" + std::to_string(d) + "_delta_ns", ledger.ns[d] - ledger.ns[d - 1]);
  }

  set_phase("mutex reference");
  const double mutex = mutex_ops_s(inputs, opt.small ? 1u << 12 : 1u << 19);
  // pram-cc's throughput counts edges, not requests: its serve side of the
  // ratio is the ledger's session depth on the same kv-mixed stream.
  const double base = median_throughput(rs.timed_slices);
  const double traced = median_throughput(rs.traced_slices);
  const double serve_ops = opt.workload == "pram-cc" ? ratio(1e9, ledger.ns[3]) : base;
  add(o, "ref.mutex_ops_s", mutex);
  add(o, "ref.serve_over_mutex", ratio(serve_ops, mutex));
  add(o, "trace.throughput_ops_s", traced);
  add(o, "trace.overhead_pct", ratio(base - traced, base) * 100.0);
  const double attempted = static_cast<double>(o.attempted);
  add(o, "failed_ops_ratio", ratio(static_cast<double>(o.failed), attempted));
}

int run(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload kv-ingest|kv-mixed|kv-wire|pram-cc"
                 " --seed N --seconds S --trace 0|1\n",
                 e.what());
    return 2;
  }
  // Stall limit: no client progress for 30 s; hard limit: the 180 s a run
  // may take, minus margin for teardown and printing.
  Watchdog dog(30.0, 170.0);
  set_watchdog(&dog);
  std::cout << environment_json(opt) << std::endl;

  Outcome out;
  try {
    const RunStats rs = run_workload(opt);
    out.attempted = rs.timed.attempted + rs.traced.attempted;
    const std::uint64_t completed = rs.timed.completed + rs.traced.completed;
    out.failed = out.attempted - completed;
    if (!rs.error.empty()) out.fail(rs.error);
    // Per-slice throughput and p99, so a flip between regimes stays
    // visible behind the medians the metrics report.
    std::cout << "{\"run\": {\"latency_samples\": " << rs.timed.latency_ns.count()
              << ", \"timed_s\": " << rs.timed.seconds << ", \"setups\": " << rs.setup_s.size()
              << ", \"slice_ops_s\": [";
    for (std::size_t i = 0; i < rs.timed_slices.size(); ++i) {
      std::cout << (i == 0 ? "" : ", ") << rs.timed_slices[i].throughput();
    }
    std::cout << "], \"slice_p99_us\": [";
    for (std::size_t i = 0; i < rs.timed_slices.size(); ++i) {
      std::cout << (i == 0 ? "" : ", ") << rs.timed_slices[i].latency_ns.quantile(0.99) / 1e3;
    }
    std::cout << "]}}" << std::endl;
    if (out.correct) {
      if (opt.trace) {
        add_per_layer(out, opt, rs);
      } else {
        add_end_to_end(out, rs);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    set_watchdog(nullptr);
    return 1;
  }
  set_watchdog(nullptr);
  if (!out.correct) {
    std::fprintf(stderr, "perfbench: oracle violation: %s\n", out.error.c_str());
    return 1;
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "perfbench: no op was attempted\n");
    return 1;
  }
  std::cout << format_outcome(out) << std::endl;
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) { return pb::run(argc, argv); }
