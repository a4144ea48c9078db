#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algorithms/dispatch.hpp"
#include "core/arbiter.hpp"
#include "core/policies.hpp"
#include "ds/concurrent_hash_map.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_server.hpp"
#include "serve/serve_session.hpp"
#include "serve/wire.hpp"
#include "serve/wire_client.hpp"
#include "workloads.hpp"

namespace pb {

using crcw::serve::Op;
using crcw::serve::OpFuture;
using crcw::serve::OpKind;
using crcw::serve::Result;
using crcw::serve::ServeConfig;
using crcw::serve::ServeSession;
using Table = crcw::ds::ConcurrentHashMap<std::uint64_t, std::uint64_t>;
using Arbiter = crcw::WriteArbiter<crcw::CasLtPolicy>;

namespace {

/// Folds every value the probes read, so no read can be optimised away.
std::atomic<std::uint64_t> g_sink{0};

[[nodiscard]] bool is_write(OpKind k) noexcept {
  return k == OpKind::kUpsert || k == OpKind::kErase;
}

/// A client stream flattened into concrete ops (the probes replay keys,
/// not key indices).
struct FlatOp {
  Op op;
  std::uint32_t key_idx = 0;
};

std::vector<FlatOp> flatten(const KvInputs& in, std::size_t max_ops) {
  std::vector<FlatOp> out;
  out.reserve(max_ops);
  std::uint32_t seq = 0;
  // Round-robin over the client streams, so the replay mixes the clients
  // the way their concurrent submissions do.
  for (std::size_t i = 0; out.size() < max_ops; ++i) {
    bool any = false;
    for (const auto& s : in.streams) {
      if (i >= s.size() || out.size() >= max_ops) continue;
      any = true;
      const KvOp& k = s[i];
      const std::uint64_t key = in.keys[k.key_idx];
      Op op = Op::lookup(key);
      if (k.kind == OpKind::kUpsert) op = Op::upsert(key, encode_value(k.key_idx, ++seq));
      if (k.kind == OpKind::kErase) op = Op::erase(key);
      out.push_back(FlatOp{op, k.key_idx});
    }
    if (!any) break;
  }
  return out;
}

double ns_per(std::uint64_t ns, std::uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(ops);
}

}  // namespace

// -- core ----------------------------------------------------------------------

CoreProbe profile_core(const crcw::graph::Csr& g) {
  crcw::algo::CcOptions opts;
  opts.threads = nproc();
  CoreProbe p;
  const double edges = static_cast<double>(g.num_edges()) / 2.0;
  const auto totals = crcw::algo::profile_cc("caslt", g, opts);
  if (!totals.has_value()) throw std::runtime_error("profile_cc(caslt) returned no profile");
  p.attempts_per_edge = static_cast<double>(totals->attempts) / edges;
  p.atomics_per_edge = static_cast<double>(totals->atomics) / edges;
  p.win_ratio = totals->attempts == 0 ? 0.0
                                      : static_cast<double>(totals->wins) /
                                            static_cast<double>(totals->attempts);
  p.iterations = crcw::algo::run_cc("caslt", g, opts).iterations;
  return p;
}

// -- ds ------------------------------------------------------------------------

namespace {

constexpr std::size_t kRound = 4096;

struct ReplayCounts {
  std::uint64_t write_ns = 0;
  std::uint64_t find_ns = 0;
  std::uint64_t writes = 0;
  std::uint64_t finds = 0;
  std::uint64_t wins = 0;
  std::uint64_t sink = 0;
};

/// One serial replay in rounds of kRound: lookups first (committed reads
/// of rounds < r), then the round's writes, then a committed read of every
/// written key — the scheduler's phases A, B and C on one thread.
void replay_rounds(const std::vector<FlatOp>& ops, Table& map, ReplayCounts& c) {
  Arbiter arbiter{0};
  for (std::size_t begin = 0; begin < ops.size(); begin += kRound) {
    const std::size_t end = std::min(ops.size(), begin + kRound);
    std::uint64_t writes = 0;
    for (std::size_t i = begin; i < end; ++i) writes += is_write(ops[i].op.kind) ? 1 : 0;
    map.maybe_grow_for_backlog(writes, 1);
    const auto scope = arbiter.next_round(crcw::ResetMode::kNone);
    const crcw::round_t r = scope.round();
    std::uint64_t t = now_ns();
    for (std::size_t i = begin; i < end; ++i) {
      if (ops[i].op.kind != OpKind::kLookup) continue;
      const std::uint64_t* v = map.find(ops[i].op.key);
      c.sink += v != nullptr ? *v : 0;
      ++c.finds;
    }
    std::uint64_t t2 = now_ns();
    c.find_ns += t2 - t;
    for (std::size_t i = begin; i < end; ++i) {
      const Op& op = ops[i].op;
      if (!is_write(op.kind)) continue;
      const crcw::ds::MapUpsert o =
          op.kind == OpKind::kErase ? map.erase(r, op.key) : map.upsert(r, op.key, op.value);
      if (o == crcw::ds::MapUpsert::kFull) throw std::runtime_error("ds replay: table full");
      c.wins += o == crcw::ds::MapUpsert::kWon ? 1 : 0;
      ++c.writes;
    }
    t = now_ns();
    c.write_ns += t - t2;
    for (std::size_t i = begin; i < end; ++i) {
      if (!is_write(ops[i].op.kind)) continue;
      const std::uint64_t* v = map.find(ops[i].op.key);
      c.sink += v != nullptr ? *v : 0;
      ++c.finds;
    }
    c.find_ns += now_ns() - t;
    map.flush_round();
    map.maybe_reclaim_parallel(1);
  }
}

}  // namespace

DsProbe replay_ds(const KvInputs& in, std::size_t max_ops) {
  const std::vector<FlatOp> ops = flatten(in, max_ops);
  // The serve layer's default table knobs (TableConfig{}).
  const crcw::serve::TableConfig tc;
  DsProbe p;
  {
    Table map(tc.expected_keys, tc.hash_config("perfbench-ds"));
    ReplayCounts c;
    replay_rounds(ops, map, c);
    p.write_ns = ns_per(c.write_ns, c.writes);
    p.find_ns = ns_per(c.find_ns, c.finds);
    p.win_ratio = c.writes == 0 ? 0.0
                                : static_cast<double>(c.wins) / static_cast<double>(c.writes);
    g_sink.fetch_add(c.sink, std::memory_order_relaxed);
  }
  {
    crcw::serve::TableConfig counted = tc;
    counted.telemetry = true;
    Table map(counted.expected_keys, counted.hash_config("perfbench-ds"));
    ReplayCounts c;
    replay_rounds(ops, map, c);
    const crcw::obs::ContentionTotals t = map.telemetry().site()->totals();
    const double n = static_cast<double>(ops.size());
    p.atomics_per_op = static_cast<double>(t.atomics) / n;
    p.group_loads_per_op = static_cast<double>(t.group_loads) / n;
    p.tombstones = t.tombstones;
    p.reclaimed = t.reclaimed;
    p.bucket_count_final = map.bucket_count();
  }
  return p;
}

// -- ledger --------------------------------------------------------------------

namespace {

constexpr std::size_t kWindow = 256;

using FlatBackend = std::remove_reference_t<decltype(std::declval<ServeSession&>().backend())>;

/// Results of one window, checked the same way at every depth: upserts
/// see their own value when they won, lookups find only values written
/// under their own key.
void check_window(const FlatOp* ops, const Result* results, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Result& r = results[i];
    const bool ok = ops[i].op.kind == OpKind::kUpsert
                        ? (r.won ? r.value == ops[i].op.value
                                 : value_matches_key(r.value, ops[i].key_idx))
                        : (!r.won ? r.value == 0 : value_matches_key(r.value, ops[i].key_idx));
    if (!ok) throw std::runtime_error("ledger: a result broke the round contract");
  }
}

/// L0: the table alone — one round id per window, reads then writes.
double depth_table(const std::vector<FlatOp>& ops) {
  const crcw::serve::TableConfig tc;
  Table map(tc.expected_keys, tc.hash_config("perfbench-l0"));
  std::vector<Result> res(kWindow);
  crcw::round_t r = 0;
  const std::uint64_t t0 = now_ns();
  for (std::size_t b = 0; b < ops.size(); b += kWindow) {
    const std::size_t n = std::min(kWindow, ops.size() - b);
    map.maybe_grow_for_backlog(n, 1);
    ++r;
    for (std::size_t i = 0; i < n; ++i) {
      const Op& op = ops[b + i].op;
      if (op.kind != OpKind::kLookup) continue;
      const std::uint64_t* v = map.find(op.key);
      res[i] = Result{v != nullptr ? *v : 0, v != nullptr, r};
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Op& op = ops[b + i].op;
      if (op.kind != OpKind::kUpsert) continue;
      if (map.upsert(r, op.key, op.value) == crcw::ds::MapUpsert::kWon) {
        res[i] = Result{op.value, true, r};
      } else {
        const std::uint64_t* v = map.find(op.key);
        res[i] = Result{v != nullptr ? *v : 0, false, r};
      }
    }
    check_window(&ops[b], res.data(), n);
  }
  return ns_per(now_ns() - t0, ops.size());
}

/// L1: + arbitrated rounds executed the way the flat scheduler runs them
/// with its default team: arbiter round, OpenMP team, phase A lookups,
/// barrier, phase B writes, barrier, phase C committed reads. A model of
/// BatchScheduler::execute_round's parallel path (which is private): keep
/// it in step with serve/batch_scheduler.hpp. A change to the scheduler's
/// own round code shows in the L2 delta, not here.
double depth_rounds(const std::vector<FlatOp>& ops) {
  const ServeConfig cfg = ServeConfig{}.validated();
  const int threads = cfg.batch.resolved_threads();
  Table map(cfg.table.expected_keys, cfg.table.hash_config("perfbench-l1"));
  Arbiter arbiter{0};
  std::vector<Result> res(kWindow);
  std::vector<std::size_t> lookups;
  std::vector<std::size_t> writes;
  std::vector<unsigned char> won(kWindow);
  const std::uint64_t t0 = now_ns();
  for (std::size_t b = 0; b < ops.size(); b += kWindow) {
    const std::size_t n = std::min(kWindow, ops.size() - b);
    const FlatOp* w = &ops[b];
    lookups.clear();
    writes.clear();
    for (std::size_t i = 0; i < n; ++i) {
      (w[i].op.kind == OpKind::kLookup ? lookups : writes).push_back(i);
    }
    map.maybe_grow_for_backlog(writes.size(), threads);
    const auto scope = arbiter.next_round(crcw::ResetMode::kNone);
    const crcw::round_t r = scope.round();
    const auto n_look = static_cast<std::ptrdiff_t>(lookups.size());
    const auto n_write = static_cast<std::ptrdiff_t>(writes.size());
#pragma omp parallel num_threads(threads)
    {
#pragma omp for schedule(static)
      for (std::ptrdiff_t i = 0; i < n_look; ++i) {
        const std::size_t k = lookups[static_cast<std::size_t>(i)];
        const std::uint64_t* v = map.find(w[k].op.key);
        res[k] = Result{v != nullptr ? *v : 0, v != nullptr, r};
      }
#pragma omp for schedule(static)
      for (std::ptrdiff_t i = 0; i < n_write; ++i) {
        const std::size_t k = writes[static_cast<std::size_t>(i)];
        won[k] = map.upsert(r, w[k].op.key, w[k].op.value) == crcw::ds::MapUpsert::kWon;
      }
#pragma omp for schedule(static)
      for (std::ptrdiff_t i = 0; i < n_write; ++i) {
        const std::size_t k = writes[static_cast<std::size_t>(i)];
        const std::uint64_t* v = map.find(w[k].op.key);
        res[k] = Result{v != nullptr ? *v : 0, won[k] != 0, r};
      }
    }
    map.flush_round();
    map.maybe_reclaim_parallel(threads);
    check_window(w, res.data(), n);
  }
  return ns_per(now_ns() - t0, ops.size());
}

/// L2: + RequestQueue admission and the flat scheduler's flush(), driven
/// from the client thread (no pump, no waiting).
double depth_queue(const std::vector<FlatOp>& ops) {
  const ServeConfig cfg = ServeConfig{}.validated();
  crcw::serve::ServeMetrics metrics(false);
  crcw::serve::RequestQueue queue(FlatBackend::queue_lanes(cfg),
                                  cfg.batch.resolved_lane_backlog(), cfg.batch.backoff_spins,
                                  cfg.batch.sample_mask());
  FlatBackend backend(cfg, queue, metrics);
  std::unique_ptr<OpFuture[]> futures(new OpFuture[kWindow]);
  std::vector<Result> res(kWindow);
  const std::uint64_t t0 = now_ns();
  for (std::size_t b = 0; b < ops.size(); b += kWindow) {
    const std::size_t n = std::min(kWindow, ops.size() - b);
    for (std::size_t i = 0; i < n; ++i) {
      futures[i].reset();
      while (!queue.try_enqueue(ops[b + i].op, futures[i], backend.route(ops[b + i].op.key))) {
        backend.flush();
      }
    }
    while (queue.pending() != 0) backend.flush();
    for (std::size_t i = 0; i < n; ++i) {
      if (!futures[i].ready()) throw std::runtime_error("ledger: flush left an op pending");
      res[i] = futures[i].result();
    }
    check_window(&ops[b], res.data(), n);
  }
  return ns_per(now_ns() - t0, ops.size());
}

/// L3: + session submit/wait with the benchmark's pump thread.
double depth_session(const std::vector<FlatOp>& ops, ServeSpans* spans) {
  ErrorSlot errors;
  ServeSession session(ServeConfig{});
  std::unique_ptr<OpFuture[]> futures(new OpFuture[kWindow]);
  std::vector<Result> res(kWindow);
  std::vector<std::uint64_t> t_sub(kWindow);
  const bool traced = spans != nullptr;
  ServeSpans local;
  std::uint64_t elapsed = 0;
  {
    PumpThread<ServeSession> pump(session, errors);
    pump.set_traced(traced);
    const auto s0 = session.stats();
    const std::uint64_t t0 = now_ns();
    for (std::size_t b = 0; b < ops.size(); b += kWindow) {
      const std::size_t n = std::min(kWindow, ops.size() - b);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t ts = traced ? now_ns() : 0;
        session.submit(ops[b + i].op, futures[i]);
        if (traced) {
          t_sub[i] = now_ns();
          local.submit_ns.record(t_sub[i] - ts);
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        res[i] = session.wait(futures[i]);
        if (traced) local.wait_ns.record(now_ns() - t_sub[i]);
      }
      check_window(&ops[b], res.data(), n);
      heartbeat();
    }
    elapsed = now_ns() - t0;
    pump.set_traced(false);
    if (traced) {
      local.merge(pump.take_spans());
      const auto s1 = session.stats();
      local.stats = s1;
      local.stats.rounds = s1.rounds - s0.rounds;
      local.stats.batches = s1.batches - s0.batches;
      local.stats.deadline_batches = s1.deadline_batches - s0.deadline_batches;
      local.stats.ops_served = s1.ops_served - s0.ops_served;
      local.enqueue_admit_p99_ns =
          static_cast<double>(session.metrics().p99_enqueue_to_admit_ns());
      *spans = local;
    }
  }
  if (errors.failed()) throw std::runtime_error(errors.get());
  return ns_per(elapsed, ops.size());
}

/// L4: + the wire codec in-process: the client encodes each request, a
/// server-side decoder decodes it and submits, replies are encoded and
/// decoded back — everything but the socket.
double depth_codec(const std::vector<FlatOp>& ops, WireSpans* spans) {
  namespace wire = crcw::serve::wire;
  ErrorSlot errors;
  ServeSession session(ServeConfig{});
  const std::uint32_t max_frame = session.config().wire.max_frame_bytes;
  wire::RequestDecoder server_dec(max_frame);
  wire::ResponseDecoder client_dec(max_frame);
  std::unique_ptr<OpFuture[]> futures(new OpFuture[kWindow]);
  std::vector<wire::Request> reqs(kWindow);
  std::vector<Result> res(kWindow);
  std::vector<std::uint8_t> up;
  std::vector<std::uint8_t> down;
  const bool traced = spans != nullptr;
  WireSpans local;
  std::uint64_t elapsed = 0;
  {
    PumpThread<ServeSession> pump(session, errors);
    const std::uint64_t t0 = now_ns();
    std::uint64_t id = 0;
    for (std::size_t b = 0; b < ops.size(); b += kWindow) {
      const std::size_t n = std::min(kWindow, ops.size() - b);
      up.clear();
      for (std::size_t i = 0; i < n; ++i) {
        SpanTimer span(local.encode_ns, traced);
        wire::encode_request({++id, ops[b + i].op}, up);
      }
      server_dec.feed(up.data(), up.size());
      for (std::size_t i = 0; i < n; ++i) {
        if (server_dec.next(reqs[i]) != wire::DecodeStatus::kFrame) {
          throw std::runtime_error("ledger: request frame did not decode");
        }
        session.submit(reqs[i].op, futures[i]);
      }
      down.clear();
      for (std::size_t i = 0; i < n; ++i) {
        const Result& r = session.wait(futures[i]);
        wire::encode_response({reqs[i].id, r.won, r.value, r.round, 0}, down);
      }
      client_dec.feed(down.data(), down.size());
      for (std::size_t i = 0; i < n; ++i) {
        wire::Response resp;
        wire::DecodeStatus st;
        {
          SpanTimer span(local.decode_ns, traced);
          st = client_dec.next(resp);
        }
        if (st != wire::DecodeStatus::kFrame || resp.id != reqs[i].id) {
          throw std::runtime_error("ledger: response frame did not decode");
        }
        res[i] = Result{resp.value, resp.won, resp.round};
      }
      local.bytes += up.size() + down.size();
      local.ops += n;
      check_window(&ops[b], res.data(), n);
      heartbeat();
    }
    elapsed = now_ns() - t0;
  }
  if (errors.failed()) throw std::runtime_error(errors.get());
  if (traced) *spans = local;
  return ns_per(elapsed, ops.size());
}

/// L5: + loopback TCP: a wire server over the flat session and one
/// WireClient pipelining each window (window = 256 in flight).
double depth_tcp(const std::vector<FlatOp>& ops, WireSpans* spans) {
  ServeSession session(ServeConfig{});
  crcw::serve::BasicWireServer<FlatBackend> server(session, session.config().wire);
  server.start();
  std::uint64_t elapsed = 0;
  std::uint64_t stale = 0;
  {
    crcw::serve::WireClient client("127.0.0.1", server.port());
    std::vector<Op> batch;
    std::vector<Result> res(kWindow);
    const std::uint64_t t0 = now_ns();
    for (std::size_t b = 0; b < ops.size(); b += kWindow) {
      const std::size_t n = std::min(kWindow, ops.size() - b);
      batch.clear();
      for (std::size_t i = 0; i < n; ++i) batch.push_back(ops[b + i].op);
      const auto replies = client.pipeline(batch, kWindow);
      for (std::size_t i = 0; i < n; ++i) {
        res[i] = Result{replies[i].value, replies[i].won, replies[i].round};
      }
      check_window(&ops[b], res.data(), n);
      heartbeat();
    }
    elapsed = now_ns() - t0;
    stale = client.stale_retries();
  }
  server.stop();
  if (spans != nullptr) {
    spans->stale_retries = stale;
    spans->requests_served = server.requests_served();
    spans->ops = ops.size();
    spans->bytes = server.requests_served() * (crcw::serve::wire::kRequestFrameBytes +
                                               crcw::serve::wire::kResponseFrameBytes);
  }
  return ns_per(elapsed, ops.size());
}

}  // namespace

LedgerProbe run_ledger(std::uint64_t seed, bool small, ServeSpans& serve, WireSpans& wire) {
  const KvInputs in = make_mixed_inputs(seed ^ 0x6c6564676572ull, small ? 1u << 10 : 1u << 16,
                                        1, small ? 1u << 11 : 1u << 16, 0.5);
  const std::vector<FlatOp> ops = flatten(in, in.streams[0].size());
  constexpr int kReps = 3;
  std::vector<double> samples[6];
  for (int rep = 0; rep < kReps; ++rep) {
    set_phase("ledger");
    samples[0].push_back(depth_table(ops));
    samples[1].push_back(depth_rounds(ops));
    samples[2].push_back(depth_queue(ops));
    samples[3].push_back(depth_session(ops, nullptr));
    samples[4].push_back(depth_codec(ops, nullptr));
    samples[5].push_back(depth_tcp(ops, nullptr));
    heartbeat();
  }
  LedgerProbe out;
  for (int d = 0; d < 6; ++d) out.ns[d] = median(samples[d]);
  // One more pass of the span-carrying depths, untimed, with spans on.
  (void)depth_session(ops, &serve);
  WireSpans tcp;
  (void)depth_codec(ops, &wire);
  (void)depth_tcp(ops, &tcp);
  wire.bytes = tcp.bytes;
  wire.ops = tcp.ops;
  wire.stale_retries = tcp.stale_retries;
  wire.requests_served = tcp.requests_served;
  return out;
}

// -- reference -------------------------------------------------------------------

double mutex_ops_s(const KvInputs& in, std::size_t ops_per_client) {
  std::mutex mu;
  std::unordered_map<std::uint64_t, std::uint64_t> map;  // guarded by mu
  std::vector<std::thread> threads;
  std::uint64_t total = 0;
  for (const auto& s : in.streams) total += std::min(ops_per_client, s.size());
  const std::uint64_t t0 = now_ns();
  for (std::size_t c = 0; c < in.streams.size(); ++c) {
    threads.emplace_back([&, c] {
      const auto& s = in.streams[c];
      const std::size_t n = std::min(ops_per_client, s.size());
      std::uint64_t sink = 0;
      std::uint32_t seq = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = in.keys[s[i].key_idx];
        const std::lock_guard<std::mutex> lock(mu);
        switch (s[i].kind) {
          case OpKind::kLookup: {
            const auto it = map.find(key);
            sink += it != map.end() ? it->second : 0;
            break;
          }
          case OpKind::kErase:
            map.erase(key);
            break;
          default:
            map[key] = encode_value(s[i].key_idx, ++seq);
            break;
        }
      }
      g_sink.fetch_add(sink, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : threads) t.join();
  const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
  return secs > 0.0 ? static_cast<double>(total) / secs : 0.0;
}

}  // namespace pb
