// kv-ingest, kv-mixed and kv-wire: closed-loop clients of the serve stack.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "oracle.hpp"
#include "serve/serve_server.hpp"
#include "serve/serve_session.hpp"
#include "serve/wire.hpp"
#include "workloads.hpp"

namespace pb {

using crcw::serve::BackendStats;
using crcw::serve::Op;
using crcw::serve::OpFuture;
using crcw::serve::OpKind;
using crcw::serve::Result;
using crcw::serve::ServeConfig;
using crcw::serve::ServeSession;
using crcw::serve::ShardedServeSession;

// -- shared ------------------------------------------------------------------

void ServeSpans::merge(const ServeSpans& o) {
  submit_ns.merge(o.submit_ns);
  wait_ns.merge(o.wait_ns);
  batch_ns.merge(o.batch_ns);
  polls += o.polls;
  idle_polls += o.idle_polls;
  stats.rounds += o.stats.rounds;
  stats.batches += o.stats.batches;
  stats.deadline_batches += o.stats.deadline_batches;
  stats.ops_served += o.stats.ops_served;
  enqueue_admit_p99_ns = std::max(enqueue_admit_p99_ns, o.enqueue_admit_p99_ns);
  stale_retries += o.stale_retries;
}

void WireSpans::merge(const WireSpans& o) {
  encode_ns.merge(o.encode_ns);
  decode_ns.merge(o.decode_ns);
  bytes += o.bytes;
  ops += o.ops;
  stale_retries += o.stale_retries;
  requests_served += o.requests_served;
}

void PhaseStats::merge(const PhaseStats& o) {
  attempted += o.attempted;
  completed += o.completed;
  seconds += o.seconds;
  cpu_us += o.cpu_us;
  work += o.work;
  latency_ns.merge(o.latency_ns);
}

std::vector<Slice> plan_slices(const Options& opt) {
  std::vector<Slice> out;
  if (opt.ops != 0) {
    const std::uint64_t first = opt.trace ? opt.ops / 2 : opt.ops;
    out.push_back(Slice{Budget{0.0, first}, false});
    if (opt.trace) out.push_back(Slice{Budget{0.0, opt.ops - first}, true});
    return out;
  }
  auto n = std::max<long>(1, std::lround(opt.seconds / kSliceSeconds));
  if (opt.trace) n = std::max<long>(2, n + n % 2);
  for (long i = 0; i < n; ++i) {
    out.push_back(Slice{Budget{opt.seconds / static_cast<double>(n), 0}, opt.trace && i % 2 == 1});
  }
  return out;
}

namespace {

// Client threads (connections, for kv-wire) per workload. kv-mixed has one
// self-pumping client: a second would run rounds as a second OpenMP master
// with its own team. kv-wire has one connection: with two, the handler
// threads' spin-waits oversubscribe the cores and the tail collapses in
// bursts (see README.md).
constexpr int kIngestProducers = 2;
constexpr int kMixedClients = 1;
constexpr int kWireClients = 1;
static_assert(kMixedClients == 1, "kv-mixed's ValueLedger needs a single writer");

BackendStats stats_delta(const BackendStats& a, const BackendStats& b) {
  BackendStats d = b;
  d.rounds = b.rounds - a.rounds;
  d.batches = b.batches - a.batches;
  d.deadline_batches = b.deadline_batches - a.deadline_batches;
  d.ops_served = b.ops_served - a.ops_served;
  return d;
}

/// Runs `body(c)` on one thread per client and joins them; an exception
/// escaping a client is recorded, never lost.
template <typename Body>
void run_clients(int clients, ErrorSlot& errors, Body&& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c);
      } catch (const std::exception& e) {
        errors.set(std::string("client: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Per-client share of an op budget (client 0 takes the remainder).
std::uint64_t client_share(std::uint64_t ops, int c, int clients) {
  const auto n = static_cast<std::uint64_t>(clients);
  return ops / n + (c == 0 ? ops % n : 0);
}

/// Times a phase: wall clock and process CPU around `body`.
template <typename Body>
void timed(PhaseStats& ph, Body&& body) {
  const double cpu0 = cpu_time_us();
  const std::uint64_t t0 = now_ns();
  body();
  ph.seconds += static_cast<double>(now_ns() - t0) * 1e-9;
  ph.cpu_us += cpu_time_us() - cpu0;
}

/// Sleeps out a time budget, then raises `stop` (clients finish their
/// current window and return).
void stop_after(const Budget& b, std::atomic<bool>& stop, const ErrorSlot& errors) {
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(b.seconds * 1e9);
  while (now_ns() < end && !errors.failed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_relaxed);
}

// -- kv-ingest -----------------------------------------------------------------

struct IngestSizes {
  std::uint64_t key_space;
  std::size_t stream_len;  ///< per producer, replayed cyclically
  std::size_t window;      ///< ops in flight per producer
  std::size_t epoch;       ///< ops per producer between oracle checks
  std::size_t warmup;      ///< ops per producer in the discarded warm-up
};

IngestSizes ingest_sizes(bool small) {
  if (small) return {1u << 14, 1u << 14, 512, 1u << 12, 1u << 12};
  return {1u << 22, 1u << 21, 4096, 1u << 16, 1u << 18};
}

/// One kv-ingest producer: a FIFO window of in-flight upserts/erases.
class Producer {
 public:
  Producer(const std::vector<KvOp>& stream, const std::vector<std::uint64_t>& keys,
           std::size_t window)
      : stream_(stream), keys_(keys), futures_(new OpFuture[window]), slots_(window) {}

  void attach(ShardedServeSession* session) { session_ = session; }

  /// Submits exactly `n` ops and waits for all of them.
  void run_epoch(std::size_t n, bool traced, PhaseStats& ph, ServeSpans& spans) {
    const std::size_t w = slots_.size();
    std::size_t submitted = 0;
    std::size_t head = 0;
    std::size_t inflight = 0;
    while (submitted < n || inflight > 0) {
      if (inflight == w || submitted == n) {
        complete(head, traced, ph, spans);
        head = (head + 1) % w;
        --inflight;
        continue;
      }
      submit((head + inflight) % w, traced, spans);
      ++inflight;
      ++submitted;
    }
    ph.attempted += n;
  }

  std::vector<WriteRecord> log;

 private:
  struct Slot {
    std::uint32_t key_idx = 0;
    bool erase = false;
    std::uint64_t value = 0;
    std::uint64_t t_start = 0;
    std::uint64_t t_submitted = 0;
  };

  void submit(std::size_t i, bool traced, ServeSpans& spans) {
    const KvOp& k = stream_[pos_];
    pos_ = (pos_ + 1) % stream_.size();
    Slot& s = slots_[i];
    s.key_idx = k.key_idx;
    s.erase = k.kind == OpKind::kErase;
    s.value = s.erase ? 0 : encode_value(k.key_idx, ++seq_);
    const std::uint64_t key = keys_[k.key_idx];
    const Op op = s.erase ? Op::erase(key) : Op::upsert(key, s.value);
    s.t_start = now_ns();
    session_->submit(op, futures_[i]);
    if (traced) {
      s.t_submitted = now_ns();
      spans.submit_ns.record(s.t_submitted - s.t_start);
    }
  }

  void complete(std::size_t i, bool traced, PhaseStats& ph, ServeSpans& spans) {
    const Result& r = session_->wait(futures_[i]);
    const std::uint64_t t = now_ns();
    const Slot& s = slots_[i];
    ph.latency_ns.record(t - s.t_start);
    if (traced) spans.wait_ns.record(t - s.t_submitted);
    if (r.round > 0xffffffffu) throw std::runtime_error("round id exceeds the oracle's range");
    log.push_back(WriteRecord{s.key_idx, static_cast<std::uint32_t>(r.round), r.value,
                              s.value, s.erase, r.won});
    ++ph.completed;
    ph.work += 1.0;
    if ((ph.completed & 1023) == 0) heartbeat();
  }

  const std::vector<KvOp>& stream_;
  const std::vector<std::uint64_t>& keys_;
  ShardedServeSession* session_ = nullptr;
  std::unique_ptr<OpFuture[]> futures_;  // pinned: the engine holds pointers
  std::vector<Slot> slots_;
  std::size_t pos_ = 0;
  std::uint32_t seq_ = 0;
};

/// One set-up kv-ingest deployment. Member order is teardown order in
/// reverse: the pump stops first, then the session flushes into futures
/// the producers still own.
class IngestRun {
 public:
  IngestRun(const Options& opt, ErrorSlot& errors)
      : sizes_(ingest_sizes(opt.small)), errors_(errors) {
    const std::uint64_t t0 = now_ns();
    inputs_ = workload_inputs(opt);
    state_ = std::make_unique<IngestState>(sizes_.key_space);
    for (int c = 0; c < kIngestProducers; ++c) {
      producers_.push_back(
          std::make_unique<Producer>(inputs_.streams[static_cast<std::size_t>(c)],
                                     inputs_.keys, sizes_.window));
    }
    session_ = std::make_unique<ShardedServeSession>(ServeConfig{}.with_shards(4));
    for (auto& p : producers_) p->attach(session_.get());
    pump_ = std::make_unique<PumpThread<ShardedServeSession>>(*session_, errors_);
    PhaseStats warm;
    ServeSpans unused;
    const double check_s = epoch(sizes_.warmup * kIngestProducers, false, warm, unused);
    setup_s_ = static_cast<double>(now_ns() - t0) * 1e-9 - check_s;
  }

  [[nodiscard]] double setup_s() const noexcept { return setup_s_; }

  PhaseStats run_phase(const Budget& b, bool traced, ServeSpans& spans) {
    PhaseStats ph;
    const BackendStats s0 = session_->stats();
    pump_->set_traced(traced);
    std::uint64_t left = b.ops;
    while (!errors_.failed()) {
      std::uint64_t n = sizes_.epoch * kIngestProducers;
      if (b.ops != 0) {
        if (left == 0) break;
        n = std::min(n, left);
        left -= n;
      } else if (ph.seconds >= b.seconds) {
        break;
      }
      epoch(n, traced, ph, spans);
    }
    pump_->set_traced(false);
    if (traced) {
      spans.merge(pump_->take_spans());
      ServeSpans s;
      s.stats = stats_delta(s0, session_->stats());
      s.enqueue_admit_p99_ns = static_cast<double>(session_->metrics().p99_enqueue_to_admit_ns());
      spans.merge(s);
    }
    return ph;
  }

  /// Stops the pump, drains, and checks every key's committed value.
  std::string final_check() {
    pump_.reset();
    session_->flush();
    const auto committed = [&](std::size_t k) { return session_->committed(inputs_.keys[k]); };
    std::string err = check_final_state(*state_, committed);
    if (!err.empty()) return err;
    std::uint64_t live = 0;
    for (std::size_t k = 0; k < state_->keys(); ++k) live += state_->expected(k) != 0 ? 1 : 0;
    if (session_->stats().keys != live) return "table holds keys no write left live";
    return {};
  }

 private:
  /// One epoch: the producers run `n` ops between them and drain their
  /// windows, so every round of the epoch has closed; then the oracle
  /// checks it. Returns the seconds the check took (excluded from every
  /// timing).
  double epoch(std::uint64_t n, bool traced, PhaseStats& ph, ServeSpans& spans) {
    std::vector<PhaseStats> per(kIngestProducers);
    std::vector<ServeSpans> sp(kIngestProducers);
    timed(ph, [&] {
      run_clients(kIngestProducers, errors_, [&](int c) {
        const auto i = static_cast<std::size_t>(c);
        producers_[i]->run_epoch(client_share(n, c, kIngestProducers), traced, per[i], sp[i]);
      });
    });
    const std::uint64_t t0 = now_ns();
    std::vector<WriteRecord> all;
    for (std::size_t c = 0; c < producers_.size(); ++c) {
      ph.merge(per[c]);  // per-client stats carry no time: it was taken around the epoch
      spans.merge(sp[c]);
      auto& log = producers_[c]->log;
      all.insert(all.end(), log.begin(), log.end());
      log.clear();
    }
    errors_.set(check_write_epoch(all, *state_));
    heartbeat();
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  IngestSizes sizes_;
  ErrorSlot& errors_;
  KvInputs inputs_;
  std::unique_ptr<IngestState> state_;
  std::vector<std::unique_ptr<Producer>> producers_;
  std::unique_ptr<ShardedServeSession> session_;
  std::unique_ptr<PumpThread<ShardedServeSession>> pump_;
  double setup_s_ = 0.0;
};

// -- kv-mixed ------------------------------------------------------------------

struct MixedSizes {
  std::uint64_t key_space;
  std::size_t stream_len;      ///< per client, replayed cyclically
  std::size_t window;          ///< ops per read-your-writes window
  std::size_t warmup_windows;  ///< per client, discarded
};

MixedSizes mixed_sizes(bool small) {
  if (small) return {1u << 10, 1u << 12, 256, 8};
  return {1u << 16, 1u << 18, 256, 256};
}

/// The kv-mixed client: windows of submits, then waits in order, with a
/// read-your-writes audit of every lookup and an exact check of every
/// value against the client's ValueLedger. It pumps the session itself
/// while it waits — poll() until the op is ready, the loop
/// BasicServeSession::call() runs — so the process holds exactly the
/// round executor's OpenMP team and no extra pump thread competing with
/// it for the cores.
class WindowClient {
 public:
  WindowClient(ServeSession& session, const std::vector<KvOp>& stream,
               const std::vector<std::uint64_t>& keys, std::size_t window)
      : session_(session),
        stream_(stream),
        keys_(keys),
        audit_(session.backend().shard_count()),
        ledger_(keys.size()),
        marks_(keys.size(), 0),
        futures_(new OpFuture[window]),
        slots_(window) {}

  /// Runs windows until `ops` ops completed (ops > 0) or `stop` is set.
  void run(std::uint64_t ops, const std::atomic<bool>& stop, bool traced, PhaseStats& ph,
           ServeSpans& spans) {
    std::uint64_t done = 0;
    for (;;) {
      std::size_t w = slots_.size();
      if (ops != 0) {
        if (done >= ops) break;
        w = static_cast<std::size_t>(std::min<std::uint64_t>(w, ops - done));
      } else if (stop.load(std::memory_order_relaxed)) {
        break;
      }
      window(w, traced, ph, spans);
      done += w;
      heartbeat();
    }
  }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] const ValueLedger& ledger() const noexcept { return ledger_; }

 private:
  struct Slot {
    std::uint32_t key_idx = 0;
    OpKind kind = OpKind::kLookup;
    std::uint64_t value = 0;
    int shard = 0;
    std::uint64_t bound = 0;
    std::uint64_t expected = 0;  ///< ledger value at issue (lookups)
    bool raced = false;          ///< an upsert of the key is in the window
    std::uint64_t t_start = 0;
    std::uint64_t t_submitted = 0;
  };

  void window(std::size_t w, bool traced, PhaseStats& ph, ServeSpans& spans) {
    const std::uint32_t floor = seq_;
    ++window_id_;
    for (std::size_t i = 0; i < w; ++i) {
      const KvOp& k = stream_[(pos_ + i) % stream_.size()];
      if (k.kind == OpKind::kUpsert) marks_[k.key_idx] = window_id_;
    }
    for (std::size_t i = 0; i < w; ++i) {
      const KvOp& k = stream_[pos_];
      pos_ = (pos_ + 1) % stream_.size();
      Slot& s = slots_[i];
      const std::uint64_t key = keys_[k.key_idx];
      s.key_idx = k.key_idx;
      s.kind = k.kind;
      s.shard = session_.backend().shard_of(key);
      s.bound = audit_.bound(s.shard);
      s.expected = ledger_.expected(k.key_idx);
      s.raced = marks_[k.key_idx] == window_id_;
      s.value = k.kind == OpKind::kUpsert ? encode_value(k.key_idx, ++seq_) : 0;
      const Op op = k.kind == OpKind::kUpsert ? Op::upsert(key, s.value) : Op::lookup(key);
      s.t_start = now_ns();
      session_.submit(op, futures_[i]);
      if (traced) {
        s.t_submitted = now_ns();
        spans.submit_ns.record(s.t_submitted - s.t_start);
      }
    }
    std::size_t completed = 0;
    for (std::size_t i = 0; i < w; ++i) {
      const Result& r = pump_until_ready(futures_[i], traced, spans);
      const std::uint64_t t = now_ns();
      const Slot& s = slots_[i];
      if (traced) spans.wait_ns.record(t - s.t_submitted);
      std::string err;
      if (s.kind == OpKind::kLookup) {
        err = RywAudit::check_lookup(s.key_idx, r.round, s.bound, r.won, r.value);
        if (err.empty()) {
          err = ValueLedger::check_lookup(s.key_idx, r.won, r.value, s.expected, s.raced, floor);
        }
      } else {
        audit_.note_write(s.shard, r.round);
        if (refused(r.won, r.value)) continue;  // failed: attempted, never completed
        err = ValueLedger::check_upsert(s.key_idx, s.value, r.won, r.value, floor);
        ledger_.note_upsert(s.key_idx, r.round, r.value);
      }
      if (!err.empty() && error_.empty()) error_ = err;
      ph.latency_ns.record(t - s.t_start);
      ++completed;
    }
    ph.attempted += w;
    ph.completed += completed;
    ph.work += static_cast<double>(completed);
  }

  const Result& pump_until_ready(const OpFuture& f, bool traced, ServeSpans& spans) {
    crcw::serve::BackoffState backoff(session_.config().batch.backoff_spins);
    while (!f.ready()) {
      const std::uint64_t t0 = traced ? now_ns() : 0;
      const bool ran = session_.poll();
      if (traced) {
        ++spans.polls;
        if (ran) {
          spans.batch_ns.record(now_ns() - t0);
        } else {
          ++spans.idle_polls;
        }
      }
      if (ran) {
        backoff.reset();
      } else {
        backoff.pause();
      }
    }
    return f.result();
  }

  ServeSession& session_;
  const std::vector<KvOp>& stream_;
  const std::vector<std::uint64_t>& keys_;
  RywAudit audit_;
  ValueLedger ledger_;
  std::vector<std::uint32_t> marks_;  ///< per key: last window with an upsert of it
  std::uint32_t window_id_ = 0;
  std::unique_ptr<OpFuture[]> futures_;
  std::vector<Slot> slots_;
  std::size_t pos_ = 0;
  std::uint32_t seq_ = 0;
  std::string error_;
};

/// Runs one phase of window clients (time- or op-bounded).
PhaseStats run_window_phase(std::vector<std::unique_ptr<WindowClient>>& clients,
                            const Budget& b, bool traced, ServeSpans& spans, ErrorSlot& errors) {
  const int n = static_cast<int>(clients.size());
  PhaseStats ph;
  std::vector<PhaseStats> per(clients.size());
  std::vector<ServeSpans> sp(clients.size());
  std::atomic<bool> stop{false};
  timed(ph, [&] {
    std::thread timer;
    if (b.ops == 0) timer = std::thread([&] { stop_after(b, stop, errors); });
    run_clients(n, errors, [&](int c) {
      const auto i = static_cast<std::size_t>(c);
      clients[i]->run(client_share(b.ops, c, n), stop, traced, per[i], sp[i]);
    });
    stop.store(true, std::memory_order_relaxed);
    if (timer.joinable()) timer.join();
  });
  for (std::size_t c = 0; c < clients.size(); ++c) {
    ph.merge(per[c]);
    spans.merge(sp[c]);
    errors.set(clients[c]->error());
  }
  return ph;
}

class MixedRun {
 public:
  MixedRun(const Options& opt, ErrorSlot& errors)
      : sizes_(mixed_sizes(opt.small)), errors_(errors) {
    const std::uint64_t t0 = now_ns();
    inputs_ = workload_inputs(opt);
    session_ = std::make_unique<ServeSession>(ServeConfig{});
    for (int c = 0; c < kMixedClients; ++c) {
      clients_.push_back(std::make_unique<WindowClient>(
          *session_, inputs_.streams[static_cast<std::size_t>(c)], inputs_.keys,
          sizes_.window));
    }
    ServeSpans unused;
    const Budget warm{0.0, sizes_.warmup_windows * sizes_.window * kMixedClients};
    (void)run_window_phase(clients_, warm, false, unused, errors_);
    setup_s_ = static_cast<double>(now_ns() - t0) * 1e-9;
  }

  [[nodiscard]] double setup_s() const noexcept { return setup_s_; }

  PhaseStats run_phase(const Budget& b, bool traced, ServeSpans& spans) {
    const BackendStats s0 = session_->stats();
    PhaseStats ph = run_window_phase(clients_, b, traced, spans, errors_);
    if (traced) {
      ServeSpans s;
      s.stats = stats_delta(s0, session_->stats());
      s.enqueue_admit_p99_ns = static_cast<double>(session_->metrics().p99_enqueue_to_admit_ns());
      spans.merge(s);
    }
    return ph;
  }

  /// Every key's committed value is exactly what the client's ledger
  /// holds (the client is the table's only writer).
  std::string final_check() {
    session_->flush();
    const ValueLedger& ledger = clients_.front()->ledger();
    for (std::size_t k = 0; k < inputs_.keys.size(); ++k) {
      const auto v = session_->committed(inputs_.keys[k]);
      if (v.value_or(0) != ledger.expected(k)) {
        return "committed value of key index " + std::to_string(k) +
               " differs from the client's last acknowledged write";
      }
    }
    return {};
  }

 private:
  MixedSizes sizes_;
  ErrorSlot& errors_;
  KvInputs inputs_;
  std::unique_ptr<ServeSession> session_;
  std::vector<std::unique_ptr<WindowClient>> clients_;
  double setup_s_ = 0.0;
};

// -- kv-wire -------------------------------------------------------------------

constexpr std::size_t kWireWindow = 64;

/// One pipelining TCP client: up to kWireWindow requests in flight, each
/// refill written with one write(2). Replies arrive in request order per
/// connection. Lookups that raced a write of this client acknowledged
/// after they were sent are re-issued (a stale retry); a lookup that did
/// not beat a write acknowledged BEFORE it was sent is an oracle failure.
class WireConn {
 public:
  WireConn(std::uint16_t port, const ShardedServeSession& session,
           const std::vector<KvOp>& stream, const std::vector<std::uint64_t>& keys)
      : fd_(crcw::serve::net::tcp_connect("127.0.0.1", port)),
        session_(session),
        stream_(stream),
        keys_(keys),
        audit_(session.backend().shard_count()),
        decoder_(64 * 1024) {
    if (fd_ < 0) throw std::runtime_error("wire: connect failed");
  }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;
  ~WireConn() { close(); }

  void close() {
    if (fd_ >= 0) {
      crcw::serve::net::shutdown_fd(fd_);
      crcw::serve::net::close_fd(fd_);
      fd_ = -1;
    }
  }

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] std::uint64_t requests_sent() const noexcept { return next_id_ - 1; }
  [[nodiscard]] bool lost() const noexcept { return lost_; }

  /// Issues `ops` new ops (ops > 0) or issues until `stop`, then drains.
  void run(std::uint64_t ops, const std::atomic<bool>& stop, bool traced, PhaseStats& ph,
           WireSpans& spans) {
    std::uint64_t issued = 0;
    std::uint64_t beat = 0;
    while (fd_ >= 0) {
      const bool more = ops != 0 ? issued < ops : !stop.load(std::memory_order_relaxed);
      out_.clear();
      const std::uint64_t t_send = now_ns();
      while (inflight_.size() < kWireWindow && (!retry_.empty() || more)) {
        Pending p;
        if (!retry_.empty()) {
          p = retry_.front();
          retry_.pop_front();
        } else {
          if (ops != 0 && issued >= ops) break;
          const KvOp& k = stream_[pos_];
          pos_ = (pos_ + 1) % stream_.size();
          p.key_idx = k.key_idx;
          p.kind = k.kind;
          p.value = k.kind == OpKind::kUpsert ? encode_value(k.key_idx, ++seq_) : 0;
          p.t_first = t_send;
          ++issued;
          ++ph.attempted;
        }
        send(p, traced, spans);
      }
      if (!out_.empty()) {
        if (!crcw::serve::net::write_all(fd_, out_.data(), out_.size())) {
          lose();
          return;
        }
        if (traced) spans.bytes += out_.size();
      }
      if (inflight_.empty()) break;
      const std::ptrdiff_t n = crcw::serve::net::read_some(fd_, chunk_, sizeof(chunk_));
      if (n <= 0) {
        lose();
        return;
      }
      if (traced) spans.bytes += static_cast<std::uint64_t>(n);
      decoder_.feed(chunk_, static_cast<std::size_t>(n));
      if (!drain(traced, ph, spans)) return;
      if (ph.completed / 1024 != beat) {
        beat = ph.completed / 1024;
        heartbeat();
      }
    }
  }

 private:
  struct Pending {
    std::uint64_t id = 0;
    std::uint32_t key_idx = 0;
    OpKind kind = OpKind::kLookup;
    std::uint64_t value = 0;
    std::uint64_t bound = 0;  ///< RYW bound when (re)issued
    std::uint64_t t_first = 0;
  };

  void send(Pending& p, bool traced, WireSpans& spans) {
    const std::uint64_t key = keys_[p.key_idx];
    p.id = next_id_++;
    p.bound = audit_.bound(session_.backend().shard_of(key));
    const Op op = p.kind == OpKind::kUpsert ? Op::upsert(key, p.value) : Op::lookup(key);
    {
      SpanTimer span(spans.encode_ns, traced);
      crcw::serve::wire::encode_request({p.id, op}, out_);
    }
    inflight_.push_back(p);
  }

  /// Consumes every complete response frame; false on a protocol error.
  bool drain(bool traced, PhaseStats& ph, WireSpans& spans) {
    for (;;) {
      crcw::serve::wire::Response resp;
      crcw::serve::wire::DecodeStatus st;
      {
        SpanTimer span(spans.decode_ns, traced);
        st = decoder_.next(resp);
      }
      if (st == crcw::serve::wire::DecodeStatus::kNeedMore) return true;
      if (st == crcw::serve::wire::DecodeStatus::kError || inflight_.empty() ||
          resp.id != inflight_.front().id) {
        set_error("wire: malformed or out-of-order response");
        return false;
      }
      const Pending p = inflight_.front();
      inflight_.pop_front();
      const std::uint64_t key = keys_[p.key_idx];
      const int shard = session_.backend().shard_of(key);
      if (resp.shard != static_cast<std::uint32_t>(shard)) {
        set_error("wire: response names the wrong shard");
      }
      if (p.kind == OpKind::kLookup) {
        const std::string err =
            RywAudit::check_lookup(p.key_idx, resp.round, p.bound, resp.won, resp.value);
        if (!err.empty()) set_error(err);
        if (resp.round <= audit_.bound(shard)) {
          // Raced a write acknowledged after this lookup was sent.
          if (traced) ++spans.stale_retries;
          retry_.push_back(p);
          continue;
        }
      } else {
        if (resp.won ? resp.value != p.value : !value_matches_key(resp.value, p.key_idx)) {
          set_error("upsert observed a value no write of its key produced");
        }
        audit_.note_write(shard, resp.round);
      }
      ph.latency_ns.record(now_ns() - p.t_first);
      ++ph.completed;
      ph.work += 1.0;
      if (traced) ++spans.ops;
    }
  }

  /// Connection lost: every op still in flight or queued for retry has
  /// failed (attempted but never completed); the connection stays down.
  void lose() {
    lost_ = true;
    close();
    inflight_.clear();
    retry_.clear();
  }

  void set_error(const std::string& e) {
    if (error_.empty()) error_ = e;
  }

  int fd_;
  const ShardedServeSession& session_;
  const std::vector<KvOp>& stream_;
  const std::vector<std::uint64_t>& keys_;
  RywAudit audit_;
  crcw::serve::wire::ResponseDecoder decoder_;
  std::vector<std::uint8_t> out_;
  std::deque<Pending> inflight_;
  std::deque<Pending> retry_;
  std::uint8_t chunk_[64 * 1024];
  std::uint64_t next_id_ = 1;
  std::size_t pos_ = 0;
  std::uint32_t seq_ = 0;
  bool lost_ = false;
  std::string error_;
};

class WireRun {
 public:
  WireRun(const Options& opt, ErrorSlot& errors)
      : sizes_(mixed_sizes(opt.small)), errors_(errors) {
    const std::uint64_t t0 = now_ns();
    inputs_ = workload_inputs(opt);
    const ServeConfig cfg = ServeConfig{}.with_shards(4);
    session_ = std::make_unique<ShardedServeSession>(cfg);
    server_ = std::make_unique<crcw::serve::WireServer>(*session_, session_->config().wire);
    server_->start();
    for (int c = 0; c < kWireClients; ++c) {
      conns_.push_back(std::make_unique<WireConn>(server_->port(), *session_,
                                                  inputs_.streams[static_cast<std::size_t>(c)],
                                                  inputs_.keys));
    }
    WireSpans unused;
    (void)run_phase_impl(Budget{0.0, sizes_.warmup_windows * sizes_.window * kWireClients},
                         false, unused);
    setup_s_ = static_cast<double>(now_ns() - t0) * 1e-9;
  }

  ~WireRun() {
    for (auto& c : conns_) c->close();
    if (server_) server_->stop();
  }
  WireRun(const WireRun&) = delete;
  WireRun& operator=(const WireRun&) = delete;

  [[nodiscard]] double setup_s() const noexcept { return setup_s_; }

  PhaseStats run_phase(const Budget& b, bool traced, ServeSpans& serve, WireSpans& wire) {
    const BackendStats s0 = session_->stats();
    const std::uint64_t served0 = server_->requests_served();
    PhaseStats ph = run_phase_impl(b, traced, wire);
    if (traced) {
      ServeSpans s;
      s.stats = stats_delta(s0, session_->stats());
      s.enqueue_admit_p99_ns = static_cast<double>(session_->metrics().p99_enqueue_to_admit_ns());
      serve.merge(s);
      wire.requests_served += server_->requests_served() - served0;
    }
    return ph;
  }

  /// Every request the clients sent was served exactly once (only
  /// countable while no connection was lost mid-burst).
  std::string final_check() {
    std::uint64_t sent = 0;
    for (const auto& c : conns_) {
      if (c->lost()) return {};
      sent += c->requests_sent();
    }
    if (server_->requests_served() != sent) {
      return "server served " + std::to_string(server_->requests_served()) +
             " requests, clients sent " + std::to_string(sent);
    }
    return {};
  }

 private:
  PhaseStats run_phase_impl(const Budget& b, bool traced, WireSpans& wire) {
    PhaseStats ph;
    std::vector<PhaseStats> per(kWireClients);
    std::vector<WireSpans> sp(kWireClients);
    std::atomic<bool> stop{false};
    timed(ph, [&] {
      std::thread timer;
      if (b.ops == 0) timer = std::thread([&] { stop_after(b, stop, errors_); });
      run_clients(kWireClients, errors_, [&](int c) {
        const auto i = static_cast<std::size_t>(c);
        conns_[i]->run(client_share(b.ops, c, kWireClients), stop, traced, per[i], sp[i]);
      });
      stop.store(true, std::memory_order_relaxed);
      if (timer.joinable()) timer.join();
    });
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      ph.merge(per[c]);
      wire.merge(sp[c]);
      errors_.set(conns_[c]->error());
    }
    return ph;
  }

  MixedSizes sizes_;
  ErrorSlot& errors_;
  KvInputs inputs_;
  std::unique_ptr<ShardedServeSession> session_;
  std::unique_ptr<crcw::serve::WireServer> server_;
  std::vector<std::unique_ptr<WireConn>> conns_;
  double setup_s_ = 0.0;
};

}  // namespace

KvInputs workload_inputs(const Options& opt) {
  if (opt.workload == "kv-ingest") {
    const IngestSizes s = ingest_sizes(opt.small);
    return make_ingest_inputs(opt.seed, s.key_space, kIngestProducers, s.stream_len, 0.99,
                              0.2);
  }
  const MixedSizes s = mixed_sizes(opt.small);
  const int clients = opt.workload == "kv-wire" ? kWireClients : kMixedClients;
  return make_mixed_inputs(opt.seed, s.key_space, clients, s.stream_len, 0.5);
}

RunStats run_kv_ingest(const Options& opt) {
  return drive<IngestRun>(opt, [](IngestRun& r, const Budget& b, bool traced, RunStats& rs) {
    rs.has_serve = rs.has_serve || traced;
    return r.run_phase(b, traced, rs.serve);
  });
}

RunStats run_kv_mixed(const Options& opt) {
  return drive<MixedRun>(opt, [](MixedRun& r, const Budget& b, bool traced, RunStats& rs) {
    rs.has_serve = rs.has_serve || traced;
    return r.run_phase(b, traced, rs.serve);
  });
}

RunStats run_kv_wire(const Options& opt) {
  return drive<WireRun>(opt, [](WireRun& r, const Budget& b, bool traced, RunStats& rs) {
    rs.has_wire = rs.has_wire || traced;
    return r.run_phase(b, traced, rs.serve, rs.wire);
  });
}

}  // namespace pb
