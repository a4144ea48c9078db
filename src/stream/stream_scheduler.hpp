// StreamScheduler — the streaming ServiceBackend: batched edge updates and
// incremental connectivity over ONE DynamicGraph + ONE IncrementalCc,
// behind the same surface the KV backend implements (so BasicServeSession,
// BasicWireServer and WireClient drive it unchanged).
//
// It is the stream executor of serve::RoundPump (serve/round_pump.hpp),
// which owns the trigger, the drain, routing, slicing, the arbiter,
// snapshot cuts and the inline-or-team rule.
//
// Stripes, not shards. Connectivity is global — there is no way to
// partition the vertex set so queries stay local — so the backend keeps
// one shared edge table and one shared forest, and the pump's parts are
// execution STRIPES: every record of a stripe executes on one thread, and
// therefore all writes to one edge key are serialized on one thread. That
// per-key serialization is what legalises the mid-round reads below;
// cross-stripe parallelism is safe because the table's probe chains are
// atomic words and the forest's hook is a CAS.
//
// What this file supplies per round:
//
//   classify     vocabulary and bounds validation: KV kinds, snapshot kinds
//                and malformed edges are rejected without touching anything
//   reserve      ONE backlog-sized grow on the shared edge table
//   read pass    connectivity queries + edge-weight lookups against the
//                COMMITTED pre-round state (nothing links in the read pass)
//   write pass   edge writes + hooks + publish
//   end_round    deletion fallback (IncrementalCc::rebuild over the killed
//                endpoints) and one compaction sweep
//   end_batch    edge-table reclaim (watermark or probe telemetry)
//
// Write pass per record: the table's round arbitration collapses all
// same-(edge, round) inserts/erases to one winner. A winning insert of an
// edge that was NOT live pre-round hooks the forest (cc_.link — the
// arbitrary-CW write; concurrent hooks on one root resolve by CAS, losers
// retry against the new root). A winning erase of a live edge only
// records its endpoints — the forest cannot un-merge, so deletions batch
// into end_round's bounded rebuild. `was_live` is a mid-round read of a
// key only this stripe writes, which the table's ownership rule permits.
//
// Queries answer from the state committed by the previous round's
// end_round (hooks + rebuild + compact all happened-before the next
// round's read pass), so a round-r query result is exact for the prefix of
// writes with round < r — the same committed-read semantics the KV lookups
// give.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ds/hash_common.hpp"
#include "serve/config.hpp"
#include "serve/op.hpp"
#include "serve/request_queue.hpp"
#include "serve/round_pump.hpp"
#include "serve/serve_metrics.hpp"
#include "snap/cut.hpp"
#include "snap/snapshot_file.hpp"
#include "stream/dynamic_graph.hpp"
#include "stream/incremental_cc.hpp"
#include "util/cacheline.hpp"

namespace crcw::stream {

class StreamScheduler : public serve::RoundPump<StreamScheduler> {
 public:
  using Table = DynamicGraph::Table;

  StreamScheduler(const serve::ServeConfig& cfg, serve::RequestQueue& queue,
                  serve::ServeMetrics& metrics)
      : RoundPump(cfg, queue, metrics),
        graph_(config().stream.vertices, config().table.expected_keys,
               config().table.hash_config("stream-edges")),
        cc_(config().stream.vertices, config().batch.counters),
        stripes_(static_cast<std::size_t>(shard_count())) {}

  // -- committed state (serial / quiescent-pump reads) ----------------------
  /// Weight of the packed edge `key`, or null if not live.
  [[nodiscard]] const std::uint64_t* committed_read(std::uint64_t key) const noexcept {
    return graph_.find_key(key);
  }

  // -- snapshots (src/snap): capture, restore -------------------------------
  static constexpr std::uint32_t kSnapshotKind = snap::kKindStream;

  [[nodiscard]] std::uint32_t snapshot_shards() const noexcept { return 1; }

  /// Backend shape baked into snapshot headers: a stream snapshot from a
  /// server with a different vertex universe must not restore here (cc
  /// parents would land out of range or, worse, silently in range).
  [[nodiscard]] std::uint64_t config_digest() const noexcept {
    return ds::mix64(kSnapshotKind + 1) ^ ds::mix64(graph_.vertices());
  }

  /// Cut-predicated scan over the edge table (the digest surface; the
  /// forest is derived state and stays out of the fold). Runs concurrently
  /// with later rounds under the held-cut discipline.
  template <typename Fn>
  void scan_shard_at(std::uint32_t, round_t cut_round, Fn&& fn) const {
    graph_.table().for_each_at(cut_round, std::forward<Fn>(fn));
  }

  /// Whole-state capture for checkpoints: edge triples AND union-find
  /// parents taken together under the parked pump, so the forest agrees
  /// with the edge set exactly — a restored server answers same_component
  /// identically at the cut. Blocks the pump for the capture's duration
  /// (the stream backend trades checkpoint concurrency for forest
  /// consistency; the KV backend keeps the concurrent path).
  template <typename EdgeFn, typename ParentFn>
  [[nodiscard]] snap::SnapshotCut capture_snapshot(EdgeFn&& on_edge,
                                                   ParentFn&& on_parent) {
    const serve::PumpGuard pump(pump_lock());
    const snap::SnapshotCut cut{round(), 1};
    graph_.table().for_each_at(cut.round, std::forward<EdgeFn>(on_edge));
    cc_.for_each_parent(std::forward<ParentFn>(on_parent));
    return cut;
  }

  /// Serial restore of one edge entry (before serving starts). Refuses
  /// keys that do not unpack to a valid edge of THIS graph — the same
  /// validation admission applies to live traffic.
  bool restore_entry(std::uint32_t, std::uint64_t key, std::uint64_t value,
                     round_t round) {
    const ds::EdgeKey e = ds::unpack_edge(key);
    if (!graph_.valid_edge(e.u, e.v)) return false;
    return graph_.table().restore_slot(key, value, round);
  }

  /// Serial restore of one union-find parent (monotone parent <= v is
  /// enforced inside IncrementalCc).
  bool restore_cc_entry(std::uint32_t v, std::uint32_t parent) {
    return cc_.restore_parent(v, parent);
  }

  /// Serial: recounts components and compacts paths once every parent is
  /// in place.
  void finish_restore() { cc_.finish_restore(); }

  // -- introspection --------------------------------------------------------
  [[nodiscard]] const DynamicGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] IncrementalCc& cc() noexcept { return cc_; }
  [[nodiscard]] const IncrementalCc& cc() const noexcept { return cc_; }
  /// Edge-table reclaim sweeps triggered at batch close by the tombstone
  /// watermark.
  [[nodiscard]] std::uint64_t reclaims() const noexcept {
    return reclaims_.load(std::memory_order_relaxed);
  }

 private:
  friend class serve::RoundPump<StreamScheduler>;
  using Admit = serve::Admit;
  using Record = serve::Record;

  // One stripe's write-pass output, consumed by end_round. Padded so two
  // stripes (written by different team threads) never share a line.
  struct alignas(util::kCacheLineSize) Stripe {
    std::vector<std::uint32_t> deleted;  // killed-edge endpoints, this slice
    std::uint64_t hooks = 0;             // forest links, this slice
  };

  /// KV kinds (kUpsert/kErase) are rejected — this backend serves the
  /// graph, and a raw u64 upsert could forge the sentinel or a self-loop
  /// the edge validation exists to keep out.
  [[nodiscard]] Admit classify(const serve::Op& op) const noexcept {
    switch (op.kind) {
      case serve::OpKind::kLookup:
        return op.key == Table::kEmptyKey ? Admit::kReject : Admit::kRead;
      case serve::OpKind::kEdgeInsert:
      case serve::OpKind::kEdgeErase: {
        const ds::EdgeKey e = ds::unpack_edge(op.key);
        return graph_.valid_edge(e.u, e.v) ? Admit::kWrite : Admit::kReject;
      }
      case serve::OpKind::kSameComponent:
        return op.key < graph_.vertices() && op.value < graph_.vertices() ? Admit::kRead
                                                                          : Admit::kReject;
      case serve::OpKind::kComponentSize:
        return op.key < graph_.vertices() ? Admit::kRead : Admit::kReject;
      case serve::OpKind::kUpsert:
      case serve::OpKind::kErase:
      case serve::OpKind::kSnapshotCreate:  // answered by the wire server,
      case serve::OpKind::kSnapshotScan:    // never inside a round
        return Admit::kReject;
    }
    return Admit::kReject;
  }

  /// Grows the edge table for the batch's writes. The pump skips this
  /// while a snapshot cut is held, so a workload that checkpoints under
  /// load sizes the table up front (TableConfig::expected_keys).
  void reserve(std::span<const Part> parts) {
    std::uint64_t writes = 0;
    for (const Part& part : parts) writes += part.writes;
    graph_.maybe_grow_for_backlog(writes, exec_threads());
  }

  /// Connectivity queries and edge-weight lookups against the committed
  /// pre-round state.
  void read_pass(std::size_t, std::span<const Record> window, round_t r) {
    for (const Record& rec : window) {
      if (classify(rec.op) != Admit::kRead) continue;
      std::uint64_t value = 0;
      bool hit = true;
      switch (rec.op.kind) {
        case serve::OpKind::kLookup: {
          const std::uint64_t* v = graph_.find_key(rec.op.key);
          hit = v != nullptr;
          value = hit ? *v : 0;
          break;
        }
        case serve::OpKind::kSameComponent:
          value = cc_.same_component(static_cast<std::uint32_t>(rec.op.key),
                                     static_cast<std::uint32_t>(rec.op.value))
                      ? 1
                      : 0;
          break;
        default:  // kComponentSize
          value = cc_.component_size(static_cast<std::uint32_t>(rec.op.key));
          break;
      }
      rec.future->publish(serve::Result{value, hit, r});
    }
  }

  /// Round-arbitrated edge writes, forest hooks for fresh inserts,
  /// endpoint capture for killed edges.
  void write_pass(std::size_t s, std::span<const Record> window, round_t r, Tally& tally) {
    Stripe& stripe = stripes_[s];
    stripe.deleted.clear();
    stripe.hooks = 0;
    for (const Record& rec : window) {
      if (classify(rec.op) != Admit::kWrite) continue;
      const ds::EdgeKey e = ds::unpack_edge(rec.op.key);
      const bool was_live = graph_.has_edge(e.u, e.v);
      if (rec.op.kind == serve::OpKind::kEdgeInsert) {
        switch (graph_.insert(r, e.u, e.v, rec.op.value)) {
          case ds::MapUpsert::kWon:
            ++tally.wins;
            if (!was_live && cc_.link(e.u, e.v)) ++stripe.hooks;
            rec.future->publish(serve::Result{rec.op.value, true, r});
            break;
          case ds::MapUpsert::kLost: {
            const std::uint64_t* v = graph_.find(e.u, e.v);
            rec.future->publish(serve::Result{v != nullptr ? *v : 0, false, r});
            break;
          }
          case ds::MapUpsert::kFull:
            tally.full = true;
            rec.future->publish(serve::Result{0, false, r});  // refused
            break;
        }
      } else {  // kEdgeErase
        const bool won = graph_.erase(r, e.u, e.v) == ds::MapUpsert::kWon;
        if (won) {
          ++tally.wins;
          if (was_live) {
            stripe.deleted.push_back(e.u);
            stripe.deleted.push_back(e.v);
          }
        }
        rec.future->publish(serve::Result{0, won, r});
      }
    }
  }

  /// Deletions batched by the write pass take the bounded fallback —
  /// rebuild the affected components from live edges — then one
  /// compaction sweep refreshes paths and sizes for the next round.
  void end_round(std::span<const Part>) {
    std::uint64_t hooks = 0;
    touched_.clear();
    for (const Stripe& stripe : stripes_) {
      hooks += stripe.hooks;
      touched_.insert(touched_.end(), stripe.deleted.begin(), stripe.deleted.end());
    }
    if (!touched_.empty()) {
      cc_.rebuild(
          touched_,
          [this](auto&& fn) {
            graph_.for_each_edge(
                [&fn](std::uint32_t u, std::uint32_t v, std::uint64_t) { fn(u, v); });
          },
          exec_threads());
    }
    if (hooks != 0 || !touched_.empty()) cc_.compact(exec_threads());
    cc_.flush_round();
    graph_.table().flush_round();
  }

  void end_batch() {
    if (graph_.maybe_reclaim(exec_threads())) {
      reclaims_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint64_t live_keys() const noexcept { return graph_.edges(); }

  DynamicGraph graph_;
  IncrementalCc cc_;
  std::vector<Stripe> stripes_;
  std::vector<std::uint32_t> touched_;  // end_round scratch (pump-private)
  std::atomic<std::uint64_t> reclaims_{0};
};

}  // namespace crcw::stream
