// ShardedScheduler — the key-value ServiceBackend: N ConcurrentHashMap
// shards behind one logical CRCW round. With the default shards.count == 1
// it is the flat single-table backend ServeSession names.
//
// It is the KV executor of RoundPump (round_pump.hpp), which owns the
// trigger, the drain, routing, slicing, the arbiter, snapshot cuts and the
// inline-or-team rule; a part of the pump is one shard here. This file
// supplies only the KV-specific steps of a round:
//
//   classify     the sentinel key, stream-vocabulary ops and snapshot kinds
//                are rejected (the table would throw on the sentinel; the
//                wire server answers snapshot kinds outside any round)
//   reserve      per-shard backlog-sized grow, so a write pass cannot find
//                its shard full unless a held cut parked the grow
//   read pass    committed-read lookups (rounds < r)
//   write pass   upserts and erases race the bucket's one CAS-LT at round r
//                and publish at once — a loser re-reads the winner's value
//   end_round    per-shard contention counters and table telemetry
//   end_batch    each shard independently checks its tombstone watermark and
//                probe telemetry and rebuilds itself — a churn-heavy shard
//                shrinks while a hot one grows, no global stop-the-world
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ds/concurrent_hash_map.hpp"
#include "ds/hash_common.hpp"
#include "obs/metrics.hpp"
#include "serve/config.hpp"
#include "serve/op.hpp"
#include "serve/request_queue.hpp"
#include "serve/round_pump.hpp"
#include "serve/serve_metrics.hpp"
#include "snap/snapshot_file.hpp"

namespace crcw::serve {

class ShardedScheduler : public RoundPump<ShardedScheduler> {
 public:
  /// Payload is the bare value: liveness lives in the table itself (the
  /// bucket's LiveTag), so an erase is a real table erase racing same-round
  /// upserts on one CAS.
  using Table = ds::ConcurrentHashMap<std::uint64_t, std::uint64_t>;

  ShardedScheduler(const ServeConfig& cfg, RequestQueue& queue, ServeMetrics& metrics)
      : RoundPump(cfg, queue, metrics) {
    const ServeConfig& v = config();
    const int count = v.shards.count;
    const std::uint64_t per_shard_keys =
        std::max<std::uint64_t>(1, v.table.expected_keys / static_cast<std::uint64_t>(count));
    shards_.reserve(static_cast<std::size_t>(count));
    for (int s = 0; s < count; ++s) {
      const std::string suffix = s == 0 ? "" : "-s" + std::to_string(s);
      shards_.push_back(
          std::make_unique<Shard>(per_shard_keys, v.table.hash_config("serve-table" + suffix)));
      if (v.batch.counters) {
        shards_.back()->site =
            std::make_unique<obs::ContentionSite>("serve-shard-" + std::to_string(s));
      }
    }
  }

  // -- committed state (serial / quiescent-pump reads) ----------------------
  /// The committed value for `key`, or nullptr if absent or erased.
  [[nodiscard]] const std::uint64_t* committed_read(std::uint64_t key) const noexcept {
    return table(static_cast<std::size_t>(shard_of(key))).find(key);
  }
  [[nodiscard]] const Table& shard_table(int s) const {
    return table(static_cast<std::size_t>(s));
  }

  // -- snapshots (src/snap): cut-predicated scans, restore ------------------
  static constexpr std::uint32_t kSnapshotKind = snap::kKindKv;

  [[nodiscard]] std::uint32_t snapshot_shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Backend shape baked into snapshot headers; restore refuses files from
  /// a differently-sharded server (shard_of would route keys elsewhere).
  [[nodiscard]] std::uint64_t config_digest() const noexcept {
    return ds::mix64(kSnapshotKind + 1) ^ ds::mix64(shards_.size());
  }

  /// Cut-predicated scan of shard s; fn(key, value, round). Safe
  /// concurrently with later rounds while the cut is held.
  template <typename Fn>
  void scan_shard_at(std::uint32_t s, round_t cut_round, Fn&& fn) const {
    table(s).for_each_at(cut_round, std::forward<Fn>(fn));
  }

  /// Serial restore of one snapshot entry into shard s (before serving
  /// starts). Refuses keys the router would place on a different shard.
  bool restore_entry(std::uint32_t s, std::uint64_t key, std::uint64_t value,
                     round_t round) {
    if (static_cast<int>(s) != shard_of(key)) return false;
    return table(s).restore_slot(key, value, round);
  }

 private:
  friend class RoundPump<ShardedScheduler>;

  struct Shard {
    Shard(std::uint64_t expected_keys, ds::HashConfig hc)
        : table(expected_keys, std::move(hc)) {}

    Table table;
    std::unique_ptr<obs::ContentionSite> site;
  };

  [[nodiscard]] Table& table(std::size_t s) noexcept { return shards_[s]->table; }
  [[nodiscard]] const Table& table(std::size_t s) const noexcept { return shards_[s]->table; }

  [[nodiscard]] static Admit classify(const Op& op) noexcept {
    if (op.key == Table::kEmptyKey || is_stream_op(op.kind) || is_snapshot_op(op.kind)) {
      return Admit::kReject;
    }
    return op.kind == OpKind::kLookup ? Admit::kRead : Admit::kWrite;
  }

  void reserve(std::span<const Part> parts) {
    for (std::size_t s = 0; s < parts.size(); ++s) {
      if (parts[s].ops != 0) table(s).maybe_grow_for_backlog(parts[s].writes, exec_threads());
    }
  }

  void read_pass(std::size_t s, std::span<const Record> window, round_t r) {
    const Table& t = table(s);
    for (const Record& rec : window) {
      if (classify(rec.op) != Admit::kRead) continue;
      const std::uint64_t* v = t.find(rec.op.key);
      rec.future->publish(Result{v != nullptr ? *v : 0, v != nullptr, r});
    }
  }

  void write_pass(std::size_t s, std::span<const Record> window, round_t r, Tally& tally) {
    Table& t = table(s);
    for (const Record& rec : window) {
      if (classify(rec.op) != Admit::kWrite) continue;
      const bool is_erase = rec.op.kind == OpKind::kErase;
      const ds::MapUpsert outcome =
          is_erase ? t.erase(r, rec.op.key) : t.upsert(r, rec.op.key, rec.op.value);
      switch (outcome) {
        case ds::MapUpsert::kWon:
          ++tally.wins;
          rec.future->publish(Result{is_erase ? 0 : rec.op.value, true, r});
          break;
        case ds::MapUpsert::kLost: {
          const std::uint64_t* v = t.find(rec.op.key);
          rec.future->publish(Result{v != nullptr ? *v : 0, false, r});
          break;
        }
        case ds::MapUpsert::kFull:
          tally.full = true;
          rec.future->publish(Result{0, false, r});  // refused
          break;
      }
    }
  }

  void end_round(std::span<const Part> parts) {
    for (std::size_t s = 0; s < parts.size(); ++s) {
      Shard& shard = *shards_[s];
      if (shard.site) {
        if (parts[s].ops != 0) shard.site->add_attempts(parts[s].ops);
        if (parts[s].tally.wins != 0) shard.site->add_wins(parts[s].tally.wins);
        shard.site->flush_round();
      }
      shard.table.flush_round();
    }
  }

  void end_batch() {
    for (const auto& shard : shards_) {
      (void)shard->table.maybe_reclaim_parallel(exec_threads());
    }
  }

  [[nodiscard]] std::uint64_t live_keys() const noexcept {
    std::uint64_t keys = 0;
    for (const auto& shard : shards_) keys += shard->table.size();
    return keys;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace crcw::serve
