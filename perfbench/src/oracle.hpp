// Correctness oracles of the benchmark. Each takes a recorded history (or
// label set) and returns the first violation as text, or an empty string.
// They are pure functions over plain records so the benchmark's tests can
// feed them deliberately corrupted histories.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace pb {

// -- values ------------------------------------------------------------------

/// Upsert values embed their key index, so any committed value a lookup
/// returns can be traced to a write of that same key, and the writing
/// client's tag (a per-client sequence number starting at 1), so each
/// value is unique. Never 0 (0 is the oracle's "absent"): tag must be > 0.
[[nodiscard]] constexpr std::uint64_t encode_value(std::uint32_t key_idx,
                                                   std::uint32_t tag) noexcept {
  return (static_cast<std::uint64_t>(key_idx) << 32) | tag;
}
[[nodiscard]] constexpr std::uint32_t value_tag(std::uint64_t value) noexcept {
  return static_cast<std::uint32_t>(value & 0xffffffffu);
}
[[nodiscard]] constexpr bool value_matches_key(std::uint64_t value,
                                               std::uint32_t key_idx) noexcept {
  return (value >> 32) == key_idx && value_tag(value) != 0;
}

// -- kv-ingest: the round contract over a full write history ----------------

/// One completed write of kv-ingest, as the producer observed it.
struct WriteRecord {
  std::uint32_t key_idx = 0;
  std::uint32_t round = 0;
  std::uint64_t reported = 0;   ///< Result::value the op returned
  std::uint64_t submitted = 0;  ///< the upsert's own value (0 for an erase)
  bool erase = false;
  bool won = false;
};

/// What the oracle knows per key: the outcome of the key's last winning
/// round (0 = absent/erased) and that round, so a (key, round) group can
/// never be split across two checked epochs.
class IngestState {
 public:
  explicit IngestState(std::size_t keys) : expected_(keys, 0), last_round_(keys, 0) {}
  [[nodiscard]] std::size_t keys() const noexcept { return expected_.size(); }
  [[nodiscard]] std::uint64_t expected(std::size_t k) const { return expected_[k]; }
  [[nodiscard]] std::uint32_t last_round(std::size_t k) const { return last_round_[k]; }

 private:
  friend std::string check_write_epoch(std::vector<WriteRecord>& epoch, IngestState& state);
  std::vector<std::uint64_t> expected_;
  std::vector<std::uint32_t> last_round_;
};

/// Checks one epoch of writes — every op whose round closed before the
/// epoch ended (the producers drain their windows at each epoch boundary,
/// so no round straddles two epochs). Per (key, round): exactly one op
/// won, and every op of the group, winner and losers, reports the
/// committed outcome (the winning upsert's value, or 0 if an erase won).
/// Folds each key's last winning outcome into `state`. Sorts `epoch`.
std::string check_write_epoch(std::vector<WriteRecord>& epoch, IngestState& state);

/// After the run: the committed value of every key equals the outcome of
/// its last winning round. `committed(k)` returns the table's value for
/// key index k, or nullopt when absent.
std::string check_final_state(
    const IngestState& state,
    const std::function<std::optional<std::uint64_t>(std::size_t)>& committed);

// -- kv-mixed / kv-wire: read-your-writes per shard ---------------------------

/// Tracks one client's last acknowledged write round per shard. A lookup
/// must execute in a round strictly later than every write of the same
/// client on that shard acknowledged before the lookup was issued.
class RywAudit {
 public:
  explicit RywAudit(int shards) : last_write_(static_cast<std::size_t>(shards), 0) {}
  /// The bound a lookup issued now must beat.
  [[nodiscard]] std::uint64_t bound(int shard) const {
    return last_write_[static_cast<std::size_t>(shard)];
  }
  void note_write(int shard, std::uint64_t round) {
    auto& w = last_write_[static_cast<std::size_t>(shard)];
    if (round > w) w = round;
  }
  /// Checks one lookup: `bound_at_issue` is bound(shard) when it was
  /// issued; a found value must embed the key it was read under.
  static std::string check_lookup(std::uint32_t key_idx, std::uint64_t round,
                                  std::uint64_t bound_at_issue, bool found,
                                  std::uint64_t value);

 private:
  std::vector<std::uint64_t> last_write_;
};

// -- kv-mixed: exact values of a single client --------------------------------

/// kv-mixed has one client, so it knows every value the table holds: per
/// key, the committed outcome of the latest round in which one of its
/// acknowledged upserts ran (0 = never written). The client runs windows:
/// it submits every op of a window, then waits for them in order, so the
/// ops of earlier windows have all closed when a window is issued. A
/// lookup must return exactly the value the ledger held when it was
/// issued — unless an upsert of the same key was issued in the same
/// window (the lookup is `raced`); that upsert may run before it, so a
/// value of this window (tag above `window_floor`, the client's last tag
/// before the window) also passes.
class ValueLedger {
 public:
  explicit ValueLedger(std::size_t keys) : value_(keys, 0), round_(keys, 0) {}
  [[nodiscard]] std::size_t keys() const noexcept { return value_.size(); }
  [[nodiscard]] std::uint64_t expected(std::size_t k) const { return value_[k]; }

  /// Folds an acknowledged upsert whose round `round` committed
  /// `committed` for the key.
  void note_upsert(std::uint32_t key_idx, std::uint64_t round, std::uint64_t committed);

  /// Checks one lookup; `expected` is expected(key_idx) when it was issued.
  static std::string check_lookup(std::uint32_t key_idx, bool found, std::uint64_t value,
                                  std::uint64_t expected, bool raced,
                                  std::uint32_t window_floor);

  /// Checks one upsert: a winner reports its own value `own`; a loser the
  /// value of the upsert of its key that won the round, which can only be
  /// another upsert of the same window. A refusal (not won, value 0) is
  /// not checked here: the caller counts it as a failed op.
  static std::string check_upsert(std::uint32_t key_idx, std::uint64_t own, bool won,
                                  std::uint64_t value, std::uint32_t window_floor);

 private:
  std::vector<std::uint64_t> value_;
  std::vector<std::uint64_t> round_;
};

/// A refused upsert: the program answered without running it.
[[nodiscard]] constexpr bool refused(bool won, std::uint64_t value) noexcept {
  return !won && value == 0;
}

// -- pram-cc -------------------------------------------------------------------

/// Canonicalised labels must equal the reference exactly.
std::string check_labels(std::span<const std::uint32_t> canonical,
                         std::span<const std::uint32_t> reference);

}  // namespace pb
