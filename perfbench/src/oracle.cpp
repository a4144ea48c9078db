#include "oracle.hpp"

#include <algorithm>
#include <tuple>

namespace pb {

namespace {

std::string where(std::uint32_t key_idx, std::uint64_t round) {
  return " (key index " + std::to_string(key_idx) + ", round " + std::to_string(round) + ")";
}

}  // namespace

std::string check_write_epoch(std::vector<WriteRecord>& epoch, IngestState& state) {
  std::sort(epoch.begin(), epoch.end(), [](const WriteRecord& a, const WriteRecord& b) {
    return std::tie(a.key_idx, a.round) < std::tie(b.key_idx, b.round);
  });
  std::size_t i = 0;
  while (i < epoch.size()) {
    const std::uint32_t key = epoch[i].key_idx;
    const std::uint32_t round = epoch[i].round;
    std::size_t j = i;
    while (j < epoch.size() && epoch[j].key_idx == key && epoch[j].round == round) ++j;
    if (key >= state.keys()) return "write history names an unknown key" + where(key, round);
    if (round <= state.last_round_[key]) {
      return "round not later than an already-checked round of the key" + where(key, round);
    }
    const WriteRecord* winner = nullptr;
    for (std::size_t k = i; k < j; ++k) {
      if (!epoch[k].won) continue;
      if (winner != nullptr) return "two writes won one (key, round)" + where(key, round);
      winner = &epoch[k];
    }
    if (winner == nullptr) return "no write won its (key, round)" + where(key, round);
    const std::uint64_t committed = winner->erase ? 0 : winner->submitted;
    for (std::size_t k = i; k < j; ++k) {
      if (epoch[k].reported != committed) {
        return std::string(epoch[k].won ? "winner" : "loser") +
               " reported a value other than the committed one" + where(key, round);
      }
    }
    state.expected_[key] = committed;
    state.last_round_[key] = round;
    i = j;
  }
  return {};
}

std::string check_final_state(
    const IngestState& state,
    const std::function<std::optional<std::uint64_t>(std::size_t)>& committed) {
  for (std::size_t k = 0; k < state.keys(); ++k) {
    const std::optional<std::uint64_t> v = committed(k);
    const std::uint64_t want = state.expected(k);
    if (want == 0 && v.has_value()) {
      return "key committed although its last winning round erased it (or never wrote it)" +
             where(static_cast<std::uint32_t>(k), state.last_round(k));
    }
    if (want != 0 && (!v.has_value() || *v != want)) {
      return "committed value differs from the key's last winning round" +
             where(static_cast<std::uint32_t>(k), state.last_round(k));
    }
  }
  return {};
}

std::string RywAudit::check_lookup(std::uint32_t key_idx, std::uint64_t round,
                                   std::uint64_t bound_at_issue, bool found,
                                   std::uint64_t value) {
  if (round <= bound_at_issue) {
    return "lookup executed in round " + std::to_string(round) +
           ", not after the client's acknowledged write round " +
           std::to_string(bound_at_issue) + where(key_idx, round);
  }
  if (found && !value_matches_key(value, key_idx)) {
    return "lookup returned a value no write of this key produced" + where(key_idx, round);
  }
  if (!found && value != 0) return "missed lookup carried a value" + where(key_idx, round);
  return {};
}

void ValueLedger::note_upsert(std::uint32_t key_idx, std::uint64_t round,
                              std::uint64_t committed) {
  if (round < round_[key_idx]) return;
  value_[key_idx] = committed;
  round_[key_idx] = round;
}

std::string ValueLedger::check_lookup(std::uint32_t key_idx, bool found, std::uint64_t value,
                                      std::uint64_t expected, bool raced,
                                      std::uint32_t window_floor) {
  const std::uint64_t seen = found ? value : 0;
  if (seen == expected) return {};
  if (raced && found && value_matches_key(value, key_idx) && value_tag(value) > window_floor) {
    return {};
  }
  return "lookup of key index " + std::to_string(key_idx) + " returned " +
         std::to_string(seen) + ", the client's last acknowledged write left " +
         std::to_string(expected);
}

std::string ValueLedger::check_upsert(std::uint32_t key_idx, std::uint64_t own, bool won,
                                      std::uint64_t value, std::uint32_t window_floor) {
  if (won) {
    return value == own ? std::string{} : "winning upsert reported another value";
  }
  if (value_matches_key(value, key_idx) && value_tag(value) > window_floor && value != own) {
    return {};
  }
  return "losing upsert of key index " + std::to_string(key_idx) +
         " reported a value no upsert of its window wrote";
}

std::string check_labels(std::span<const std::uint32_t> canonical,
                         std::span<const std::uint32_t> reference) {
  if (canonical.size() != reference.size()) return "label count differs from the reference";
  for (std::size_t v = 0; v < canonical.size(); ++v) {
    if (canonical[v] != reference[v]) {
      return "vertex " + std::to_string(v) + " labelled " + std::to_string(canonical[v]) +
             ", reference " + std::to_string(reference[v]);
    }
  }
  return {};
}

}  // namespace pb
