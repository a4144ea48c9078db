// The round pump shared by every serving backend (flat = one shard,
// sharded, stream): the quiet admission trigger, refusals instead of a
// wedged pump when a held snapshot cut leaves a table full, and
// differential checks across team sizes — exact on one part, which never
// forks, and up to the arbitrary winner of a contested write on four
// shards, whose big rounds fork the OpenMP team.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "ds/hash_common.hpp"
#include "serve/serve_session.hpp"
#include "snap/cut.hpp"
#include "stream/stream_scheduler.hpp"

namespace crcw::serve {
namespace {

// -- backends ----------------------------------------------------------------
// Each names a session shape, a base config, and a write/read pair over
// op index i (distinct i = distinct key).

struct Flat {
  using Session = ServeSession;
  static ServeConfig config() { return ServeConfig{}; }
  static Op write(std::uint64_t i, std::uint64_t v) { return Op::upsert(i + 1, v); }
  static Op read(std::uint64_t i) { return Op::lookup(i + 1); }
};

struct Sharded {
  using Session = ShardedServeSession;
  static ServeConfig config() { return ServeConfig{}.with_shards(4); }
  static Op write(std::uint64_t i, std::uint64_t v) { return Op::upsert(i + 1, v); }
  static Op read(std::uint64_t i) { return Op::lookup(i + 1); }
};

struct Stream {
  using Session = BasicServeSession<stream::StreamScheduler>;
  static constexpr std::uint32_t kVertices = 1 << 13;
  static ServeConfig config() { return ServeConfig{}.with_vertices(kVertices); }
  static Op write(std::uint64_t i, std::uint64_t v) {
    return Op::edge_insert(0, static_cast<std::uint32_t>(i + 1), v);
  }
  static Op read(std::uint64_t i) {
    return Op::lookup(ds::pack_edge(0, static_cast<std::uint32_t>(i + 1)));
  }
};

template <typename B>
class Pump : public testing::Test {};
using Backends = testing::Types<Flat, Sharded, Stream>;
TYPED_TEST_SUITE(Pump, Backends);

// -- quiet trigger -------------------------------------------------------------

TYPED_TEST(Pump, SecondIdlePollClosesBatch) {
  ServeConfig cfg = TypeParam::config();
  cfg.batch.max_batch = 1 << 20;       // size trigger unreachable
  cfg.batch.max_wait_us = 1'000'000;  // deadline effectively off
  typename TypeParam::Session session(cfg);

  std::vector<OpFuture> futures(8);
  for (std::uint64_t i = 0; i < futures.size(); ++i) {
    session.submit(TypeParam::write(i, 10 + i), futures[i]);
  }
  EXPECT_FALSE(session.poll());  // sees the ops arrive
  EXPECT_TRUE(session.poll());   // nothing admitted since: quiet
  for (const OpFuture& f : futures) {
    ASSERT_TRUE(f.ready());
    EXPECT_TRUE(f.result().won);
  }
  EXPECT_EQ(session.stats().batches, 1u);
  EXPECT_EQ(session.stats().deadline_batches, 0u);
}

TYPED_TEST(Pump, EnqueueBetweenPollsDefersClose) {
  ServeConfig cfg = TypeParam::config();
  cfg.batch.max_batch = 1 << 20;
  cfg.batch.max_wait_us = 1'000'000;
  typename TypeParam::Session session(cfg);

  std::vector<OpFuture> futures(8);
  for (std::uint64_t i = 0; i + 1 < futures.size(); ++i) {
    session.submit(TypeParam::write(i, 10 + i), futures[i]);
  }
  EXPECT_FALSE(session.poll());
  session.submit(TypeParam::write(futures.size() - 1, 99), futures.back());
  EXPECT_FALSE(session.poll());  // admission moved since the last check
  EXPECT_FALSE(futures.front().ready());
  EXPECT_TRUE(session.poll());  // now quiet: one batch holds all eight
  for (const OpFuture& f : futures) EXPECT_TRUE(f.ready());
  EXPECT_EQ(session.stats().batches, 1u);
  EXPECT_EQ(session.stats().ops_served, futures.size());
  EXPECT_EQ(session.stats().deadline_batches, 0u);
}

// -- held cut + full table -----------------------------------------------------

TYPED_TEST(Pump, HeldCutOverfillRefusesThenRecovers) {
  // A 16-key table and a held cut: grow is parked, so an overfill must be
  // refused op by op (won false, value 0) — one op per call, and in one
  // round of kInlineRoundOps writes (the team path on four shards) — and
  // every later call() must still return.
  const ServeConfig cfg = TypeParam::config().with_expected_keys(16).with_exec_threads(4);
  typename TypeParam::Session session(cfg);
  using Backend = std::remove_reference_t<decltype(session.backend())>;
  std::optional<snap::HeldCut<Backend>> cut;
  cut.emplace(session.backend());

  constexpr std::uint64_t kCalls = 256;
  std::uint64_t refused_key = 0;
  std::size_t refused = 0;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    const Result r = session.call(TypeParam::write(i, 1000 + i));
    if (!r.won) {
      EXPECT_EQ(r.value, 0u) << "op " << i;
      refused_key = i;
      ++refused;
    }
  }
  EXPECT_GT(refused, 0u);

  std::vector<OpFuture> futures(kInlineRoundOps);
  for (std::uint64_t i = 0; i < futures.size(); ++i) {
    session.submit(TypeParam::write(kCalls + i, 1), futures[i]);
  }
  session.flush();
  std::size_t batch_refused = 0;
  for (const OpFuture& f : futures) {
    ASSERT_TRUE(f.ready());
    if (!f.result().won) {
      EXPECT_EQ(f.result().value, 0u);
      ++batch_refused;
    }
  }
  EXPECT_GT(batch_refused, 0u);

  // The pump is not wedged: later calls return, and a refused write left
  // nothing behind.
  const Result miss = session.call(TypeParam::read(refused_key));
  EXPECT_FALSE(miss.won);
  EXPECT_EQ(miss.value, 0u);
  EXPECT_EQ(session.stats().keys, kCalls - refused + futures.size() - batch_refused);

  // Releasing the cut lets the next round grow: writes win again.
  cut.reset();
  const Result again = session.call(TypeParam::write(refused_key, 7));
  EXPECT_TRUE(again.won);
  EXPECT_EQ(again.value, 7u);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(session.call(TypeParam::write(kCalls + i, 2)).won) << "op " << i;
  }
}

// -- inline rounds vs the OpenMP team --------------------------------------------

/// One seeded stream of upserts, erases and lookups. Hot keys collide
/// within rounds; cold keys are written at most once per window (so never
/// with a same-key rival in their round), and lookups read cold keys
/// only, so their answers do not depend on which hot write won.
struct Mixed {
  std::vector<Op> ops;
  std::size_t window;
};

[[nodiscard]] Mixed mixed_stream(std::uint64_t seed, std::size_t window, std::size_t windows) {
  constexpr std::uint64_t kHot = 8;
  constexpr std::uint64_t kCold = 1 << 14;
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> written(kCold, ~std::size_t{0});  // last window per cold key
  Mixed m{{}, window};
  for (std::size_t w = 0; w < windows; ++w) {
    for (std::size_t i = 0; i < window; ++i) {
      const std::uint64_t value = m.ops.size() + 1;  // unique per op
      const std::uint64_t dice = rng() % 10;
      if (dice < 2) {  // hot write
        const std::uint64_t key = 1 + rng() % kHot;
        m.ops.push_back(rng() % 4 == 0 ? Op::erase(key) : Op::upsert(key, value));
        continue;
      }
      const std::uint64_t c = rng() % kCold;
      const std::uint64_t key = 100 + c;
      if (dice < 5 && written[c] != w) {  // cold write, first of this window
        written[c] = w;
        m.ops.push_back(rng() % 5 == 0 ? Op::erase(key) : Op::upsert(key, value));
      } else {
        m.ops.push_back(Op::lookup(key));
      }
    }
  }
  return m;
}

template <typename Session>
[[nodiscard]] std::vector<Result> run_mixed(const ServeConfig& cfg, const Mixed& m) {
  Session session(cfg);
  std::vector<Result> out;
  out.reserve(m.ops.size());
  std::vector<OpFuture> futures(m.window);
  for (std::size_t base = 0; base < m.ops.size(); base += m.window) {
    for (std::size_t i = 0; i < m.window; ++i) session.submit(m.ops[base + i], futures[i]);
    session.flush();
    for (const OpFuture& f : futures) {
      EXPECT_TRUE(f.ready());
      out.push_back(f.result());
    }
  }
  return out;
}

using KeyRound = std::pair<std::uint64_t, round_t>;

/// One run's write ops, grouped by the (key, round) they arbitrated in.
[[nodiscard]] std::map<KeyRound, std::vector<std::size_t>> write_groups(
    const Mixed& m, const std::vector<Result>& res) {
  std::map<KeyRound, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < m.ops.size(); ++i) {
    if (m.ops[i].kind != OpKind::kLookup) groups[{m.ops[i].key, res[i].round}].push_back(i);
  }
  return groups;
}

/// The round contract on one run: each written (key, round) has exactly
/// one winner, and every write of it reports the winner's value.
void expect_one_winner_per_key_round(const Mixed& m, const std::vector<Result>& res,
                                     const char* run) {
  for (const auto& [key_round, idx] : write_groups(m, res)) {
    std::size_t winners = 0;
    std::uint64_t value = 0;
    for (const std::size_t i : idx) {
      if (res[i].won) {
        ++winners;
        value = res[i].value;
      }
    }
    ASSERT_EQ(winners, 1u) << run << ": key " << key_round.first << " round "
                           << key_round.second;
    for (const std::size_t i : idx) {
      EXPECT_EQ(res[i].value, value) << run << ": op " << i << " missed its winner";
    }
  }
}

template <typename Session>
void differential(ServeConfig base) {
  // Round sizes below and above kInlineRoundOps; rounds are max_batch per
  // shard, so the small case stays below the threshold on 4 shards too.
  for (const std::uint64_t max_batch : {kInlineRoundOps / 16, 2 * kInlineRoundOps}) {
    SCOPED_TRACE(testing::Message() << "max_batch " << max_batch);
    const Mixed m = mixed_stream(0xC0FFEE + max_batch, 4 * max_batch, 3);
    base.batch.max_batch = max_batch;
    base.batch.max_wait_us = 1'000'000;
    // A team of 4, not the default size: on a one-core runner the default
    // team is one thread and would never fork.
    const std::vector<Result> serial = run_mixed<Session>(base.with_exec_threads(1), m);
    const std::vector<Result> team = run_mixed<Session>(base.with_exec_threads(4), m);
    ASSERT_EQ(serial.size(), m.ops.size());
    ASSERT_EQ(team.size(), m.ops.size());
    expect_one_winner_per_key_round(m, serial, "serial");
    expect_one_winner_per_key_round(m, team, "team");

    const auto groups = write_groups(m, serial);
    std::size_t compared = 0;
    for (std::size_t i = 0; i < m.ops.size(); ++i) {
      EXPECT_EQ(serial[i].round, team[i].round) << "op " << i;
      const bool contested = m.ops[i].kind != OpKind::kLookup &&
                             groups.at({m.ops[i].key, serial[i].round}).size() > 1;
      if (contested) continue;
      EXPECT_EQ(serial[i].value, team[i].value) << "op " << i;
      EXPECT_EQ(serial[i].won, team[i].won) << "op " << i;
      ++compared;
    }
    EXPECT_GT(compared, m.ops.size() / 2);
    EXPECT_LT(compared, m.ops.size());  // the stream did collide
  }
}

TEST(PumpInline, OnePartIsDeterministicAtAnyTeamSize) {
  // One shard is one part, and a team over one part has one worker, so
  // the pump never forks: every op — contested writes included — returns
  // the same (value, won, round) whatever exec_threads says.
  for (const std::uint64_t max_batch : {kInlineRoundOps / 16, 2 * kInlineRoundOps}) {
    SCOPED_TRACE(testing::Message() << "max_batch " << max_batch);
    const Mixed m = mixed_stream(0xC0FFEE + max_batch, 4 * max_batch, 3);
    const ServeConfig base =
        ServeConfig{}.with_max_batch(max_batch).with_max_wait_us(1'000'000);
    const std::vector<Result> serial = run_mixed<ServeSession>(base.with_exec_threads(1), m);
    const std::vector<Result> team = run_mixed<ServeSession>(base.with_exec_threads(4), m);
    ASSERT_EQ(serial.size(), m.ops.size());
    ASSERT_EQ(team.size(), m.ops.size());
    expect_one_winner_per_key_round(m, serial, "serial");
    expect_one_winner_per_key_round(m, team, "team");

    const auto groups = write_groups(m, serial);
    std::size_t contested = 0;
    std::size_t mismatched = 0;
    std::size_t first_mismatch = 0;
    for (std::size_t i = 0; i < m.ops.size(); ++i) {
      if (m.ops[i].kind != OpKind::kLookup &&
          groups.at({m.ops[i].key, serial[i].round}).size() > 1) {
        ++contested;
      }
      const bool same = serial[i].value == team[i].value && serial[i].won == team[i].won &&
                        serial[i].round == team[i].round;
      if (!same && mismatched++ == 0) first_mismatch = i;
    }
    EXPECT_GT(contested, 0u);  // the stream did collide
    EXPECT_EQ(mismatched, 0u) << "first at op " << first_mismatch;
  }
}

TEST(PumpInline, ShardedInlineRoundsMatchTheTeam) {
  differential<ShardedServeSession>(ServeConfig{}.with_shards(4));
}

}  // namespace
}  // namespace crcw::serve
