// Control-byte sidecar probing (ctest label ds): the H2 fingerprint slice,
// the filter-with-verify group walk, the write-once control byte across
// erase/revive/reclaim, the masked walk of sub-group tables, and the walk's
// placement checked against a serial linear-probing model. The sidecar is
// only ever a FILTER — these tests pin that discipline by cross-checking
// every walk answer against the model and the authoritative bucket words.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "ds/concurrent_hash_map.hpp"
#include "ds/concurrent_hash_set.hpp"
#include "ds/hash_common.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace crcw::ds {
namespace {

using Map = ConcurrentHashMap<std::uint64_t, std::uint64_t>;
using Set = ConcurrentHashSet<>;

constexpr std::uint64_t kNone = ~std::uint64_t{0};

HashConfig probing(bool telemetry = false) {
  HashConfig cfg;
  cfg.telemetry = telemetry;
  cfg.site_name = "probe-test";
  return cfg;
}

/// Serial linear-probing model of one open table, the reference the group
/// walk is checked against: the same mix64 home, a claim on the earliest
/// free bucket in probe order, keys that keep their buckets (live or dead)
/// until a rebuild, and a rebuild that re-inserts the live entries in old
/// bucket order (what a one-thread migration sweep does).
class ReferenceTable {
 public:
  explicit ReferenceTable(std::uint64_t buckets) : slots_(buckets) {}

  /// The key's bucket (live or dead), or kNone.
  [[nodiscard]] std::uint64_t find(std::uint64_t key) const {
    const std::uint64_t b = walk(key);
    return b != kNone && slots_[b].key == key ? b : kNone;
  }

  // Set semantics.
  SetInsert insert(std::uint64_t key) {
    bool fresh = false;
    Slot* s = claim(key, fresh);
    if (s == nullptr) return SetInsert::kFull;
    if (!fresh && s->live) return SetInsert::kFound;
    s->live = true;
    return SetInsert::kInserted;
  }
  bool erase(std::uint64_t key) {
    const std::uint64_t b = find(key);
    if (b == kNone || !slots_[b].live) return false;
    slots_[b].live = false;
    return true;
  }
  [[nodiscard]] bool contains(std::uint64_t key) const {
    const std::uint64_t b = find(key);
    return b != kNone && slots_[b].live;
  }

  // Map semantics: one winner per (key, round) across upserts and erases.
  MapUpsert write(round_t round, std::uint64_t key, bool live, std::uint64_t value) {
    bool fresh = false;
    Slot* s = claim(key, fresh);
    if (s == nullptr) return MapUpsert::kFull;
    if (s->round >= round) return MapUpsert::kLost;
    s->round = round;
    s->live = live;
    if (live) s->value = value;
    return MapUpsert::kWon;
  }
  [[nodiscard]] const std::uint64_t* value(std::uint64_t key) const {
    const std::uint64_t b = find(key);
    return b != kNone && slots_[b].live ? &slots_[b].value : nullptr;
  }

  /// Drops the dead entries into a fresh array of `buckets`.
  void rebuild(std::uint64_t buckets) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(buckets));
    for (const Slot& s : old) {
      if (s.key == kNone || !s.live) continue;
      bool fresh = false;
      *claim(s.key, fresh) = s;
    }
  }

  [[nodiscard]] std::uint64_t size() const {
    std::uint64_t n = 0;
    for (const Slot& s : slots_) n += s.key != kNone && s.live ? 1 : 0;
    return n;
  }

 private:
  struct Slot {
    std::uint64_t key = kNone;
    bool live = false;
    round_t round = 0;
    std::uint64_t value = 0;
  };

  /// First bucket from home holding `key` or free; kNone if neither.
  [[nodiscard]] std::uint64_t walk(std::uint64_t key) const {
    const std::uint64_t mask = slots_.size() - 1;
    std::uint64_t b = mix64(key) & mask;
    for (std::uint64_t n = 0; n < slots_.size(); ++n, b = (b + 1) & mask) {
      if (slots_[b].key == key || slots_[b].key == kNone) return b;
    }
    return kNone;
  }

  /// The key's slot, claimed (born live, round 0) if it had none; nullptr
  /// when the table is full.
  Slot* claim(std::uint64_t key, bool& fresh) {
    const std::uint64_t b = walk(key);
    if (b == kNone) return nullptr;
    fresh = slots_[b].key == kNone;
    if (fresh) slots_[b] = Slot{key, true, 0, 0};
    return &slots_[b];
  }

  std::vector<Slot> slots_;
};

// -- fingerprint slice -------------------------------------------------------

TEST(HashProbe, H2SliceIndependentOfBucketAndShardBits) {
  util::Xoshiro256 rng(7);
  for (int iter = 0; iter < 256; ++iter) {
    const std::uint64_t mixed = rng.next();
    const std::uint8_t fp = ctrl_h2(mixed);
    EXPECT_NE(fp, kCtrlEmpty);
    EXPECT_EQ(fp & 0x80u, 0x80u);  // full bytes never collide with empty
    // Bits [0, 39) feed bucket homes (mix64 & mask) and the serve shard
    // router (mix64 >> 32 over <= 2^7 shards). Flipping any of them must
    // leave the fingerprint alone...
    for (unsigned bit = 0; bit < kH2Shift; ++bit) {
      EXPECT_EQ(ctrl_h2(mixed ^ (std::uint64_t{1} << bit)), fp) << "bit " << bit;
    }
    // ...while every bit of the [39, 46) slice lands in the fingerprint.
    for (unsigned bit = kH2Shift; bit < kH2Shift + 7; ++bit) {
      EXPECT_NE(ctrl_h2(mixed ^ (std::uint64_t{1} << bit)), fp) << "bit " << bit;
    }
    // Bits above the slice are ignored too.
    EXPECT_EQ(ctrl_h2(mixed ^ (std::uint64_t{1} << (kH2Shift + 7))), fp);
  }
}

TEST(HashProbe, FingerprintsSpreadWithinOneProbeChain) {
  // Keys whose homes collide under a small mask still fan out across H2
  // values — the whole point of slicing H2 from independent mix64 bits.
  constexpr std::uint64_t kMask = 63;
  std::set<std::uint8_t> fps;
  std::uint64_t found = 0;
  for (std::uint64_t k = 0; found < 64; ++k) {
    const std::uint64_t mixed = mix64(k);
    if ((mixed & kMask) != 0) continue;  // same home bucket only
    fps.insert(ctrl_h2(mixed));
    ++found;
  }
  // 64 same-home keys over 128 fingerprint values: expect rich diversity
  // (a correlated slice would collapse to a handful).
  EXPECT_GE(fps.size(), 16u);
}

TEST(HashProbe, GroupWalkCoversEveryLaneFromEveryHome) {
  // Sub-group tables are one masked group; larger ones whole groups.
  for (const std::uint64_t buckets : {2u, 4u, 8u, 16u, 64u}) {
    const std::uint64_t groups = std::max<std::uint64_t>(buckets / util::kGroupWidth, 1);
    for (std::uint64_t home = 0; home < buckets; ++home) {
      std::set<std::uint64_t> visited;
      std::uint64_t steps = 0;
      GroupWalk walk(home, buckets);
      for (std::uint32_t lanes = walk.first(); !walk.done(); lanes = walk.next()) {
        ++steps;
        for (unsigned lane = 0; lane < util::kGroupWidth; ++lane) {
          if ((lanes >> lane) & 1u) visited.insert(walk.base() + lane);
        }
      }
      SCOPED_TRACE(testing::Message() << "buckets " << buckets << " home " << home);
      EXPECT_EQ(steps, groups + 1);
      EXPECT_EQ(visited.size(), buckets);  // full coverage...
      EXPECT_LT(*visited.rbegin(), buckets);  // ...and no padding lane
    }
  }
}

// -- H2 collisions: verify, then continue ------------------------------------

/// Two distinct keys with the same home bucket AND the same fingerprint
/// under `mask` — the walk must verify the first key's bucket, classify it
/// a false positive, and probe on.
std::pair<std::uint64_t, std::uint64_t> h2_colliding_pair(std::uint64_t mask) {
  std::map<std::pair<std::uint64_t, std::uint8_t>, std::uint64_t> seen;
  for (std::uint64_t k = 0;; ++k) {
    const std::uint64_t mixed = mix64(k);
    const auto bin = std::make_pair(mixed & mask, ctrl_h2(mixed));
    const auto [it, fresh] = seen.emplace(bin, k);
    if (!fresh) return {it->second, k};
  }
}

TEST(HashProbe, H2CollisionVerifiesThenContinues) {
  HashConfig cfg = probing(/*telemetry=*/true);
  cfg.max_load = 0.5;
  Set set(32, cfg);  // 64 buckets
  const auto [k1, k2] = h2_colliding_pair(set.bucket_count() - 1);
  ASSERT_EQ(ctrl_h2(mix64(k1)), ctrl_h2(mix64(k2)));

  EXPECT_EQ(set.insert(k1), SetInsert::kInserted);
  // k2's walk hits k1's fingerprint-matched bucket first, verifies the
  // claim word, finds a stranger, and moves on — a counted false positive.
  EXPECT_EQ(set.insert(k2), SetInsert::kInserted);
  EXPECT_TRUE(set.contains(k1));
  EXPECT_TRUE(set.contains(k2));
  EXPECT_NE(set.debug_bucket_of(k1), set.debug_bucket_of(k2));
  EXPECT_GE(set.telemetry().site()->totals().fingerprint_fps, 1u);

  // Same walk, same verdicts, when re-offered (kFound via verified hits).
  EXPECT_EQ(set.insert(k1), SetInsert::kFound);
  EXPECT_EQ(set.insert(k2), SetInsert::kFound);
  EXPECT_EQ(set.erase(k2), true);
  EXPECT_TRUE(set.contains(k1));
  EXPECT_FALSE(set.contains(k2));
}

// -- the write-once byte across erase / revive / reclaim ---------------------

TEST(HashProbe, SetCtrlByteTracksLifecycle) {
  // The claim winner writes the fingerprint once; erase and revive leave
  // it in place, and only a migration (here a reclaim) clears it.
  Set set(64, probing());
  const std::uint64_t key = 1234;
  const std::uint8_t fp = ctrl_h2(mix64(key));

  ASSERT_EQ(set.insert(key), SetInsert::kInserted);
  const std::uint64_t b = set.debug_bucket_of(key);
  ASSERT_NE(b, kNone);
  EXPECT_EQ(set.debug_ctrl(b), fp);

  EXPECT_TRUE(set.erase(key));
  EXPECT_EQ(set.debug_ctrl(b), fp);  // the bucket still belongs to the key
  EXPECT_FALSE(set.contains(key));
  EXPECT_FALSE(set.erase(key));  // already dead: no second winner
  EXPECT_EQ(set.debug_ctrl(b), fp);

  EXPECT_EQ(set.insert(key), SetInsert::kInserted);  // revive in place
  EXPECT_EQ(set.debug_bucket_of(key), b);
  EXPECT_EQ(set.debug_ctrl(b), fp);
  EXPECT_TRUE(set.contains(key));

  // Erase + reclaim: the rebuilt array drops the bucket and its byte.
  EXPECT_TRUE(set.erase(key));
  set.reclaim_parallel(1);
  EXPECT_EQ(set.debug_bucket_of(key), kNone);
  EXPECT_EQ(set.size(), 0u);
  for (std::uint64_t i = 0; i < set.bucket_count(); ++i) {
    EXPECT_EQ(set.debug_ctrl(i), kCtrlEmpty);
  }
}

TEST(HashProbe, MapCtrlByteTracksRoundArbitratedLifecycle) {
  Map map(64, probing());
  const std::uint64_t key = 99;
  const std::uint8_t fp = ctrl_h2(mix64(key));

  ASSERT_EQ(map.upsert(1, key, 7), MapUpsert::kWon);
  const std::uint64_t b = map.debug_bucket_of(key);
  ASSERT_NE(b, kNone);
  EXPECT_EQ(map.debug_ctrl(b), fp);

  ASSERT_EQ(map.erase(2, key), MapUpsert::kWon);
  EXPECT_EQ(map.debug_ctrl(b), fp);
  EXPECT_EQ(map.find(key), nullptr);

  // Round-arbitrated revive: same bucket, same byte, new value.
  ASSERT_EQ(map.upsert(3, key, 8), MapUpsert::kWon);
  EXPECT_EQ(map.debug_ctrl(b), fp);
  ASSERT_NE(map.find(key), nullptr);
  EXPECT_EQ(*map.find(key), 8u);

  // Erase-of-absent claims and immediately tombstones a bucket; its byte
  // is the absent key's fingerprint, so foreign walks skip it unverified.
  const std::uint64_t absent = 4242;
  ASSERT_EQ(map.erase(4, absent), MapUpsert::kWon);
  const std::uint64_t ab = map.debug_bucket_of(absent);
  ASSERT_NE(ab, kNone);
  EXPECT_EQ(map.debug_ctrl(ab), ctrl_h2(mix64(absent)));
  EXPECT_EQ(map.find(absent), nullptr);

  // Reclaim drops both tombstones and clears every byte.
  ASSERT_EQ(map.erase(5, key), MapUpsert::kWon);
  map.reclaim_parallel(1);
  EXPECT_EQ(map.debug_bucket_of(key), kNone);
  EXPECT_EQ(map.debug_bucket_of(absent), kNone);
  EXPECT_EQ(map.size(), 0u);
  for (std::uint64_t i = 0; i < map.bucket_count(); ++i) {
    EXPECT_EQ(map.debug_ctrl(i), kCtrlEmpty);
  }
}

TEST(HashProbe, MissWalksPastForeignTombstonesUnverified) {
  // A chain of erased keys sharing one home, then a miss from that home
  // whose fingerprint none of them carries. The tombstones keep their
  // fingerprint bytes, so the walk verifies only the home lane (the fast
  // path checks it whatever its byte) and the empty lane ending the chain.
  Set set(32, probing(/*telemetry=*/true));  // 64 buckets
  const std::uint64_t mask = set.bucket_count() - 1;
  constexpr std::uint64_t kHome = 8;  // the chain crosses a group boundary
  constexpr std::size_t kChain = 12;
  std::vector<std::uint64_t> chain;
  std::set<std::uint8_t> fps;
  std::uint64_t k = 0;
  for (; chain.size() < kChain; ++k) {
    if ((mix64(k) & mask) != kHome) continue;
    chain.push_back(k);
    fps.insert(ctrl_h2(mix64(k)));
  }
  std::uint64_t miss = k;
  while ((mix64(miss) & mask) != kHome || fps.count(ctrl_h2(mix64(miss))) != 0) ++miss;

  for (const std::uint64_t key : chain) ASSERT_EQ(set.insert(key), SetInsert::kInserted);
  for (const std::uint64_t key : chain) ASSERT_TRUE(set.erase(key));
  ASSERT_EQ(set.tombstones(), kChain);
  ASSERT_EQ(set.debug_bucket_of(chain.back()), kHome + kChain - 1);

  const obs::ContentionTotals before = set.telemetry().site()->totals();
  EXPECT_FALSE(set.erase(miss));  // a counted read walk that misses
  const obs::ContentionTotals after = set.telemetry().site()->totals();
  EXPECT_EQ(after.attempts - before.attempts, 2u);
  EXPECT_EQ(after.group_loads - before.group_loads, 2u);
  EXPECT_EQ(after.fingerprint_fps, before.fingerprint_fps);
}

TEST(HashProbe, GrowMigrationRebuildsTheSidecar) {
  Set set(32, probing());  // 64 buckets at max_load 0.5
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; k <= 60; ++k) {
    keys.push_back(k * 2654435761u);
    ASSERT_EQ(set.insert(keys.back()), SetInsert::kInserted);
  }
  ASSERT_TRUE(set.needs_grow());
  const std::uint64_t before = set.bucket_count();
  set.grow_parallel(2);
  EXPECT_GT(set.bucket_count(), before);
  // Every migrated bucket's byte is its key's fingerprint in the NEW
  // array — the first post-swap walk must find a fully populated sidecar.
  for (const std::uint64_t k : keys) {
    EXPECT_TRUE(set.contains(k));
    const std::uint64_t b = set.debug_bucket_of(k);
    ASSERT_NE(b, kNone);
    EXPECT_EQ(set.debug_ctrl(b), ctrl_h2(mix64(k)));
  }
}

// -- the group walk against the serial model ---------------------------------
// The "scalar walk" of these test names is the ReferenceTable's serial
// linear probe; the table's group walk must reach the same verdict and
// place every key in the same bucket.

TEST(HashProbe, SetGroupAndScalarWalksAgreeOnRandomChurn) {
  Set set(256, probing());
  ReferenceTable ref(set.bucket_count());
  util::Xoshiro256 rng(42);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = rng.bounded(512);  // dense: collisions + revives
    switch (rng.bounded(3)) {
      case 0:
        ASSERT_EQ(set.insert(key), ref.insert(key)) << "op " << op;
        ASSERT_EQ(set.debug_bucket_of(key), ref.find(key)) << "op " << op;
        break;
      case 1:
        ASSERT_EQ(set.erase(key), ref.erase(key)) << "op " << op;
        break;
      default:
        ASSERT_EQ(set.contains(key), ref.contains(key)) << "op " << op;
    }
    ASSERT_EQ(set.size(), ref.size()) << "op " << op;
    if (op % 5000 == 4999) {
      set.reclaim_parallel(1);
      ref.rebuild(set.bucket_count());
    }
  }
  // Final sweep: identical membership and placement over the key space.
  for (std::uint64_t k = 0; k < 512; ++k) {
    ASSERT_EQ(set.contains(k), ref.contains(k)) << "key " << k;
    ASSERT_EQ(set.debug_bucket_of(k), ref.find(k)) << "key " << k;
  }
}

TEST(HashProbe, MapGroupAndScalarWalksAgreeAcrossRounds) {
  Map map(128, probing());
  ReferenceTable ref(map.bucket_count());
  util::Xoshiro256 rng(1337);
  for (round_t r = 1; r <= 300; ++r) {
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t key = rng.bounded(96);
      if (rng.bounded(4) == 0) {
        ASSERT_EQ(map.erase(r, key), ref.write(r, key, /*live=*/false, 0));
      } else {
        const std::uint64_t v = r * 1000 + static_cast<std::uint64_t>(i);
        ASSERT_EQ(map.upsert(r, key, v), ref.write(r, key, /*live=*/true, v));
      }
    }
    if (r % 64 == 0) {
      map.reclaim_parallel(1);
      ref.rebuild(map.bucket_count());
    }
    for (std::uint64_t k = 0; k < 96; ++k) {
      const std::uint64_t* a = map.find(k);
      const std::uint64_t* b = ref.value(k);
      ASSERT_EQ(a == nullptr, b == nullptr) << "round " << r << " key " << k;
      if (a != nullptr) {
        ASSERT_EQ(*a, *b);
      }
      ASSERT_EQ(map.debug_bucket_of(k), ref.find(k)) << "round " << r << " key " << k;
    }
  }
}

TEST(HashProbe, FullTableReportsKFullInBothModes) {
  // Both claim walks — the set's insert and the map's round write — on a
  // full one-group and a full multi-group table.
  HashConfig cfg = probing();
  cfg.max_load = 1.0;
  for (const std::uint64_t buckets : {16u, 64u}) {
    SCOPED_TRACE(testing::Message() << "buckets " << buckets);
    Set set(buckets, cfg);
    Map map(buckets, cfg);
    ReferenceTable ref(buckets);
    ASSERT_EQ(set.bucket_count(), buckets);
    ASSERT_EQ(map.bucket_count(), buckets);
    for (std::uint64_t k = 1; k <= buckets; ++k) {
      ASSERT_EQ(set.insert(k), SetInsert::kInserted);
      ASSERT_EQ(map.upsert(1, k, k), MapUpsert::kWon);
      ASSERT_EQ(ref.insert(k), SetInsert::kInserted);
      ASSERT_EQ(set.debug_bucket_of(k), ref.find(k));
      ASSERT_EQ(map.debug_bucket_of(k), ref.find(k));
    }
    // One more distinct key exhausts the walk — including the wrap-revisit
    // of the partial first group, so the verdict covers every lane.
    const std::uint64_t extra = std::uint64_t{1} << 20;
    EXPECT_EQ(ref.insert(extra), SetInsert::kFull);
    EXPECT_EQ(set.insert(extra), SetInsert::kFull);
    EXPECT_EQ(map.upsert(2, extra, 0), MapUpsert::kFull);
    EXPECT_FALSE(set.contains(extra));
    EXPECT_EQ(map.find(extra), nullptr);
  }
}

// -- one core: the set and the map build the same table ----------------------

/// Asserts that a set and a map fed the same key stream hold the same
/// table as the serial model: geometry, counts, every key's bucket, every
/// control byte, and the probe-path telemetry the shared claim/read walks
/// produce.
void expect_same_table(Set& set, Map& map, const ReferenceTable& ref,
                       const std::vector<std::uint64_t>& keys, const char* phase) {
  SCOPED_TRACE(phase);
  ASSERT_EQ(set.bucket_count(), map.bucket_count());
  EXPECT_EQ(set.size(), map.size());
  EXPECT_EQ(set.size(), ref.size());
  EXPECT_EQ(set.tombstones(), map.tombstones());
  for (const std::uint64_t k : keys) {
    ASSERT_EQ(set.debug_bucket_of(k), ref.find(k)) << "key " << k;
    ASSERT_EQ(set.debug_bucket_of(k), map.debug_bucket_of(k)) << "key " << k;
    ASSERT_EQ(set.contains(k), ref.contains(k)) << "key " << k;
    ASSERT_EQ(set.contains(k), map.find(k) != nullptr) << "key " << k;
  }
  for (std::uint64_t i = 0; i < set.bucket_count(); ++i) {
    ASSERT_EQ(set.debug_ctrl(i), map.debug_ctrl(i)) << "bucket " << i;
  }
  const obs::ContentionTotals s = set.telemetry().site()->totals();
  const obs::ContentionTotals m = map.telemetry().site()->totals();
  EXPECT_EQ(s.attempts, m.attempts);
  EXPECT_EQ(s.atomics, m.atomics);
  EXPECT_EQ(s.wins, m.wins);
  EXPECT_EQ(s.group_loads, m.group_loads);
  EXPECT_EQ(s.fingerprint_fps, m.fingerprint_fps);
}

/// One seeded stream through both tables and the model: inserts, erases of
/// present keys, revives, a grow, more churn, then a reclaim — checked
/// after each phase.
void replay_through_set_and_map(std::uint64_t capacity) {
  Set set(capacity, probing(/*telemetry=*/true));
  Map map(capacity, probing(/*telemetry=*/true));
  ReferenceTable ref(set.bucket_count());
  util::Xoshiro256 rng(capacity * 2 + 1);
  std::vector<std::uint64_t> keys;  // every key ever inserted
  std::vector<std::uint64_t> live;
  std::vector<std::uint64_t> dead;
  round_t round = 0;
  const auto take = [&rng](std::vector<std::uint64_t>& from) {
    const std::size_t i = rng.bounded(from.size());
    const std::uint64_t k = from[i];
    from[i] = from.back();
    from.pop_back();
    return k;
  };
  const auto insert_new = [&] {
    std::uint64_t k = rng.next();
    if (k == Set::kEmptyKey) k = 0;
    const SetInsert r = set.insert(k);
    ASSERT_EQ(r, map.insert_first(k, k));
    ASSERT_EQ(r, ref.insert(k));
    if (r == SetInsert::kInserted) {
      keys.push_back(k);
      live.push_back(k);
    }
  };
  const auto erase_live = [&] {
    const std::uint64_t k = take(live);
    ASSERT_TRUE(set.erase(k));
    ASSERT_EQ(map.erase(++round, k), MapUpsert::kWon);
    ASSERT_TRUE(ref.erase(k));
    dead.push_back(k);
  };
  const auto revive = [&] {
    const std::uint64_t k = take(dead);
    ASSERT_EQ(set.insert(k), SetInsert::kInserted);
    ASSERT_EQ(map.insert_first(k, k), SetInsert::kInserted);
    ASSERT_EQ(ref.insert(k), SetInsert::kInserted);
    live.push_back(k);
  };
  // Keeps claimed buckets at <= 3/4 of the table, so no walk reports kFull.
  const auto churn = [&](int ops) {
    for (int op = 0; op < ops; ++op) {
      const bool room = set.occupied() < set.bucket_count() * 3 / 4;
      const std::uint64_t pick = rng.bounded(3);
      if (pick == 0 && room) {
        insert_new();
      } else if (pick == 1 && !live.empty()) {
        erase_live();
      } else if (!dead.empty()) {
        revive();
      }
    }
  };

  const std::uint64_t fill = set.bucket_count() * 5 / 8;
  for (std::uint64_t i = 0; i < fill; ++i) insert_new();
  expect_same_table(set, map, ref, keys, "insert");
  for (std::size_t n = live.size() / 2; n > 0; --n) erase_live();
  ASSERT_GT(set.tombstones(), 0u);
  expect_same_table(set, map, ref, keys, "erase");
  for (std::size_t n = dead.size() / 2; n > 0; --n) revive();
  expect_same_table(set, map, ref, keys, "revive");
  set.grow_parallel(1);
  map.grow_parallel(1);
  ref.rebuild(set.bucket_count());
  expect_same_table(set, map, ref, keys, "grow");
  churn(static_cast<int>(set.bucket_count()));
  expect_same_table(set, map, ref, keys, "churn");
  set.reclaim_parallel(1);
  map.reclaim_parallel(1);
  ref.rebuild(set.bucket_count());
  EXPECT_EQ(set.tombstones(), 0u);
  expect_same_table(set, map, ref, keys, "reclaim");
  EXPECT_GT(set.telemetry().site()->totals().group_loads, 0u);  // walks ran
}

TEST(HashProbe, SetAndMapBuildTheSameTable) {
  // 8 buckets starts as one masked sub-group; 256 buckets walks whole
  // groups from the first insert.
  for (const std::uint64_t capacity : {4u, 128u}) {
    SCOPED_TRACE(testing::Message() << "capacity=" << capacity);
    replay_through_set_and_map(capacity);
  }
}

// -- telemetry batching ------------------------------------------------------

TEST(HashProbe, WalkTelemetryBatchesAndFeedsHistogram) {
  Set grouped(256, probing(/*telemetry=*/true));
  for (std::uint64_t k = 1; k <= 128; ++k) (void)grouped.insert(k);
  const obs::ContentionTotals t = grouped.telemetry().site()->totals();
  EXPECT_GE(t.attempts, 128u);  // every op verified >= 1 bucket
  // Inserts that claim their empty home lane resolve on the fast path
  // without a group snapshot; only displaced keys walk groups. At 50%
  // fill some collisions are certain, so the counter moves but stays
  // well under one load per op.
  EXPECT_GE(t.group_loads, 1u);
  EXPECT_LT(t.group_loads, 128u);
  EXPECT_GE(grouped.telemetry().probe_p50(), 1u);
  EXPECT_GE(grouped.telemetry().probe_p99(), grouped.telemetry().probe_p50());
}

TEST(HashProbe, SubGroupTablesWalkMaskedGroups) {
  // 2, 4 and 8 buckets: one group of padded sidecar, the lanes past the
  // table masked off. Filled to the last bucket, so every displaced key
  // and every miss walks the group, and one more key reports kFull only
  // after the wrap revisit.
  HashConfig cfg = probing(/*telemetry=*/true);
  cfg.max_load = 1.0;
  for (const std::uint64_t buckets : {2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "buckets " << buckets);
    Set set(buckets, cfg);
    ReferenceTable ref(buckets);
    ASSERT_EQ(set.bucket_count(), buckets);
    for (std::uint64_t k = 1; k <= buckets; ++k) {
      ASSERT_EQ(set.insert(k), SetInsert::kInserted);
      ASSERT_EQ(ref.insert(k), SetInsert::kInserted);
    }
    for (std::uint64_t k = 1; k <= buckets; ++k) {
      EXPECT_TRUE(set.contains(k));
      EXPECT_EQ(set.debug_bucket_of(k), ref.find(k));
      EXPECT_EQ(set.debug_ctrl(set.debug_bucket_of(k)), ctrl_h2(mix64(k)));
    }
    for (std::uint64_t k = 100; k < 110; ++k) EXPECT_FALSE(set.contains(k));
    EXPECT_EQ(set.insert(1000), SetInsert::kFull);
    EXPECT_FALSE(set.erase(1000));  // a counted miss over the full table

    // Erase and revive in place; the padding lanes stay empty throughout.
    EXPECT_TRUE(set.erase(1));
    EXPECT_FALSE(set.contains(1));
    EXPECT_EQ(set.insert(1000), SetInsert::kFull);  // the tombstone holds its bucket
    EXPECT_EQ(set.insert(1), SetInsert::kInserted);
    EXPECT_EQ(set.debug_bucket_of(1), ref.find(1));
    for (std::uint64_t i = buckets; i < util::kGroupWidth; ++i) {
      EXPECT_EQ(set.debug_ctrl(i), kCtrlEmpty) << "padding lane " << i;
    }
    EXPECT_GT(set.telemetry().site()->totals().group_loads, 0u);
  }
}

}  // namespace
}  // namespace crcw::ds
