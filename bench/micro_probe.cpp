// Microbenchmark: the group probe walk (16-lane control-byte sidecar) in
// isolation over one fixed-size ConcurrentHashSet, sweeping load factor,
// with a churned variant that tombstones half the keys first:
//
//   micro_probe/lookup/group  contains() mix (~50% hit rate) over a table
//                             filled to m% of its buckets
//   micro_probe/churn/group   same mix after erasing half the keys —
//                             tombstones keep their buckets (and their
//                             fingerprint bytes) until a reclaim, so walks
//                             stay as long as in the live table while the
//                             sidecar filters the dead lanes like live ones
//
// m carries the fill percentage (the row key has no float axis); n is the
// bucket count, pinned so both sweeps walk identical chains. The profile
// pass replays the same mix through the COUNTED walks (insert of a present
// key / erase of an absent one — same shapes as contains hit/miss), so the
// JSON rows carry probes-per-op, group_loads, fingerprint false positives
// and the probe-length p50/p99 distribution shift next to the timings.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "ds/concurrent_hash_set.hpp"
#include "ds/hash_common.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using crcw::bench::RowRecorder;
using crcw::bench::RowSpec;

constexpr std::uint64_t kBuckets = 1u << 16;
constexpr std::uint64_t kProbesPerIter = 1u << 16;

crcw::ds::HashConfig table_cfg(bool telemetry = false) {
  crcw::ds::HashConfig cfg;
  cfg.max_load = 0.5;  // capacity kBuckets/2 → exactly kBuckets buckets
  cfg.telemetry = telemetry;
  cfg.site_name = "micro-probe";
  return cfg;
}

/// Fills `set` to pct% of kBuckets with distinct keys (mix64 spreads the
/// sequential draw); with `churn`, additionally erases every second key, so
/// half the claimed buckets are tombstones the walks must filter past.
std::vector<std::uint64_t> fill(crcw::ds::ConcurrentHashSet<>& set, std::uint64_t pct,
                                bool churn) {
  const std::uint64_t keys = kBuckets * pct / 100;
  std::vector<std::uint64_t> live;
  live.reserve(keys);
  for (std::uint64_t k = 1; k <= keys; ++k) {
    (void)set.insert(k);
    if (churn && k % 2 == 0) {
      (void)set.erase(k);
    } else {
      live.push_back(k);
    }
  }
  return live;
}

/// Probe mix: alternating present / absent keys (~50% hit rate), drawn
/// uniformly over the live range. Cached per (pct, churn) — never timed.
const std::vector<std::uint64_t>& cached_probes(std::uint64_t pct, bool churn) {
  static std::vector<std::uint64_t> cache[2][101];
  auto& probes = cache[churn ? 1 : 0][pct];
  if (probes.empty()) {
    const std::uint64_t keys = kBuckets * pct / 100;
    crcw::util::Xoshiro256 rng(931 + pct);
    probes.resize(kProbesPerIter);
    for (std::uint64_t i = 0; i < kProbesPerIter; ++i) {
      // Odd keys survive the churn erase; shift misses past the key range.
      const std::uint64_t k = rng.bounded(keys / 2) * 2 + 1;
      probes[i] = (i % 2 == 0) ? k : k + kBuckets;
    }
  }
  return probes;
}

void bench_probe(benchmark::State& state, const char* sweep, bool churn) {
  const auto pct = static_cast<std::uint64_t>(state.range(0));
  const auto& probes = cached_probes(pct, churn);
  auto set = std::make_unique<crcw::ds::ConcurrentHashSet<>>(kBuckets / 2, table_cfg());
  const auto live = fill(*set, pct, churn);  // untimed build
  RowRecorder rec(state, {.series = std::string("micro_probe/") + sweep + "/group",
                          .policy = "group",
                          .threads = 1,
                          .n = kBuckets,
                          .m = pct});
  std::uint64_t hits = 0;
  for (auto _ : state) {
    crcw::util::Timer timer;
    std::uint64_t h = 0;
    for (const std::uint64_t k : probes) {
      if (set->contains(k)) ++h;
    }
    rec.record(timer.seconds());
    hits = h;
    benchmark::DoNotOptimize(hits);
  }
  state.counters["hits"] = static_cast<double>(hits);
  state.counters["live"] = static_cast<double>(live.size());
  rec.profile([&] {
    // contains() is deliberately uncounted (telemetry off the read path),
    // so replay the identical walk shapes through the counted ops: insert
    // of a present key == contains-hit walk, erase of an absent key ==
    // contains-miss walk. Neither mutates the table.
    crcw::obs::MetricsRegistry local;
    const crcw::obs::ScopedRegistry scoped(local);
    crcw::ds::ConcurrentHashSet<> counted(kBuckets / 2, table_cfg(/*telemetry=*/true));
    (void)fill(counted, pct, churn);
    for (const std::uint64_t k : probes) {
      if (k <= kBuckets) {
        (void)counted.insert(k);  // kFound (or revive-free kFound walk)
      } else {
        (void)counted.erase(k);  // absent: walks to first empty, no write
      }
    }
    counted.flush_round();
    return std::optional(local.totals());
  });
}

void lookup_group(benchmark::State& s) { bench_probe(s, "lookup", false); }
void churn_group(benchmark::State& s) { bench_probe(s, "churn", true); }

void load_args(benchmark::internal::Benchmark* b) {
  // Fill percentages; smoke keeps 50 and 70 so a short-chain and a
  // longer-chain regime both stay exercised in CI.
  for (const std::int64_t pct :
       crcw::bench::sweep_points<std::int64_t>({50, 70, 85, 95}, 2)) {
    b->Arg(pct);
  }
  b->UseManualTime()->Unit(benchmark::kMicrosecond);
}

BENCHMARK(lookup_group)->Apply(load_args);
BENCHMARK(churn_group)->Apply(load_args);

}  // namespace
