// Per-layer probes of traced runs: each pushes seeded work straight into
// one layer's public functions, so a gain or loss can be placed in a
// layer (ds, core/algorithms) or a depth of the serve stack (the ledger).
#pragma once

#include <cstdint>

#include "graph/csr.hpp"
#include "harness.hpp"
#include "inputs.hpp"

namespace pb {

struct ServeSpans;
struct WireSpans;

/// `core` + `algorithms`: one instrumented CAS-LT CC solve (profile_cc)
/// plus the iteration count of a plain solve. Per-edge ratios are over
/// input (undirected) edges.
struct CoreProbe {
  double attempts_per_edge = 0.0;
  double atomics_per_edge = 0.0;
  double win_ratio = 0.0;
  std::uint64_t iterations = 0;
};
CoreProbe profile_core(const crcw::graph::Csr& g);

/// `ds`: an op stream replayed straight into a ConcurrentHashMap in
/// WriteArbiter rounds of 4096 on one thread — once timed, once with the
/// table's telemetry counting.
struct DsProbe {
  double write_ns = 0.0;
  double find_ns = 0.0;
  double win_ratio = 0.0;
  double atomics_per_op = 0.0;
  double group_loads_per_op = 0.0;
  std::uint64_t tombstones = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t bucket_count_final = 0;
};
DsProbe replay_ds(const KvInputs& in, std::size_t max_ops);

/// The layer-cost ledger: one seeded kv-mixed op stream (windows of 256)
/// pushed through depths that add one layer at a time. ns[d] is ns/op at
/// depth d: 0 table direct, 1 + arbitrated rounds, 2 + RequestQueue and
/// scheduler flush(), 3 + session submit/wait with a pump thread, 4 +
/// in-process wire encode/decode, 5 + loopback TCP. A last untimed pass
/// fills `serve` with depth 3's session/pump spans and `wire` with depth
/// 4's codec spans and depth 5's socket counts; they stand in for
/// workloads whose own traffic does not cross those layers.
struct LedgerProbe {
  double ns[6] = {};
};
LedgerProbe run_ledger(std::uint64_t seed, bool small, ServeSpans& serve, WireSpans& wire);

/// Reference: a std::mutex + std::unordered_map strawman driven by the
/// same op streams on one thread per stream (ops/s).
double mutex_ops_s(const KvInputs& in, std::size_t ops_per_client);

}  // namespace pb
