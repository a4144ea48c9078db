// Seeded input generation. Everything a workload feeds the program comes
// from here, and only from `--seed`: the same seed gives the same keys,
// op streams and graph.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "serve/op.hpp"

namespace pb {

/// One client op before it reaches the program: a key index (the key
/// itself is `KvInputs::keys[key_idx]`) and what to do with it.
struct KvOp {
  std::uint32_t key_idx = 0;
  crcw::serve::OpKind kind = crcw::serve::OpKind::kLookup;
};

struct KvInputs {
  std::vector<std::uint64_t> keys;          ///< key index → 64-bit key
  std::vector<std::vector<KvOp>> streams;   ///< one op stream per client
};

/// Distinct, seed-scrambled keys (never the table's reserved sentinel).
[[nodiscard]] std::vector<std::uint64_t> make_keys(std::uint64_t seed, std::uint64_t count);

/// kv-ingest traffic: Zipf(skew) key indices, `erase_share` erases, the
/// rest upserts.
[[nodiscard]] KvInputs make_ingest_inputs(std::uint64_t seed, std::uint64_t key_space,
                                          int clients, std::size_t stream_len, double skew,
                                          double erase_share);

/// kv-mixed / kv-wire traffic: uniform key indices, `lookup_share`
/// lookups, the rest upserts.
[[nodiscard]] KvInputs make_mixed_inputs(std::uint64_t seed, std::uint64_t key_space,
                                         int clients, std::size_t stream_len,
                                         double lookup_share);

/// pram-cc input: a seeded G(n, m) multigraph as a symmetrised CSR.
[[nodiscard]] crcw::graph::Csr make_graph(std::uint64_t seed, std::uint64_t n,
                                          std::uint64_t m);

}  // namespace pb
