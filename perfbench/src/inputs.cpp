#include "inputs.hpp"

#include <stdexcept>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace pb {

namespace {

// Separate streams per purpose, so adding a client never shifts another
// client's ops.
constexpr std::uint64_t kKeySalt = 0x6b65797300000000ull;
constexpr std::uint64_t kStreamSalt = 0x7374726561000000ull;

std::uint64_t fmix64(std::uint64_t x) noexcept {  // bijective finaliser
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::vector<std::uint64_t> make_keys(std::uint64_t seed, std::uint64_t count) {
  std::vector<std::uint64_t> keys(count);
  const std::uint64_t base = fmix64(seed ^ kKeySalt);
  for (std::uint64_t i = 0; i < count; ++i) {
    // base + i is distinct per i and fmix64 is a bijection, so keys are
    // distinct; the sentinel (all ones) is astronomically unlikely but
    // checked, since the program rejects it.
    keys[i] = fmix64(base + i);
    if (keys[i] == ~std::uint64_t{0}) throw std::runtime_error("key hit the reserved sentinel");
  }
  return keys;
}

KvInputs make_ingest_inputs(std::uint64_t seed, std::uint64_t key_space, int clients,
                            std::size_t stream_len, double skew, double erase_share) {
  KvInputs in;
  in.keys = make_keys(seed, key_space);
  for (int c = 0; c < clients; ++c) {
    const std::uint64_t stream_seed = fmix64(seed ^ kStreamSalt) + static_cast<std::uint64_t>(c);
    crcw::graph::ZipfSampler zipf(key_space, skew, fmix64(stream_seed));
    crcw::util::Xoshiro256 rng(stream_seed);
    std::vector<KvOp> s(stream_len);
    for (KvOp& op : s) {
      op.key_idx = static_cast<std::uint32_t>(zipf.next());
      op.kind = rng.uniform01() < erase_share ? crcw::serve::OpKind::kErase
                                              : crcw::serve::OpKind::kUpsert;
    }
    in.streams.push_back(std::move(s));
  }
  return in;
}

KvInputs make_mixed_inputs(std::uint64_t seed, std::uint64_t key_space, int clients,
                           std::size_t stream_len, double lookup_share) {
  KvInputs in;
  in.keys = make_keys(seed, key_space);
  for (int c = 0; c < clients; ++c) {
    crcw::util::Xoshiro256 rng(fmix64(seed ^ kStreamSalt) + static_cast<std::uint64_t>(c));
    std::vector<KvOp> s(stream_len);
    for (KvOp& op : s) {
      op.key_idx = static_cast<std::uint32_t>(rng.bounded(key_space));
      op.kind = rng.uniform01() < lookup_share ? crcw::serve::OpKind::kLookup
                                               : crcw::serve::OpKind::kUpsert;
    }
    in.streams.push_back(std::move(s));
  }
  return in;
}

crcw::graph::Csr make_graph(std::uint64_t seed, std::uint64_t n, std::uint64_t m) {
  return crcw::graph::random_graph(n, m, fmix64(seed ^ 0x6772617068000000ull));
}

}  // namespace pb
