// util::Group — the 16-byte control-group matcher behind the ds/ sidecar
// probing. The load-bearing claim is bit-exact parity between whatever
// vector backend this build selected (SSE2 / NEON) and the portable SWAR
// path: the CRCW_SIMD=OFF CI leg runs every suite on SWAR alone, so any
// divergence here would make the two builds probe differently.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "ds/hash_common.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace crcw {
namespace {

using util::Group;
using util::kGroupWidth;

/// Byte-at-a-time reference for match(): bit i = bytes[i] == b.
std::uint32_t reference_match(const Group& g, std::uint8_t b) {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < kGroupWidth; ++i) {
    if (g.bytes[i] == b) mask |= 1u << i;
  }
  return mask;
}

TEST(Simd, BackendNameMatchesCompileFlags) {
  const std::string_view backend = util::simd_backend();
  EXPECT_TRUE(backend == "sse2" || backend == "neon" || backend == "swar");
#if defined(CRCW_SIMD_SSE2)
  EXPECT_EQ(backend, "sse2");
#elif defined(CRCW_SIMD_NEON)
  EXPECT_EQ(backend, "neon");
#else
  EXPECT_EQ(backend, "swar");
#endif
}

TEST(Simd, MatchFindsEveryLaneExactly) {
  std::uint8_t bytes[kGroupWidth];
  for (std::size_t i = 0; i < kGroupWidth; ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 16 + 3);
  }
  const Group g = Group::from(bytes);
  for (std::size_t i = 0; i < kGroupWidth; ++i) {
    EXPECT_EQ(g.match(bytes[i]), 1u << i) << "lane " << i;
  }
  EXPECT_EQ(g.match(0x00), 0u);  // absent needle: no lanes
}

TEST(Simd, MatchAllEqualAndHighBitNeedles) {
  std::uint8_t bytes[kGroupWidth];
  // All-equal group, including needles with the sign bit set (the H2
  // fingerprint range 0x80..0xFF — signed-char comparisons must not trip).
  for (const std::uint8_t b : {0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF}) {
    std::memset(bytes, b, sizeof(bytes));
    const Group g = Group::from(bytes);
    EXPECT_EQ(g.match(b), 0xFFFFu) << "needle " << int(b);
    EXPECT_EQ(g.match(static_cast<std::uint8_t>(b ^ 0x40)), 0u);
  }
}

TEST(Simd, VectorAndSwarAgreeOnRandomBatches) {
  util::Xoshiro256 rng(20210811);
  std::uint8_t bytes[kGroupWidth];
  for (int iter = 0; iter < 4096; ++iter) {
    for (auto& b : bytes) {
      // Low-entropy draw: repeats are common, so multi-lane masks happen.
      b = static_cast<std::uint8_t>(rng.bounded(8) * 37);
    }
    const Group g = Group::from(bytes);
    for (int n = 0; n < 8; ++n) {
      const auto needle = static_cast<std::uint8_t>(rng.bounded(8) * 37);
      EXPECT_EQ(g.match(needle), g.match_swar(needle)) << "iter " << iter;
    }
    // The ds/ sidecar's needle classes on the same snapshot.
    EXPECT_EQ(g.match(ds::kCtrlEmpty), g.match_swar(ds::kCtrlEmpty));
    const auto fp = static_cast<std::uint8_t>(0x80u | rng.bounded(0x80));
    EXPECT_EQ(g.match(fp), g.match_swar(fp));
    EXPECT_EQ(g.match_empty(), g.empty_swar()) << "iter " << iter;
  }
  // Adjacent b / b^1 lanes: two fingerprints may differ in bit 0 alone, and
  // a borrow-based zero-byte detector flags the b^1 lane whenever the lane
  // below it matches. Every 8-lane pattern of the two bytes, in both words,
  // for needles across the byte range — all 256 patterns, so the
  // multiply-gather packing is checked exhaustively too.
  for (const std::uint8_t b : {0x00, 0x01, 0x7E, 0x80, 0x85, 0xFE, 0xFF}) {
    std::uint8_t pair_bytes[kGroupWidth];
    for (std::uint32_t pattern = 0; pattern < 256; ++pattern) {
      const std::uint32_t lanes = pattern | ((pattern ^ 0xA5u) << 8);
      for (std::size_t i = 0; i < kGroupWidth; ++i) {
        pair_bytes[i] = ((lanes >> i) & 1u) != 0 ? b : static_cast<std::uint8_t>(b ^ 1);
      }
      const Group g = Group::from(pair_bytes);
      ASSERT_EQ(reference_match(g, b), lanes);
      EXPECT_EQ(g.match(b), lanes) << "needle " << int(b) << " pattern " << pattern;
      EXPECT_EQ(g.match_swar(b), lanes) << "needle " << int(b) << " pattern " << pattern;
    }
  }
}

TEST(Simd, MatchEmptyIsExactlyTheHighBitClearLanes) {
  // The sign-bit query the walk uses in place of match(kCtrlEmpty): sound
  // because every published fingerprint carries the 0x80 bit, so "high bit
  // clear" can only be empty. Pin the sign-bit reading on a mixed group,
  // with the edge bytes 0x7F (highest non-fp value) / 0x80 (lowest fp).
  std::uint8_t bytes[kGroupWidth];
  for (std::size_t i = 0; i < kGroupWidth; ++i) {
    bytes[i] = (i % 4 == 0)   ? ds::kCtrlEmpty
               : (i % 4 == 1) ? std::uint8_t{0x01}
               : (i % 4 == 2) ? std::uint8_t{0x7F}
                              : std::uint8_t{0x80};
  }
  const Group g = Group::from(bytes);
  std::uint32_t expect = 0;
  for (std::size_t i = 0; i < kGroupWidth; ++i) {
    if ((bytes[i] & 0x80u) == 0) expect |= 1u << i;
  }
  EXPECT_EQ(g.match_empty(), expect);
  EXPECT_EQ(g.empty_swar(), expect);
  // On real sidecar contents (only kCtrlEmpty and fingerprints) the
  // sign-bit mask equals the empty-needle match.
  for (auto& b : bytes) {
    if ((b & 0x80u) == 0) b = ds::kCtrlEmpty;
  }
  const Group real = Group::from(bytes);
  EXPECT_EQ(real.match_empty(), real.match(ds::kCtrlEmpty));
}

TEST(Simd, LoadSnapshotsAtomicSidecarBytes) {
  alignas(kGroupWidth) std::atomic<std::uint8_t> ctrl[kGroupWidth];
  std::uint8_t plain[kGroupWidth];
  for (std::size_t i = 0; i < kGroupWidth; ++i) {
    const auto b = static_cast<std::uint8_t>(0x80u | (i * 11 & 0x7F));
    ctrl[i].store(b, std::memory_order_relaxed);
    plain[i] = b;
  }
  const Group from_atomics = Group::load(ctrl);
  const Group from_plain = Group::from(plain);
  EXPECT_EQ(0, std::memcmp(from_atomics.bytes, from_plain.bytes, kGroupWidth));
  for (std::size_t i = 0; i < kGroupWidth; ++i) {
    EXPECT_EQ(from_atomics.match(plain[i]) & (1u << i), 1u << i);
  }
}

}  // namespace
}  // namespace crcw
