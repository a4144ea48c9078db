// 16-byte group matching for the ds/ control-byte sidecars — the Swiss-
// table probe primitive: snapshot one group of control bytes, compare all
// of them against a fingerprint in a handful of instructions, and hand the
// caller a bitmask of candidate lanes.
//
// Three backends, chosen at compile time:
//   * SSE2  (x86-64, default): _mm_cmpeq_epi8 + _mm_movemask_epi8;
//   * NEON  (aarch64): vceqq_u8 + the vshrn_n_u16 nibble-mask trick
//     (there is no movemask instruction; narrowing each 16-bit lane's top
//     nibble packs the comparison into one 64-bit scalar);
//   * SWAR  (portable fallback, and the -DCRCW_SIMD=OFF build): two 8-byte
//     words per group. XORing the needle in turns equal bytes into 0x00,
//     and the exact per-byte zero test
//     ~(((x & 0x7F..7F) + 0x7F..7F) | x | 0x7F..7F) & 0x80..80 flags them
//     without the borrow of the classic (x - 0x01..01) & ~x detector,
//     which also flags a byte that differs from the needle only in bit 0
//     when the byte below it matches. One multiply-gather per word then
//     packs the flagged 0x80 bits into lane bits.
//
// match_swar() is compiled unconditionally so tests can assert bit-exact
// parity between the vector backend and the portable one on random batches
// (the CRCW_SIMD=OFF CI leg then runs the whole suite on SWAR alone).
//
// Memory-model contract: load() takes the control bytes as relaxed atomics
// and snapshots them NON-atomically as one wide read (a data race in the
// letter of the C++ model, benign by the sidecar's design — every group
// byte is only ever a *filter*; a byte is written once per migration
// epoch, empty → fingerprint, so a stale snapshot can only read a lane as
// empty, and empty lanes are always re-verified against the authoritative
// bucket word; see docs/architecture.md "SIMD group probing"). Under TSan
// the wide read would be reported, so that build takes a per-byte
// relaxed-atomic path instead: same values, same masks, no diagnostics —
// the tool sees exactly the synchronisation the proof uses, per the
// src/util/sanitizer.hpp discipline.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "util/sanitizer.hpp"

#if defined(CRCW_SIMD) && (defined(__SSE2__) || defined(_M_X64))
#define CRCW_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(CRCW_SIMD) && defined(__ARM_NEON)
#define CRCW_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace crcw::util {

/// Control bytes scanned per probe step. All backends use 16: SWAR chews
/// two 8-byte words per group, so the probe loop, the telemetry (one
/// group_loads tick per step) and the parity tests are backend-agnostic.
inline constexpr std::size_t kGroupWidth = 16;

/// Which comparison backend this build selected (for bench/test logging).
[[nodiscard]] constexpr const char* simd_backend() noexcept {
#if defined(CRCW_SIMD_SSE2)
  return "sse2";
#elif defined(CRCW_SIMD_NEON)
  return "neon";
#else
  return "swar";
#endif
}

/// One snapshot of kGroupWidth control bytes plus the match queries the
/// probe loop asks of it. The snapshot is taken once per group; every
/// match() afterwards reads only the local copy, so a probe step costs one
/// wide load regardless of how many byte values it tests.
struct Group {
  alignas(kGroupWidth) std::uint8_t bytes[kGroupWidth];

  /// Snapshot from the live sidecar (relaxed atomics). See the header
  /// comment for why the non-TSan path may read the bytes wide.
  [[nodiscard]] static Group load(const std::atomic<std::uint8_t>* ctrl) noexcept {
    Group g;
#if CRCW_TSAN_ENABLED
    for (std::size_t i = 0; i < kGroupWidth; ++i) {
      g.bytes[i] = ctrl[i].load(std::memory_order_relaxed);
    }
#else
    static_assert(sizeof(std::atomic<std::uint8_t>) == 1 &&
                  std::atomic<std::uint8_t>::is_always_lock_free);
    std::memcpy(g.bytes, reinterpret_cast<const std::uint8_t*>(ctrl), kGroupWidth);
#endif
    return g;
  }

  /// Snapshot from plain memory (tests, serial sweeps).
  [[nodiscard]] static Group from(const std::uint8_t* p) noexcept {
    Group g;
    std::memcpy(g.bytes, p, kGroupWidth);
    return g;
  }

  /// Bitmask of lanes whose byte equals `b` (bit i = bytes[i] == b).
  [[nodiscard]] std::uint32_t match(std::uint8_t b) const noexcept {
#if defined(CRCW_SIMD_SSE2)
    const __m128i group = _mm_load_si128(reinterpret_cast<const __m128i*>(bytes));
    const __m128i needle = _mm_set1_epi8(static_cast<char>(b));
    return static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(group, needle)));
#elif defined(CRCW_SIMD_NEON)
    const uint8x16_t group = vld1q_u8(bytes);
    const uint8x16_t eq = vceqq_u8(group, vdupq_n_u8(b));
    // Narrow each 16-bit lane to its top nibble: lane i of the comparison
    // becomes nibble i of one 64-bit scalar (0xF if equal, 0x0 if not).
    const uint64_t nibbles =
        vget_lane_u64(vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(eq), 4)), 0);
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < kGroupWidth; ++i) {
      mask |= static_cast<std::uint32_t>((nibbles >> (4 * i)) & 1u) << i;
    }
    return mask;
#else
    return match_swar(b);
#endif
  }

  /// Bitmask of the empty lanes in one query: every published fingerprint
  /// byte has the high bit set (0x80 | H2) and the only other value the
  /// sidecar holds is kCtrlEmpty (0x00), so "high bit clear" *is* "empty"
  /// — one sign-bit movemask, no byte compare. The probe walk pairs this
  /// with match(fp) to build its candidate mask.
  [[nodiscard]] std::uint32_t match_empty() const noexcept {
#if defined(CRCW_SIMD_SSE2)
    const __m128i group = _mm_load_si128(reinterpret_cast<const __m128i*>(bytes));
    return static_cast<std::uint32_t>(~_mm_movemask_epi8(group)) & 0xFFFFu;
#elif defined(CRCW_SIMD_NEON)
    const uint8x16_t group = vld1q_u8(bytes);
    // Sign bit of each byte, packed by the same narrowing-nibble trick as
    // match(): shift the sign bit down to every bit of its byte first.
    const uint8x16_t sign = vcltq_s8(vreinterpretq_s8_u8(group), vdupq_n_s8(0));
    const uint64_t nibbles = vget_lane_u64(
        vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(sign), 4)), 0);
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < kGroupWidth; ++i) {
      mask |= static_cast<std::uint32_t>((nibbles >> (4 * i)) & 1u) << i;
    }
    return ~mask & 0xFFFFu;
#else
    return empty_swar();
#endif
  }

  /// Portable SWAR comparison — always compiled, so vector builds can
  /// verify parity at runtime (tests/test_simd.cpp).
  [[nodiscard]] std::uint32_t match_swar(std::uint8_t b) const noexcept {
    std::uint32_t mask = 0;
    for (std::size_t w = 0; w < kGroupWidth / 8; ++w) {
      std::uint64_t x;
      std::memcpy(&x, bytes + 8 * w, 8);
      x ^= kLow * b;  // bytes equal to the needle become 0x00
      const std::uint64_t zero = ~(((x & kLow7) + kLow7) | x | kLow7) & kHigh;
      mask |= gather(zero) << (8 * w);
    }
    return mask;
  }

  /// SWAR twin of match_empty(): high-bit-clear lanes, word at a time.
  [[nodiscard]] std::uint32_t empty_swar() const noexcept {
    std::uint32_t mask = 0;
    for (std::size_t w = 0; w < kGroupWidth / 8; ++w) {
      std::uint64_t x;
      std::memcpy(&x, bytes + 8 * w, 8);
      mask |= gather(~x & kHigh) << (8 * w);
    }
    return mask;
  }

 private:
  static constexpr std::uint64_t kLow = 0x0101010101010101ull;
  static constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
  static constexpr std::uint64_t kHigh = 0x8080808080808080ull;

  /// Packs the 0x80 bit of each byte of `hit` (every other bit clear) into
  /// an 8-bit lane mask: after the shift, byte i holds bit 8i, and the
  /// multiplier's bits 7, 14, …, 56 send it to bit 56 + i with no other
  /// partial product reaching the top byte and no carries.
  [[nodiscard]] static std::uint32_t gather(std::uint64_t hit) noexcept {
    return static_cast<std::uint32_t>(((hit >> 7) * 0x0102040810204080ull) >> 56);
  }
};

}  // namespace crcw::util
