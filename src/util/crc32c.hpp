#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define PARATREET_CRC32C_SSE42 1
#endif

namespace paratreet::util {

namespace detail {

/// Reflected Castagnoli polynomial (iSCSI / ext4 / the SSE4.2 crc32
/// instruction), chosen over CRC32 (zlib) for its better Hamming
/// distance at these frame sizes and for the hardware path.
inline constexpr std::uint32_t kCrc32cPoly = 0x82f63b78u;

struct Crc32cTable {
  std::uint32_t t[256]{};
  constexpr Crc32cTable() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? (c >> 1) ^ kCrc32cPoly : c >> 1;
      }
      t[i] = c;
    }
  }
};
inline constexpr Crc32cTable kCrc32cTable{};

/// The portable body: one table lookup per byte.
inline std::uint32_t crc32cTable(const void* data, std::size_t len,
                                 std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kCrc32cTable.t[(crc ^ p[i]) & 0xffu];
  }
  return ~crc;
}

#if defined(PARATREET_CRC32C_SSE42)
/// The SSE4.2 body: the crc32 instruction over 8-byte words, then the
/// tail byte by byte. Compiled for SSE4.2 without a global ISA flag, so
/// call it only where sse42Available() holds.
__attribute__((target("sse4.2"))) inline std::uint32_t crc32cSse42(
    const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t crc = ~seed;
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, p + i, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; i < len; ++i) crc32 = _mm_crc32_u8(crc32, p[i]);
  return ~crc32;
}

/// Does this CPU have the crc32 instruction? Reads the CPU model that
/// libgcc's start-up constructor fills in before main(), so the answer is
/// fixed before any fork and reading it is async-signal-safe. (Read
/// before that constructor runs, it says no: the table body, same values.)
inline bool sse42Available() { return __builtin_cpu_supports("sse4.2"); }
#endif

}  // namespace detail

/// CRC32C of `len` bytes at `data`, chainable: pass a previous result as
/// `seed` to continue a running checksum over split buffers (header then
/// payload). crc32c("123456789") == 0xE3069283.
///
/// Runs the SSE4.2 crc32 instruction when the CPU has it and the byte
/// table otherwise; both bodies return the same value for every input.
/// Async-signal-safe: no allocation, no lazy initialisation (the table is
/// built at compile time), so the forked rank processes (which may not
/// allocate or throw) can verify and stamp frames with it.
inline std::uint32_t crc32c(const void* data, std::size_t len,
                            std::uint32_t seed = 0) {
#if defined(PARATREET_CRC32C_SSE42)
  if (detail::sse42Available()) return detail::crc32cSse42(data, len, seed);
#endif
  return detail::crc32cTable(data, len, seed);
}

}  // namespace paratreet::util
