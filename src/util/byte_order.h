// Little-endian loads and stores for DGS's binary formats (the
// dgs.checkpoint.v1 codec, the CRC-32 inner loop).  One memcpy per scalar,
// plus a byte swap on big-endian hosts, so the bytes on the wire never
// depend on the host.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstring>

namespace dgs::util {

inline constexpr bool kHostIsLittleEndian =
    std::endian::native == std::endian::little;

/// `v` with its bytes in little-endian order: the identity on
/// little-endian hosts, a byte reversal on big-endian ones.
template <std::unsigned_integral T>
constexpr T to_little_endian(T v) {
  if constexpr (kHostIsLittleEndian) {
    return v;
  } else {
    T r = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      r = static_cast<T>((r << 8) | (v & 0xffu));
      v = static_cast<T>(v >> 8);
    }
    return r;
  }
}

/// Reads a little-endian T from `p` (any alignment).
template <std::unsigned_integral T>
T load_le(const void* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return to_little_endian(v);
}

/// Writes `v` to `p` (any alignment) as little-endian bytes.
template <std::unsigned_integral T>
void store_le(void* p, T v) {
  v = to_little_endian(v);
  std::memcpy(p, &v, sizeof(T));
}

}  // namespace dgs::util
