// CRC-32 (IEEE 802.3 polynomial), used to integrity-protect serialized
// downlink plans and ack reports crossing the TT&C uplink, and the payload
// of dgs.checkpoint.v1 files.  Computed slicing-by-8 (eight table lookups
// per 8-byte word); the results are those of the bytewise definition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace dgs::util {

/// CRC-32/ISO-HDLC: poly 0x04C11DB7 (reflected 0xEDB88320), init 0xFFFFFFFF,
/// reflected in/out, final xor 0xFFFFFFFF.  crc32("123456789") ==
/// 0xCBF43926.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental form: feed `data` into a running CRC.  Start with
/// crc32_init(), finish with crc32_final().
std::uint32_t crc32_init();
std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::uint8_t> data);
std::uint32_t crc32_final(std::uint32_t state);

}  // namespace dgs::util
