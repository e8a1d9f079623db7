// CRC-32 reference vectors and incremental API, plus the bytewise
// definition kept here as the oracle for the slicing-by-8 implementation.
#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <vector>

#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace dgs::util {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(Crc32, CheckValue) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(crc32(bytes("123456789")), 0xCBF43926u);
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(bytes("abc")), 0x352441C2u);
  EXPECT_EQ(crc32(bytes("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto data = bytes("incremental-crc-check-data-0123456789");
  for (std::size_t split = 0; split <= data.size(); split += 5) {
    std::uint32_t s = crc32_init();
    s = crc32_update(s, std::span(data).subspan(0, split));
    s = crc32_update(s, std::span(data).subspan(split));
    EXPECT_EQ(crc32_final(s), crc32(data)) << "split " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  auto data = bytes("payload under test");
  const std::uint32_t good = crc32(data);
  for (std::size_t byte = 0; byte < data.size(); byte += 3) {
    for (int bit = 0; bit < 8; bit += 2) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc32(data), good) << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

// The CRC as defined: one reflected-polynomial shift per bit.
std::uint32_t bytewise_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicingBy8MatchesTheBytewiseDefinition) {
  // Random buffers of every length class the 8-byte loop and its tail
  // see, starting at every alignment, fed whole and in two pieces split
  // at a random point.
  Rng rng(20201104);
  std::vector<std::uint8_t> buf(4096 + 8);
  for (std::uint8_t& b : buf) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  for (int trial = 0; trial < 600; ++trial) {
    const auto len = static_cast<std::size_t>(
        trial < 64 ? trial : rng.uniform_int(0, 4096));
    const auto offset = static_cast<std::size_t>(trial % 8);
    const std::span<const std::uint8_t> data(buf.data() + offset, len);
    const std::uint32_t want = bytewise_crc32(data);
    EXPECT_EQ(crc32(data), want) << "len " << len << " offset " << offset;
    const auto split = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(len)));
    std::uint32_t s = crc32_init();
    s = crc32_update(s, data.subspan(0, split));
    s = crc32_update(s, data.subspan(split));
    EXPECT_EQ(crc32_final(s), want)
        << "len " << len << " offset " << offset << " split " << split;
  }
}

}  // namespace
}  // namespace dgs::util
