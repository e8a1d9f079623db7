// dgs.checkpoint.v1: the snapshot/restore container for core::Session
// (DESIGN.md §16).
//
// Layout: a magic line naming the container format, a u64 little-endian
// header length, a single-line restricted-JSON header (schema table:
// checkpoint_header_specs in run_artifact.h), then the payload — the
// session's mutable state split into named sized sections
// (checkpoint_section_names), each framed as
//
//   u32 name_len | name bytes | u64 body_len | body bytes
//
// The header carries a CRC32 of the whole payload, so truncation and
// bit-flips are caught before any section is parsed.  All integers are
// little-endian; doubles are the IEEE-754 bit pattern via u64.  Writing
// raw double bits (not decimal text) is what makes restore byte-identical
// to an uninterrupted run: the restored state is the exact state that was
// saved, to the last mantissa bit.
//
// The codec moves each scalar with one memcpy (util/byte_order.h: a byte
// swap on big-endian hosts, none on little-endian ones) and a run of
// doubles with one bulk copy; write_checkpoint streams the payload CRC
// over the section frames and bodies instead of concatenating them.  Every
// element count read back is bounded by the bytes left in its section
// before anything is sized by it.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/run_artifact.h"
#include "src/util/byte_order.h"
#include "src/util/check.h"

namespace dgs::core {

inline constexpr std::string_view kCheckpointMagic = "dgs.checkpoint.v1\n";

/// Little-endian binary section writer.  Scalars are stored field by field
/// (never memcpy-of-struct), so host padding never reaches the format;
/// doubles round-trip via std::bit_cast so no precision is lost.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { data_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// The same bytes as f64() per element, in one append on little-endian
  /// hosts.
  void f64s(std::span<const double> v) {
    if (v.empty()) return;  // An empty vector's data() may be null.
    if constexpr (util::kHostIsLittleEndian) {
      data_.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
    } else {
      for (const double d : v) f64(d);
    }
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    data_.append(s);
  }

  const std::string& data() const { return data_; }
  std::string take() { return std::move(data_); }

 private:
  template <typename T>
  void put(T v) {
    char bytes[sizeof(T)];
    util::store_le(bytes, v);
    data_.append(bytes, sizeof(T));
  }

  std::string data_;
};

/// Bounds-checked reader over one section's bytes.  Out-of-bounds reads
/// throw (DGS_ENSURE) rather than abort: a truncated section inside a
/// checkpoint whose CRC passed is still caller-recoverable corruption.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[i_++]);
  }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// Fills `out` with consecutive f64() values.
  void f64s(std::span<double> out) {
    need(out.size_bytes());
    if (out.empty()) return;  // memcpy's null-pointer rule.
    if constexpr (util::kHostIsLittleEndian) {
      std::memcpy(out.data(), data_.data() + i_, out.size_bytes());
      i_ += out.size_bytes();
    } else {
      for (double& d : out) d = f64();
    }
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(data_.substr(i_, n));
    i_ += n;
    return s;
  }
  /// A u64 element count, checked against the bytes left: `n` elements
  /// of at least `min_elem_bytes` each must fit, so a corrupt count is a
  /// named error before the caller sizes anything by it.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    DGS_ENSURE(n <= remaining() / min_elem_bytes,
               "checkpoint section truncated: " << n << " elements of >= "
                                                << min_elem_bytes
                                                << " bytes, have "
                                                << remaining());
    return static_cast<std::size_t>(n);
  }

  bool done() const { return i_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - i_; }

 private:
  void need(std::size_t n) const {
    DGS_ENSURE(data_.size() - i_ >= n,
               "checkpoint section truncated: need " << n << " bytes, have "
                                                     << data_.size() - i_);
  }
  template <typename T>
  T get() {
    need(sizeof(T));
    const T v = util::load_le<T>(data_.data() + i_);
    i_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  std::size_t i_ = 0;
};

/// Parsed header identity of a checkpoint (checkpoint_header_specs order;
/// `sections` is implied by checkpoint_section_names and not stored).
struct CheckpointHeader {
  int num_satellites = 0;
  int num_stations = 0;
  std::int64_t steps = 0;
  std::int64_t step_index = 0;
  double step_seconds = 0.0;
  double duration_hours = 0.0;
  bool finalized = false;
  std::uint32_t options_crc32 = 0;
  std::uint64_t payload_bytes = 0;   ///< Filled by write_checkpoint.
  std::uint32_t payload_crc32 = 0;   ///< Filled by write_checkpoint.
};

/// Renders the header as single-line restricted JSON in spec-table order
/// (schema_version + "checkpoint" tag first).
std::string render_checkpoint_header(const CheckpointHeader& header);

/// Writes a complete checkpoint: magic, header (payload size/CRC computed
/// here, streamed over the frames and bodies), and the sections in the
/// given order, each written straight to `out`.  The caller must pass
/// exactly checkpoint_section_names() names in order — enforced.
void write_checkpoint(
    std::ostream& out, CheckpointHeader header,
    std::span<const std::pair<std::string, std::string>> sections);

/// A validated view into a checkpoint buffer.  Section views alias the
/// buffer passed to read_checkpoint, which must outlive the view.
struct CheckpointView {
  CheckpointHeader header;
  std::vector<std::pair<std::string, std::string_view>> sections;

  std::string_view section(std::string_view name) const;
};

/// Parses and fully validates a checkpoint buffer: magic, header schema
/// (validate_checkpoint_header_json), payload size and CRC, and the exact
/// section sequence.  Returns the first violation, or nullopt with `out`
/// filled.
std::optional<ArtifactError> read_checkpoint(std::string_view data,
                                             CheckpointView* out);

/// Validation without keeping the view (CLI / test convenience).
std::optional<ArtifactError> validate_checkpoint(std::string_view data);

}  // namespace dgs::core
