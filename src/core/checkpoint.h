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
// Every checkpointed record lists its fields once, in wire order, in a
// `template <class Ar> void visit(Ar& ar)` — a member where the record
// owns private state, a free `visit(Ar&, T&)` for plain structs declared
// elsewhere.  BinaryWriter and BinaryReader run the same visitor, so the
// writer, the reader and Session::options_crc32 cannot drift apart:
//
//   ar(fields...)          scalars, strings, pairs, records, and counted
//                          runs (vector, deque, map: u64 count + elements)
//   ar.same(live, what)    the reader must read back the live value
//   ar.same(run, n, what)  a counted run whose count must be n
//   ar.index(i, n, what)   the reader rejects an index outside [0, n);
//                          ar.index(i, n, what, -1) also admits -1, none
//   ar.f64s(doubles)       doubles of known length, without a count
//   ar.exclude(fields...)  names a field left out of the encoding
//
// Each scalar moves with one memcpy (util/byte_order.h: a byte swap on
// big-endian hosts only), a run of doubles with one bulk copy.  The reader
// bounds every count by the bytes left in its section over the least
// encoded size of one element (encoded_size: a default element through
// its own visitor) before sizing anything by it; BinaryReader::finish
// rejects trailing bytes.  Visitors are non-const so one body serves both
// directions; the writer never modifies a field.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <deque>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/run_artifact.h"
#include "src/util/byte_order.h"
#include "src/util/check.h"
#include "src/util/time.h"
#include "src/util/vec3.h"

namespace dgs::core {

inline constexpr std::string_view kCheckpointMagic = "dgs.checkpoint.v1\n";

namespace codec {

template <class T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

/// The unsigned bits a scalar travels as: one byte for flags, chars and
/// enums, the IEEE-754 pattern for a double, two's complement otherwise.
template <Scalar T>
auto to_wire(T v) {
  if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<std::uint64_t>(v);
  } else if constexpr (sizeof(T) == 1 || std::is_enum_v<T>) {
    return static_cast<std::uint8_t>(v);
  } else {
    return static_cast<std::make_unsigned_t<T>>(v);
  }
}

template <Scalar T, class W>
T from_wire(W w) {
  if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<double>(w);
  } else if constexpr (std::is_same_v<T, bool>) {
    return w != 0;
  } else {
    return static_cast<T>(w);
  }
}

template <class T>
inline constexpr bool kIsPair = false;
template <class A, class B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

/// Counted runs and their elements, with a map's key made mutable.
template <class T>
T element_of(const std::vector<T>&);
template <class T>
T element_of(const std::deque<T>&);
template <class K, class V>
std::pair<K, V> element_of(const std::map<K, V>&);
template <class T>
using Element = decltype(element_of(std::declval<const T&>()));
template <class T>
concept Counted = requires(const T& run) { element_of(run); };

/// Calls the record's visitor: its member visit(ar) if it has one, else
/// a free visit(ar, x) found by argument-dependent lookup.
template <class Ar, class T>
void visit_record(Ar& ar, T& x) {
  if constexpr (requires { x.visit(ar); }) {
    x.visit(ar);
  } else {
    visit(ar, x);
  }
}

}  // namespace codec

/// Satellite and station counts that BinaryReader::index checks restored
/// indices against (ar.bounds()); the writer carries none.
struct IndexBounds {
  int sats = 0;
  int stations = 0;
};

/// Little-endian binary section writer.  Scalars are stored field by field
/// (never memcpy-of-struct), so host padding never reaches the format;
/// doubles round-trip via std::bit_cast so no precision is lost.
class BinaryWriter {
 public:
  static constexpr bool kReading = false;

  /// The same bytes as one double field per element, in one append on
  /// little-endian hosts.
  void f64s(std::span<const double> v) {
    if (v.empty()) return;  // An empty vector's data() may be null.
    if constexpr (util::kHostIsLittleEndian) {
      data_.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
    } else {
      for (const double d : v) field(d);
    }
  }

  template <class... T>
  void operator()(const T&... fields) { (field(fields), ...); }
  // The reader's checks; the writer encodes the value only.
  template <class T, class... Check>
  void same(const T& v, const Check&...) { field(v); }
  template <class T, class... Check>
  void index(const T& i, const Check&...) { field(i); }
  template <class... T>
  void exclude(const T&...) {}
  IndexBounds bounds() const { return {}; }

  const std::string& data() const { return data_; }
  std::string take() { return std::move(data_); }

 private:
  template <std::unsigned_integral T>
  void put(T v) {
    char bytes[sizeof(T)];
    util::store_le(bytes, v);
    data_.append(bytes, sizeof(T));
  }

  template <class T>
  void field(const T& v) {
    if constexpr (codec::Scalar<T>) {
      put(codec::to_wire(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      put(static_cast<std::uint32_t>(v.size()));
      data_.append(v);
    } else if constexpr (codec::kIsPair<T>) {
      (*this)(v.first, v.second);
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      put(std::uint64_t{v.size()});
      f64s(v);
    } else if constexpr (codec::Counted<T>) {
      put(std::uint64_t{v.size()});
      for (const auto& e : v) field(e);
    } else {
      codec::visit_record(*this, const_cast<T&>(v));
    }
  }

  std::string data_;
};

/// Encoded size of a default-constructed T: for a record, the least bytes
/// one element of a counted run occupies (its own runs empty), which
/// bounds the count (BinaryReader::count).
template <class T>
std::size_t encoded_size() {
  static const std::size_t size = [] {
    BinaryWriter w;
    w(T{});
    return w.data().size();
  }();
  return size;
}

/// Bounds-checked reader over one section's bytes.  Out-of-bounds reads
/// throw (DGS_ENSURE) rather than abort: a truncated section inside a
/// checkpoint whose CRC passed is still caller-recoverable corruption.
class BinaryReader {
 public:
  static constexpr bool kReading = true;

  explicit BinaryReader(std::string_view data, IndexBounds bounds = {})
      : data_(data), bounds_(bounds) {}

  /// Fills `out` with consecutive double fields.
  void f64s(std::span<double> out) {
    need(out.size_bytes());
    if (out.empty()) return;  // memcpy's null-pointer rule.
    if constexpr (util::kHostIsLittleEndian) {
      std::memcpy(out.data(), data_.data() + i_, out.size_bytes());
      i_ += out.size_bytes();
    } else {
      for (double& d : out) field(d);
    }
  }

  template <class... T>
  void operator()(T&... fields) { (field(fields), ...); }
  template <class T>
  void same(const T& live, std::string_view what) {
    T v{};
    field(v);
    DGS_ENSURE(v == live, "checkpoint " << what << " is " << +v
                                        << ", this session has " << +live);
  }
  template <class T>
  void same(T& run, std::size_t n, std::string_view what) {
    const std::size_t got = count(encoded_size<codec::Element<T>>());
    DGS_ENSURE(got == n, "checkpoint " << what << " is " << got
                                       << ", this session has " << n);
    elements(run, n);
  }
  template <class I>
  void index(I& i, std::int64_t n, std::string_view what, int first = 0) {
    field(i);
    DGS_ENSURE(i >= first && i < n, "checkpoint " << what << " " << i
                                                  << " is out of range ["
                                                  << first << ", " << n
                                                  << ")");
  }
  template <class... T>
  void exclude(const T&...) {}
  const IndexBounds& bounds() const { return bounds_; }

  /// Rejects bytes left over after a section's visitor ran.
  void finish(std::string_view section) const {
    DGS_ENSURE(i_ == data_.size(),
               "trailing bytes in checkpoint section '" << section << "'");
  }
 private:
  std::size_t remaining() const { return data_.size() - i_; }
  /// A u64 element count, checked against the bytes left: `n` elements
  /// of at least `min_elem_bytes` each must fit, so a corrupt count is a
  /// named error before the caller sizes anything by it.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = get<std::uint64_t>();
    DGS_ENSURE(n <= remaining() / min_elem_bytes,
               "checkpoint section truncated: " << n << " elements of >= "
                                                << min_elem_bytes
                                                << " bytes, have "
                                                << remaining());
    return static_cast<std::size_t>(n);
  }
  void need(std::size_t n) const {
    DGS_ENSURE(data_.size() - i_ >= n,
               "checkpoint section truncated: need " << n << " bytes, have "
                                                     << data_.size() - i_);
  }
  template <std::unsigned_integral T>
  T get() {
    need(sizeof(T));
    const T v = util::load_le<T>(data_.data() + i_);
    i_ += sizeof(T);
    return v;
  }

  template <class T>
  void field(T& v) {
    if constexpr (codec::Scalar<T>) {
      v = codec::from_wire<T>(get<decltype(codec::to_wire(v))>());
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::uint32_t n = get<std::uint32_t>();
      need(n);
      v.assign(data_.substr(i_, n));
      i_ += n;
    } else if constexpr (codec::kIsPair<T>) {
      (*this)(v.first, v.second);
    } else if constexpr (codec::Counted<T>) {
      const std::size_t n = count(encoded_size<codec::Element<T>>());
      v.clear();
      elements(v, n);
    } else {
      codec::visit_record(*this, v);
    }
  }

  /// Reads `n` elements into a run.  A sequence is resized to `n` and
  /// read in place, so a same() run keeps the live state its records do
  /// not visit (e.g. a queue's capacity); a map gains the elements.
  template <class T>
  void elements(T& run, std::size_t n) {
    if constexpr (std::is_same_v<T, std::vector<double>>) {
      run.resize(n);
      f64s(run);
    } else if constexpr (requires { typename T::mapped_type; }) {
      for (std::size_t k = 0; k < n; ++k) {
        codec::Element<T> e;
        field(e);
        run.emplace_hint(run.end(), std::move(e));
      }
    } else {
      run.resize(n);
      for (auto& e : run) field(e);
    }
  }

  std::string_view data_;
  std::size_t i_ = 0;
  IndexBounds bounds_;
};

/// An epoch travels as its two Julian-date parts; from_parts restores
/// them bit for bit.
template <class Ar>
void visit(Ar& ar, util::Epoch& e) {
  double whole = e.jd_whole();
  double frac = e.jd_frac();
  ar(whole, frac);
  if constexpr (Ar::kReading) e = util::Epoch::from_parts(whole, frac);
}

template <class Ar>
void visit(Ar& ar, util::Vec3& v) {
  ar(v.x, v.y, v.z);
}

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
