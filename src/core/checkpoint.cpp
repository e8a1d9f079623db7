#include "src/core/checkpoint.h"

#include <cinttypes>
#include <cstdio>

#include "src/util/crc32.h"

namespace dgs::core {
namespace {

std::optional<ArtifactError> err(std::string where, std::string message) {
  return ArtifactError{std::move(where), std::move(message)};
}

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace

std::string render_checkpoint_header(const CheckpointHeader& h) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\": %d, \"artifact\": \"checkpoint\", "
      "\"num_satellites\": %d, \"num_stations\": %d, \"steps\": %" PRId64
      ", \"step_index\": %" PRId64
      ", \"step_seconds\": %.6f, \"duration_hours\": %.6f, "
      "\"finalized\": %s, \"options_crc32\": %" PRIu32
      ", \"sections\": %zu, \"payload_bytes\": %" PRIu64
      ", \"payload_crc32\": %" PRIu32 "}",
      kRunArtifactSchemaVersion, h.num_satellites, h.num_stations, h.steps,
      h.step_index, h.step_seconds, h.duration_hours,
      h.finalized ? "true" : "false", h.options_crc32,
      checkpoint_section_names().size(), h.payload_bytes, h.payload_crc32);
  return std::string(buf);
}

void write_checkpoint(
    std::ostream& out, CheckpointHeader header,
    std::span<const std::pair<std::string, std::string>> sections) {
  const auto names = checkpoint_section_names();
  DGS_ENSURE_EQ(sections.size(), names.size());
  // The payload is the frames and bodies in file order; its size and CRC
  // accumulate over the pieces, so it is never materialized.
  std::vector<std::string> frames;
  frames.reserve(sections.size());
  std::uint32_t crc = util::crc32_init();
  header.payload_bytes = 0;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    DGS_ENSURE(sections[i].first == names[i],
               "checkpoint section " << i << " must be '" << names[i]
                                     << "', got '" << sections[i].first
                                     << "'");
    const std::string& body = sections[i].second;
    BinaryWriter frame;
    frame.str(sections[i].first);
    frame.u64(body.size());
    frames.push_back(frame.take());
    crc = util::crc32_update(crc, as_bytes(frames.back()));
    crc = util::crc32_update(crc, as_bytes(body));
    header.payload_bytes += frames.back().size() + body.size();
  }
  header.payload_crc32 = util::crc32_final(crc);
  const std::string header_json = render_checkpoint_header(header);
  // Emitting through our own validator guarantees the writer can never
  // produce a header the reader rejects.
  if (auto e = validate_checkpoint_header_json(header_json)) {
    DGS_CHECK(false, "checkpoint writer produced an invalid header: " +
                         e->where + ": " + e->message);
  }
  out << kCheckpointMagic;
  BinaryWriter len;
  len.u64(header_json.size());
  out << len.data() << header_json;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    out << frames[i] << sections[i].second;
  }
}

std::string_view CheckpointView::section(std::string_view name) const {
  for (const auto& [n, body] : sections) {
    if (n == name) return body;
  }
  DGS_CHECK(false, "unknown checkpoint section requested");
  return {};
}

std::optional<ArtifactError> read_checkpoint(std::string_view data,
                                             CheckpointView* out) {
  if (data.substr(0, kCheckpointMagic.size()) != kCheckpointMagic) {
    return err("checkpoint", "missing dgs.checkpoint.v1 magic");
  }
  std::size_t at = kCheckpointMagic.size();
  if (data.size() - at < 8) {
    return err("checkpoint", "truncated before the header length");
  }
  const auto header_len = util::load_le<std::uint64_t>(data.data() + at);
  at += 8;
  if (header_len > data.size() - at) {
    return err("checkpoint", "header length exceeds the file");
  }
  const std::string_view header_json = data.substr(at, header_len);
  at += header_len;
  if (auto e = validate_checkpoint_header_json(header_json)) return e;

  // Re-parse into the struct; the validator already pinned shape+ranges.
  const JsonValue doc = *parse_restricted_json(header_json);
  CheckpointHeader h;
  h.num_satellites = static_cast<int>(doc.find("num_satellites")->number);
  h.num_stations = static_cast<int>(doc.find("num_stations")->number);
  h.steps = static_cast<std::int64_t>(doc.find("steps")->number);
  h.step_index = static_cast<std::int64_t>(doc.find("step_index")->number);
  h.step_seconds = doc.find("step_seconds")->number;
  h.duration_hours = doc.find("duration_hours")->number;
  h.finalized = doc.find("finalized")->boolean;
  h.options_crc32 =
      static_cast<std::uint32_t>(doc.find("options_crc32")->number);
  h.payload_bytes =
      static_cast<std::uint64_t>(doc.find("payload_bytes")->number);
  h.payload_crc32 =
      static_cast<std::uint32_t>(doc.find("payload_crc32")->number);

  const std::string_view payload = data.substr(at);
  if (payload.size() != h.payload_bytes) {
    return err("checkpoint.payload_bytes",
               "header says " + std::to_string(h.payload_bytes) +
                   " payload bytes, file has " +
                   std::to_string(payload.size()));
  }
  if (util::crc32(as_bytes(payload)) != h.payload_crc32) {
    return err("checkpoint.payload_crc32", "payload CRC mismatch");
  }

  const auto names = checkpoint_section_names();
  std::vector<std::pair<std::string, std::string_view>> sections;
  std::size_t p = 0;
  for (const char* expected : names) {
    const std::string where = std::string("checkpoint.") + expected;
    if (payload.size() - p < 4) return err(where, "truncated section name");
    const auto name_len = util::load_le<std::uint32_t>(payload.data() + p);
    p += 4;
    if (payload.size() - p < name_len) {
      return err(where, "truncated section name");
    }
    const std::string_view name = payload.substr(p, name_len);
    p += name_len;
    if (name != expected) {
      return err(where, "expected section '" + std::string(expected) +
                            "', got '" + std::string(name) + "'");
    }
    if (payload.size() - p < 8) return err(where, "truncated section size");
    const auto body_len = util::load_le<std::uint64_t>(payload.data() + p);
    p += 8;
    if (payload.size() - p < body_len) {
      return err(where, "section body exceeds the payload");
    }
    sections.emplace_back(std::string(name), payload.substr(p, body_len));
    p += body_len;
  }
  if (p != payload.size()) {
    return err("checkpoint", "trailing bytes after the final section");
  }
  if (out != nullptr) {
    out->header = h;
    out->sections = std::move(sections);
  }
  return std::nullopt;
}

std::optional<ArtifactError> validate_checkpoint(std::string_view data) {
  return read_checkpoint(data, nullptr);
}

}  // namespace dgs::core
