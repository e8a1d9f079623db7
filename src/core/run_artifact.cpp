#include "src/core/run_artifact.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>

#include "src/core/report.h"
#include "src/util/check.h"

namespace dgs::core {
namespace {

std::optional<ArtifactError> err(std::string where, std::string message) {
  return ArtifactError{std::move(where), std::move(message)};
}

/// True when `v` is an exact integer the double can represent losslessly.
bool is_integral(double v) {
  return std::nearbyint(v) == v && std::abs(v) < 9.007199254740992e15;
}

// --- Restricted JSON parser ------------------------------------------------

constexpr int kMaxDepth = 8;

struct Cursor {
  std::string_view s;
  std::size_t i = 0;

  bool done() const { return i >= s.size(); }
  char peek() const { return s[i]; }
  void skip_ws() {
    while (!done() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
};

bool fail(const Cursor& c, ArtifactError* e, const char* message) {
  if (e != nullptr) {
    *e = ArtifactError{"offset " + std::to_string(c.i), message};
  }
  return false;
}

bool parse_value(Cursor& c, JsonValue* out, int depth, ArtifactError* e);

bool parse_string_body(Cursor& c, std::string* out, ArtifactError* e) {
  if (c.done() || c.peek() != '"') return fail(c, e, "expected '\"'");
  ++c.i;
  out->clear();
  while (!c.done()) {
    const char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (ch == '\\') {
      // The writers only ever escape '"' and '\\'; anything fancier is
      // outside the artifact subset.
      if (c.done()) return fail(c, e, "dangling escape");
      const char esc = c.s[c.i++];
      if (esc != '"' && esc != '\\') {
        return fail(c, e, "unsupported escape in artifact string");
      }
      out->push_back(esc);
      continue;
    }
    out->push_back(ch);
  }
  return fail(c, e, "unterminated string");
}

bool parse_literal(Cursor& c, std::string_view lit, ArtifactError* e) {
  if (c.s.substr(c.i, lit.size()) != lit) {
    return fail(c, e, "unrecognized literal");
  }
  c.i += lit.size();
  return true;
}

bool parse_object(Cursor& c, JsonValue* out, int depth, ArtifactError* e) {
  if (depth >= kMaxDepth) return fail(c, e, "nesting too deep");
  ++c.i;  // consumes '{'
  out->kind = JsonValue::Kind::kObject;
  c.skip_ws();
  if (!c.done() && c.peek() == '}') {
    ++c.i;
    return true;
  }
  while (true) {
    c.skip_ws();
    std::string key;
    if (!parse_string_body(c, &key, e)) return false;
    c.skip_ws();
    if (c.done() || c.peek() != ':') return fail(c, e, "expected ':'");
    ++c.i;
    JsonValue value;
    if (!parse_value(c, &value, depth + 1, e)) return false;
    out->members.emplace_back(std::move(key), std::move(value));
    c.skip_ws();
    if (c.done()) return fail(c, e, "unterminated object");
    if (c.peek() == ',') {
      ++c.i;
      continue;
    }
    if (c.peek() == '}') {
      ++c.i;
      return true;
    }
    return fail(c, e, "expected ',' or '}'");
  }
}

bool parse_value(Cursor& c, JsonValue* out, int depth, ArtifactError* e) {
  c.skip_ws();
  if (c.done()) return fail(c, e, "unexpected end of document");
  switch (c.peek()) {
    case '{':
      return parse_object(c, out, depth, e);
    case '[':
      return fail(c, e, "arrays are outside the artifact JSON subset");
    case '"':
      out->kind = JsonValue::Kind::kString;
      return parse_string_body(c, &out->text, e);
    case 't':
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return parse_literal(c, "true", e);
    case 'f':
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return parse_literal(c, "false", e);
    case 'n':
      out->kind = JsonValue::Kind::kNull;
      return parse_literal(c, "null", e);
    default: {
      // Strict JSON number grammar, scanned before conversion: strtod
      // alone would also accept hex / inf / nan spellings, which are
      // outside the artifact subset.
      const std::size_t start = c.i;
      const auto digit_run = [&c] {
        const std::size_t from = c.i;
        while (!c.done() && c.peek() >= '0' && c.peek() <= '9') ++c.i;
        return c.i - from;
      };
      if (!c.done() && c.peek() == '-') ++c.i;
      const std::size_t int_start = c.i;
      if (digit_run() == 0) {
        c.i = start;
        return fail(c, e, "expected a JSON value");
      }
      if (c.s[int_start] == '0' && c.i - int_start > 1) {
        return fail(c, e, "malformed number");
      }
      if (!c.done() && c.peek() == '.') {
        ++c.i;
        if (digit_run() == 0) return fail(c, e, "malformed number");
      }
      if (!c.done() && (c.peek() == 'e' || c.peek() == 'E')) {
        ++c.i;
        if (!c.done() && (c.peek() == '+' || c.peek() == '-')) ++c.i;
        if (digit_run() == 0) return fail(c, e, "malformed number");
      }
      const std::string token(c.s.substr(start, c.i - start));
      out->kind = JsonValue::Kind::kNumber;
      out->number = std::strtod(token.c_str(), nullptr);
      return true;
    }
  }
}

// --- Summary schema table --------------------------------------------------

using enum SummaryFieldKind;

constexpr SummaryFieldSpec kSummaryFields[] = {
    {"schema_version", kInt},
    {"latency_minutes", kStats},
    {"urgent_latency_minutes", kStats},
    {"backlog_gb", kStats},
    {"ack_delay_minutes", kStats},
    {"cloud_latency_minutes", kStats},
    {"total_generated_tb", kReal},
    {"total_delivered_tb", kReal},
    {"total_dropped_tb", kReal},
    {"delivered_fraction", kReal},
    {"assignments", kInt},
    {"failed_assignments", kInt},
    {"wasted_transmission_tb", kReal},
    {"requeued_tb", kReal},
    {"slew_events", kInt},
    {"outage_lost_tb", kReal},
    {"ack_retries", kInt},
    {"replans", kInt},
    {"plan_upload_failures", kInt},
    {"mean_station_utilization", kReal},
    {"steps", kInt},
    {"tenants", kTenants},
};

constexpr const char* kStatsMembers[] = {"median", "p90", "p99", "mean",
                                         "count"};

using enum TenantFieldKind;

constexpr TenantFieldSpec kTenantFields[] = {
    {"name", kTString},
    {"weight", kTReal},
    {"num_satellites", kTInt},
    {"delivered_tb", kTReal},
    {"entitlement", kTReal},
    {"share", kTReal},
    {"sla_latency_minutes", kTReal},
    {"sla_attainment", kTReal},
    {"latency_minutes", kTStats},
};

constexpr const char* kAggregateMetricMembers[] = {
    "mean", "sd", "ci95", "p50", "p99", "min", "max", "count"};

// Netdesign front schema tables (see netdesign_identity_specs /
// netdesign_point_specs in the header).  Writer: src/netdesign/pareto.cpp
// iterates exactly these tables, so writer and validator cannot drift.
using enum NetdesignFieldKind;

constexpr NetdesignFieldSpec kNetdesignIdentity[] = {
    {"pool_size", kNInt},
    {"pool_seed", kNInt},
    {"num_satellites", kNInt},
    {"network_seed", kNInt},
    {"weather_seed", kNInt},
    {"duration_hours", kNReal},
    {"step_seconds", kNReal},
};

constexpr NetdesignFieldSpec kNetdesignPoint[] = {
    {"stations", kNInt},
    {"cost", kNReal},
    {"objective_gb", kNReal},
    {"latency_p50_min", kNReal},
    {"latency_p90_min", kNReal},
    {"backlog_end_gb", kNReal},
    {"delivered_fraction", kNReal},
    {"dominated", kNBool},
    {"station_ids", kNString},
};

// Checkpoint header identity (emitted after schema_version + the
// "checkpoint" tag).  Writer: src/core/checkpoint.cpp iterates exactly this
// table.
constexpr NetdesignFieldSpec kCheckpointHeader[] = {
    {"num_satellites", kNInt},
    {"num_stations", kNInt},
    {"steps", kNInt},
    {"step_index", kNInt},
    {"step_seconds", kNReal},
    {"duration_hours", kNReal},
    {"finalized", kNBool},
    {"options_crc32", kNInt},
    {"sections", kNInt},
    {"payload_bytes", kNInt},
    {"payload_crc32", kNInt},
};

constexpr const char* kCheckpointSections[] = {
    "result", "queues", "stations", "planner",
    "geometry", "matcher", "tenants", "metrics"};

/// Campaign identity fields shared by the manifest and the aggregate
/// (emitted after schema_version and the artifact tag, in this order).
enum class CampaignFieldKind { kCInt, kCReal, kCString };
struct CampaignFieldSpec {
  const char* key;
  CampaignFieldKind kind;
};
constexpr CampaignFieldSpec kCampaignIdentity[] = {
    {"profile", CampaignFieldKind::kCString},
    {"campaign_seed", CampaignFieldKind::kCInt},
    {"samples", CampaignFieldKind::kCInt},
    {"duration_hours", CampaignFieldKind::kCReal},
    {"step_seconds", CampaignFieldKind::kCReal},
    {"num_satellites", CampaignFieldKind::kCInt},
    {"num_stations", CampaignFieldKind::kCInt},
    {"network_seed", CampaignFieldKind::kCInt},
    {"weather_seed", CampaignFieldKind::kCInt},
};

/// Appends decimal digit `d` to `*v`; false, leaving `*v` as it was, when
/// the result would not fit in a long long.
bool push_digit(long long* v, int d) {
  if (*v > (std::numeric_limits<long long>::max() - d) / 10) return false;
  *v = *v * 10 + d;
  return true;
}

std::optional<ArtifactError> check_number(const JsonValue& v,
                                          const std::string& where,
                                          bool integral) {
  if (v.kind != JsonValue::Kind::kNumber) {
    return err(where, "expected a number");
  }
  if (integral && !is_integral(v.number)) {
    return err(where, "expected an integer-valued number");
  }
  return std::nullopt;
}

std::optional<ArtifactError> check_stats_object(const JsonValue& v,
                                                const std::string& where) {
  if (v.kind == JsonValue::Kind::kNull) return std::nullopt;
  if (v.kind != JsonValue::Kind::kObject) {
    return err(where, "expected a percentile object or null");
  }
  const auto keys = stats_member_keys();
  if (v.members.size() != keys.size()) {
    return err(where, "percentile object must have exactly " +
                          std::to_string(keys.size()) + " members");
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (v.members[i].first != keys[i]) {
      return err(where + "." + v.members[i].first,
                 std::string("expected key \"") + keys[i] +
                     "\" at this position");
    }
    if (auto e = check_number(v.members[i].second, where + "." + keys[i],
                              keys[i] == std::string_view("count"))) {
      return e;
    }
  }
  const JsonValue* count = v.find("count");
  if (count->number < 1.0) {
    return err(where + ".count", "must be >= 1 (empty sets are null)");
  }
  return std::nullopt;
}

std::optional<ArtifactError> check_tenants_object(const JsonValue& v,
                                                  const std::string& where) {
  if (v.kind == JsonValue::Kind::kNull) return std::nullopt;
  if (v.kind != JsonValue::Kind::kObject) {
    return err(where, "expected a tenants object or null");
  }
  if (v.members.empty()) {
    return err(where, "empty runs emit null, not an empty object");
  }
  long long index = 0;
  for (const auto& [key, row] : v.members) {
    const std::string row_where = where + "." + key;
    // Keys are "t_%03d" in declaration order (the netdesign "k_%03d"
    // convention, since the restricted subset has no arrays).
    char expected[24];
    std::snprintf(expected, sizeof(expected), "t_%03lld", index);
    if (key != expected) {
      return err(row_where, std::string("expected key \"") + expected +
                                "\" at this position");
    }
    ++index;
    if (row.kind != JsonValue::Kind::kObject) {
      return err(row_where, "expected an object");
    }
    const auto specs = tenant_field_specs();
    if (row.members.size() != specs.size()) {
      return err(row_where, "expected exactly " +
                                std::to_string(specs.size()) + " members");
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& [k, val] = row.members[i];
      const std::string field = row_where + "." + specs[i].key;
      if (k != specs[i].key) {
        return err(row_where + "." + k,
                   std::string("expected key \"") + specs[i].key +
                       "\" at this position");
      }
      switch (specs[i].kind) {
        case kTInt:
          if (auto e = check_number(val, field, true)) return e;
          break;
        case kTReal:
          if (auto e = check_number(val, field, false)) return e;
          break;
        case kTString:
          if (val.kind != JsonValue::Kind::kString || val.text.empty()) {
            return err(field, "expected a non-empty string");
          }
          break;
        case kTStats:
          if (auto e = check_stats_object(val, field)) return e;
          break;
      }
    }
    if (row.find("weight")->number <= 0.0) {
      return err(row_where + ".weight", "must be > 0");
    }
    for (const char* frac : {"entitlement", "share", "sla_attainment"}) {
      const double f = row.find(frac)->number;
      if (f < 0.0 || f > 1.0) {
        return err(row_where + "." + frac, "must be in [0, 1]");
      }
    }
  }
  return std::nullopt;
}

/// Shared header check: first member schema_version == current, second
/// member the artifact tag.  Fills `*next` with the index of the first
/// member after the header.
std::optional<ArtifactError> check_artifact_header(
    const JsonValue& root, const std::string& where,
    std::string_view expected_tag, std::size_t* next) {
  if (root.kind != JsonValue::Kind::kObject) {
    return err(where, "expected a JSON object");
  }
  if (root.members.size() < 2 ||
      root.members[0].first != "schema_version") {
    return err(where + ".schema_version", "must be the first key");
  }
  const JsonValue& version = root.members[0].second;
  if (auto e = check_number(version, where + ".schema_version", true)) {
    return e;
  }
  if (static_cast<int>(version.number) != kRunArtifactSchemaVersion) {
    return err(where + ".schema_version",
               "expected version " +
                   std::to_string(kRunArtifactSchemaVersion) + ", got " +
                   std::to_string(static_cast<int>(version.number)));
  }
  if (root.members[1].first != "artifact" ||
      root.members[1].second.kind != JsonValue::Kind::kString) {
    return err(where + ".artifact",
               "must be the second key, with a string value");
  }
  if (root.members[1].second.text != expected_tag) {
    return err(where + ".artifact",
               "expected \"" + std::string(expected_tag) + "\", got \"" +
                   root.members[1].second.text + "\"");
  }
  *next = 2;
  return std::nullopt;
}

std::optional<ArtifactError> check_campaign_identity(
    const JsonValue& root, const std::string& where, std::size_t* at) {
  for (const CampaignFieldSpec& f : kCampaignIdentity) {
    if (*at >= root.members.size() || root.members[*at].first != f.key) {
      return err(where + "." + f.key, "missing or out of order");
    }
    const JsonValue& v = root.members[*at].second;
    const std::string field = where + "." + f.key;
    switch (f.kind) {
      case CampaignFieldKind::kCInt:
        if (auto e = check_number(v, field, true)) return e;
        break;
      case CampaignFieldKind::kCReal:
        if (auto e = check_number(v, field, false)) return e;
        break;
      case CampaignFieldKind::kCString:
        if (v.kind != JsonValue::Kind::kString || v.text.empty()) {
          return err(field, "expected a non-empty string");
        }
        break;
    }
    ++*at;
  }
  return std::nullopt;
}

// --- Summary writer value mapping -----------------------------------------

long long int_field(const SimulationResult& r, std::string_view key) {
  if (key == "schema_version") return kRunArtifactSchemaVersion;
  if (key == "assignments") return r.assignments;
  if (key == "failed_assignments") return r.failed_assignments;
  if (key == "slew_events") return r.slew_events;
  if (key == "ack_retries") return r.ack_retries;
  if (key == "replans") return r.replans;
  if (key == "plan_upload_failures") return r.plan_upload_failures;
  if (key == "steps") return r.steps;
  DGS_CHECK(false, "unmapped integer summary field");
  return 0;
}

double real_field(const SimulationResult& r, std::string_view key) {
  if (key == "total_generated_tb") return r.total_generated_bytes / 1e12;
  if (key == "total_delivered_tb") return r.total_delivered_bytes / 1e12;
  if (key == "total_dropped_tb") return r.total_dropped_bytes / 1e12;
  if (key == "delivered_fraction") return r.delivered_fraction();
  if (key == "wasted_transmission_tb") {
    return r.wasted_transmission_bytes / 1e12;
  }
  if (key == "requeued_tb") return r.requeued_bytes / 1e12;
  if (key == "outage_lost_tb") return r.outage_lost_bytes / 1e12;
  if (key == "mean_station_utilization") return r.mean_station_utilization;
  DGS_CHECK(false, "unmapped real summary field");
  return 0.0;
}

const util::SampleSet& stats_field(const SimulationResult& r,
                                   std::string_view key) {
  if (key == "latency_minutes") return r.latency_minutes;
  if (key == "urgent_latency_minutes") return r.urgent_latency_minutes;
  if (key == "backlog_gb") return r.backlog_gb;
  if (key == "ack_delay_minutes") return r.ack_delay_minutes;
  DGS_CHECK(key == "cloud_latency_minutes",
            "unmapped percentile summary field");
  return r.cloud_latency_minutes;
}

// --- Netdesign front helpers -----------------------------------------------

std::optional<ArtifactError> check_netdesign_field(const JsonValue& v,
                                                   const std::string& where,
                                                   NetdesignFieldKind kind) {
  switch (kind) {
    case kNInt:
      return check_number(v, where, true);
    case kNReal:
      return check_number(v, where, false);
    case kNBool:
      if (v.kind != JsonValue::Kind::kBool) {
        return err(where, "expected true or false");
      }
      return std::nullopt;
    case kNString:
      if (v.kind != JsonValue::Kind::kString || v.text.empty()) {
        return err(where, "expected a non-empty string");
      }
      return std::nullopt;
  }
  return std::nullopt;
}

/// "3,17,42" -> strictly ascending non-negative id count, or -1 on any
/// malformation (an id too large for a long long included).
int station_ids_count(const std::string& text) {
  int count = 0;
  long long prev = -1;
  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t j = i;
    long long v = 0;
    while (j < text.size() && text[j] >= '0' && text[j] <= '9') {
      if (!push_digit(&v, text[j] - '0')) return -1;
      ++j;
    }
    if (j == i) return -1;           // empty token
    if (v <= prev) return -1;        // not strictly ascending
    prev = v;
    ++count;
    if (j == text.size()) break;
    if (text[j] != ',') return -1;
    i = j + 1;
    if (i == text.size()) return -1;  // trailing comma
  }
  return count;
}

std::optional<ArtifactError> check_netdesign_point(const JsonValue& p,
                                                   const std::string& where) {
  if (p.kind != JsonValue::Kind::kObject) {
    return err(where, "expected an object");
  }
  const auto specs = netdesign_point_specs();
  if (p.members.size() != specs.size()) {
    return err(where, "expected exactly " + std::to_string(specs.size()) +
                          " members");
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (p.members[i].first != specs[i].key) {
      return err(where + "." + p.members[i].first,
                 std::string("expected key \"") + specs[i].key +
                     "\" at this position");
    }
    if (auto e = check_netdesign_field(p.members[i].second,
                                       where + "." + specs[i].key,
                                       specs[i].kind)) {
      return e;
    }
  }
  const double stations = p.find("stations")->number;
  if (stations < 1.0 || stations > std::numeric_limits<int>::max()) {
    return err(where + ".stations", "must be in [1, 2^31)");
  }
  const double frac = p.find("delivered_fraction")->number;
  if (frac < 0.0 || frac > 1.0) {
    return err(where + ".delivered_fraction", "must be in [0, 1]");
  }
  const int ids = station_ids_count(p.find("station_ids")->text);
  if (ids < 0) {
    return err(where + ".station_ids",
               "expected comma-joined strictly ascending station ids");
  }
  if (ids != static_cast<int>(stations)) {
    return err(where + ".station_ids",
               "lists " + std::to_string(ids) + " ids but stations is " +
                   std::to_string(static_cast<int>(stations)));
  }
  return std::nullopt;
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<JsonValue> parse_restricted_json(std::string_view text,
                                               ArtifactError* err_out) {
  Cursor c{text};
  JsonValue v;
  if (!parse_value(c, &v, 0, err_out)) return std::nullopt;
  c.skip_ws();
  if (!c.done()) {
    fail(c, err_out, "trailing content after the document");
    return std::nullopt;
  }
  return v;
}

std::span<const SummaryFieldSpec> summary_field_specs() {
  return kSummaryFields;
}

std::span<const char* const> stats_member_keys() { return kStatsMembers; }

std::span<const TenantFieldSpec> tenant_field_specs() {
  return kTenantFields;
}

std::span<const NetdesignFieldSpec> checkpoint_header_specs() {
  return kCheckpointHeader;
}

std::span<const char* const> checkpoint_section_names() {
  return kCheckpointSections;
}

std::span<const char* const> aggregate_metric_member_keys() {
  return kAggregateMetricMembers;
}

std::span<const NetdesignFieldSpec> netdesign_identity_specs() {
  return kNetdesignIdentity;
}

std::span<const NetdesignFieldSpec> netdesign_point_specs() {
  return kNetdesignPoint;
}

std::string_view timeseries_csv_header() {
  return "hours,delivered_tb_cum,backlog_gb_total,active_links,"
         "failed_links_cum";
}

std::optional<ArtifactError> validate_summary_json(std::string_view text) {
  ArtifactError parse_err;
  const auto doc = parse_restricted_json(text, &parse_err);
  if (!doc) return err("summary", parse_err.where + ": " + parse_err.message);
  if (doc->kind != JsonValue::Kind::kObject) {
    return err("summary", "expected a JSON object");
  }
  const auto specs = summary_field_specs();
  if (doc->members.size() != specs.size()) {
    return err("summary", "expected exactly " +
                              std::to_string(specs.size()) + " keys, got " +
                              std::to_string(doc->members.size()));
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& [key, value] = doc->members[i];
    const std::string where = "summary." + key;
    if (key != specs[i].key) {
      return err(where, std::string("expected key \"") + specs[i].key +
                            "\" at this position");
    }
    switch (specs[i].kind) {
      case kInt:
        if (auto e = check_number(value, where, true)) return e;
        break;
      case kReal:
        if (auto e = check_number(value, where, false)) return e;
        break;
      case kStats:
        if (auto e = check_stats_object(value, where)) return e;
        break;
      case kTenants:
        if (auto e = check_tenants_object(value, where)) return e;
        break;
    }
  }
  const int version = static_cast<int>(doc->members[0].second.number);
  if (version != kRunArtifactSchemaVersion) {
    return err("summary.schema_version",
               "expected version " +
                   std::to_string(kRunArtifactSchemaVersion) + ", got " +
                   std::to_string(version));
  }
  return std::nullopt;
}

std::optional<ArtifactError> validate_timeseries_csv(std::string_view text) {
  std::size_t pos = 0;
  int line_no = 0;
  double prev_hours = -1.0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    const std::string where = "timeseries line " + std::to_string(line_no);
    if (line_no == 1) {
      if (line != timeseries_csv_header()) {
        return err(where, "header does not match the schema");
      }
      continue;
    }
    if (line.empty()) return err(where, "empty row");
    // Exactly 5 columns, each a complete number.
    int col = 0;
    std::size_t field_start = 0;
    double hours = 0.0;
    for (std::size_t j = 0; j <= line.size(); ++j) {
      if (j != line.size() && line[j] != ',') continue;
      const std::string field(line.substr(field_start, j - field_start));
      char* end = nullptr;
      const double v = std::strtod(field.c_str(), &end);
      if (field.empty() || end != field.c_str() + field.size()) {
        return err(where, "column " + std::to_string(col + 1) +
                              " is not a number: \"" + field + "\"");
      }
      if (col == 0) hours = v;
      ++col;
      field_start = j + 1;
    }
    if (col != 5) {
      return err(where,
                 "expected 5 columns, got " + std::to_string(col));
    }
    if (hours <= prev_hours) {
      return err(where, "hours must be strictly increasing");
    }
    prev_hours = hours;
  }
  if (line_no == 0) return err("timeseries", "missing header row");
  return std::nullopt;
}

std::optional<ArtifactError> validate_events_jsonl(std::string_view text) {
  std::size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    // NUL-terminated copy: the number scanner is strtod-based.
    const std::string line(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    const std::string where = "events line " + std::to_string(line_no);
    ArtifactError parse_err;
    const auto doc = parse_restricted_json(line, &parse_err);
    if (!doc) return err(where, parse_err.where + ": " + parse_err.message);
    if (doc->kind != JsonValue::Kind::kObject || doc->members.size() < 3) {
      return err(where, "expected an object with at least 3 members");
    }
    if (doc->members[0].first != "t_hours" ||
        doc->members[0].second.kind != JsonValue::Kind::kNumber) {
      return err(where, "member 1 must be \"t_hours\": <number>");
    }
    const JsonValue& step = doc->members[1].second;
    if (doc->members[1].first != "step" ||
        step.kind != JsonValue::Kind::kNumber ||
        !is_integral(step.number) || step.number < 0.0) {
      return err(where, "member 2 must be \"step\": <integer >= 0>");
    }
    if (doc->members[2].first != "type" ||
        doc->members[2].second.kind != JsonValue::Kind::kString ||
        doc->members[2].second.text.empty()) {
      return err(where, "member 3 must be \"type\": <non-empty string>");
    }
    for (std::size_t i = 3; i < doc->members.size(); ++i) {
      if (doc->members[i].second.kind == JsonValue::Kind::kObject) {
        return err(where + "." + doc->members[i].first,
                   "event payloads are flat (no nested objects)");
      }
    }
  }
  return std::nullopt;
}

double RunSummary::scalar(std::string_view key) const {
  const JsonValue* v = root.find(key);
  DGS_CHECK(v != nullptr && v->kind == JsonValue::Kind::kNumber,
            "RunSummary::scalar on a non-scalar field");
  return v->number;
}

const JsonValue* RunSummary::stats(std::string_view key) const {
  const JsonValue* v = root.find(key);
  DGS_CHECK(v != nullptr, "RunSummary::stats on an unknown field");
  return v->kind == JsonValue::Kind::kObject ? v : nullptr;
}

std::optional<ArtifactError> parse_summary_json(std::string_view text,
                                                RunSummary* out) {
  if (auto e = validate_summary_json(text)) return e;
  out->root = *parse_restricted_json(text);
  return std::nullopt;
}

std::optional<ArtifactError> validate_campaign_manifest_json(
    std::string_view text) {
  ArtifactError parse_err;
  const auto doc = parse_restricted_json(text, &parse_err);
  if (!doc) {
    return err("manifest", parse_err.where + ": " + parse_err.message);
  }
  std::size_t at = 0;
  if (auto e = check_artifact_header(*doc, "manifest", "campaign_manifest",
                                     &at)) {
    return e;
  }
  if (auto e = check_campaign_identity(*doc, "manifest", &at)) return e;
  if (at != doc->members.size()) {
    return err("manifest." + doc->members[at].first, "unknown trailing key");
  }
  return std::nullopt;
}

std::optional<ArtifactError> validate_campaign_aggregate_json(
    std::string_view text) {
  ArtifactError parse_err;
  const auto doc = parse_restricted_json(text, &parse_err);
  if (!doc) {
    return err("aggregate", parse_err.where + ": " + parse_err.message);
  }
  std::size_t at = 0;
  if (auto e = check_artifact_header(*doc, "aggregate",
                                     "campaign_aggregate", &at)) {
    return e;
  }
  if (auto e = check_campaign_identity(*doc, "aggregate", &at)) return e;
  if (at + 1 != doc->members.size() || doc->members[at].first != "metrics") {
    return err("aggregate.metrics", "must be the final key");
  }
  const JsonValue& metrics = doc->members[at].second;
  if (metrics.kind != JsonValue::Kind::kObject || metrics.members.empty()) {
    return err("aggregate.metrics", "expected a non-empty object");
  }
  for (const auto& [name, m] : metrics.members) {
    const std::string where = "aggregate.metrics." + name;
    if (m.kind != JsonValue::Kind::kObject) {
      return err(where, "expected an object");
    }
    const auto keys = aggregate_metric_member_keys();
    if (m.members.size() != keys.size()) {
      return err(where, "expected exactly " + std::to_string(keys.size()) +
                            " members");
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (m.members[i].first != keys[i]) {
        return err(where + "." + m.members[i].first,
                   std::string("expected key \"") + keys[i] +
                       "\" at this position");
      }
      if (auto e =
              check_number(m.members[i].second, where + "." + keys[i],
                           keys[i] == std::string_view("count"))) {
        return e;
      }
    }
    if (m.find("count")->number < 1.0) {
      return err(where + ".count", "must be >= 1");
    }
  }
  return std::nullopt;
}

std::optional<ArtifactError> validate_netdesign_front_json(
    std::string_view text) {
  ArtifactError parse_err;
  const auto doc = parse_restricted_json(text, &parse_err);
  if (!doc) {
    return err("front", parse_err.where + ": " + parse_err.message);
  }
  std::size_t at = 0;
  if (auto e = check_artifact_header(*doc, "front", "netdesign_front",
                                     &at)) {
    return e;
  }
  for (const NetdesignFieldSpec& f : netdesign_identity_specs()) {
    if (at >= doc->members.size() || doc->members[at].first != f.key) {
      return err(std::string("front.") + f.key, "missing or out of order");
    }
    if (auto e = check_netdesign_field(doc->members[at].second,
                                       std::string("front.") + f.key,
                                       f.kind)) {
      return e;
    }
    ++at;
  }
  if (at + 1 != doc->members.size() || doc->members[at].first != "points") {
    return err("front.points", "must be the final key");
  }
  const JsonValue& points = doc->members[at].second;
  if (points.kind != JsonValue::Kind::kObject || points.members.empty()) {
    return err("front.points", "expected a non-empty object");
  }
  long long prev_k = 0;
  for (const auto& [key, point] : points.members) {
    const std::string where = "front.points." + key;
    if (key.size() < 5 || key.compare(0, 2, "k_") != 0) {
      return err(where, "point keys must look like \"k_004\"");
    }
    long long k = 0;
    for (std::size_t i = 2; i < key.size(); ++i) {
      if (key[i] < '0' || key[i] > '9') {
        return err(where, "point keys must look like \"k_004\"");
      }
      if (!push_digit(&k, key[i] - '0')) {
        return err(where, "point key K is out of range");
      }
    }
    if (k <= prev_k) {
      return err(where, "point keys must be strictly ascending");
    }
    prev_k = k;
    if (auto e = check_netdesign_point(point, where)) return e;
    if (static_cast<long long>(point.find("stations")->number) != k) {
      return err(where + ".stations",
                 "must equal the K encoded in the point key");
    }
  }
  return std::nullopt;
}

std::optional<ArtifactError> validate_checkpoint_header_json(
    std::string_view text) {
  ArtifactError parse_err;
  const auto doc = parse_restricted_json(text, &parse_err);
  if (!doc) {
    return err("checkpoint", parse_err.where + ": " + parse_err.message);
  }
  std::size_t at = 0;
  if (auto e = check_artifact_header(*doc, "checkpoint", "checkpoint",
                                     &at)) {
    return e;
  }
  for (const NetdesignFieldSpec& f : checkpoint_header_specs()) {
    if (at >= doc->members.size() || doc->members[at].first != f.key) {
      return err(std::string("checkpoint.") + f.key,
                 "missing or out of order");
    }
    if (auto e = check_netdesign_field(doc->members[at].second,
                                       std::string("checkpoint.") + f.key,
                                       f.kind)) {
      return e;
    }
    ++at;
  }
  if (at != doc->members.size()) {
    return err("checkpoint." + doc->members[at].first,
               "unknown trailing key");
  }
  const auto field = [&doc](std::string_view key) {
    return doc->find(key)->number;
  };
  for (const char* positive : {"num_satellites", "num_stations", "steps"}) {
    if (field(positive) < 1.0) {
      return err(std::string("checkpoint.") + positive, "must be >= 1");
    }
  }
  // Restore narrows the fleet sizes to int.
  for (const char* count : {"num_satellites", "num_stations"}) {
    if (field(count) > std::numeric_limits<int>::max()) {
      return err(std::string("checkpoint.") + count, "must be in [1, 2^31)");
    }
  }
  if (field("step_seconds") <= 0.0 || field("duration_hours") <= 0.0) {
    return err("checkpoint.step_seconds", "grid must be positive");
  }
  if (field("step_index") < 0.0 || field("step_index") > field("steps")) {
    return err("checkpoint.step_index", "must be in [0, steps]");
  }
  for (const char* crc : {"options_crc32", "payload_crc32"}) {
    const double v = field(crc);
    if (v < 0.0 || v > 4294967295.0) {
      return err(std::string("checkpoint.") + crc,
                 "must fit an unsigned 32-bit value");
    }
  }
  if (field("payload_bytes") < 0.0) {
    return err("checkpoint.payload_bytes", "must be >= 0");
  }
  const auto names = checkpoint_section_names();
  if (field("sections") != static_cast<double>(names.size())) {
    return err("checkpoint.sections",
               "expected " + std::to_string(names.size()) + " sections");
  }
  return std::nullopt;
}

// --- Writers (declared in report.h; the schema table above is the
// contract they emit) -------------------------------------------------------

void write_timeseries_csv(std::ostream& out, const SimulationResult& result) {
  out << timeseries_csv_header() << "\n";
  char buf[128];
  for (const StepRecord& r : result.timeseries) {
    std::snprintf(buf, sizeof(buf), "%.4f,%.6f,%.3f,%d,%lld\n", r.hours,
                  r.delivered_bytes_cum / 1e12, r.backlog_bytes_total / 1e9,
                  r.active_links, static_cast<long long>(r.failed_cum));
    out << buf;
  }
}

namespace {

/// One tenant row of the summary "tenants" object, iterating
/// tenant_field_specs so the writer and validator share the key list.
/// Tenant names are emitted unescaped: validation restricts them to
/// [a-z][a-z0-9_]*, which needs no JSON escaping.
void write_tenant_object(std::ostream& out, const TenantOutcome& t) {
  char buf[192];
  const auto specs = tenant_field_specs();
  out << "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TenantFieldSpec& f = specs[i];
    const std::string_view key = f.key;
    if (key == "name") {
      std::snprintf(buf, sizeof(buf), "\"%s\": \"%s\"", f.key,
                    t.name.c_str());
    } else if (key == "num_satellites") {
      std::snprintf(buf, sizeof(buf), "\"%s\": %lld", f.key,
                    static_cast<long long>(t.num_satellites));
    } else if (key == "latency_minutes") {
      const util::SampleSet& s = t.latency_minutes;
      if (s.empty()) {
        std::snprintf(buf, sizeof(buf), "\"%s\": null", f.key);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "\"%s\": {\"median\": %.3f, \"p90\": %.3f, "
                      "\"p99\": %.3f, \"mean\": %.3f, \"count\": %zu}",
                      f.key, s.percentile(50.0), s.percentile(90.0),
                      s.percentile(99.0), s.mean(), s.size());
      }
    } else {
      double v = 0.0;
      if (key == "weight") v = t.weight;
      else if (key == "delivered_tb") v = t.delivered_bytes / 1e12;
      else if (key == "entitlement") v = t.entitlement;
      else if (key == "share") v = t.share;
      else if (key == "sla_latency_minutes") v = t.sla_latency_minutes;
      else if (key == "sla_attainment") v = t.sla_attainment;
      else DGS_CHECK(false, "unmapped tenant summary field");
      std::snprintf(buf, sizeof(buf), "\"%s\": %.6f", f.key, v);
    }
    out << buf << (i + 1 < specs.size() ? ", " : "");
  }
  out << "}";
}

}  // namespace

void write_summary_json(std::ostream& out, const SimulationResult& result) {
  out << "{\n";
  char buf[192];
  const auto specs = summary_field_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SummaryFieldSpec& f = specs[i];
    switch (f.kind) {
      case kInt:
        std::snprintf(buf, sizeof(buf), "  \"%s\": %lld", f.key,
                      int_field(result, f.key));
        out << buf;
        break;
      case kReal:
        std::snprintf(buf, sizeof(buf), "  \"%s\": %.6f", f.key,
                      real_field(result, f.key));
        out << buf;
        break;
      case kStats: {
        const util::SampleSet& s = stats_field(result, f.key);
        if (s.empty()) {
          std::snprintf(buf, sizeof(buf), "  \"%s\": null", f.key);
        } else {
          std::snprintf(buf, sizeof(buf),
                        "  \"%s\": {\"median\": %.3f, \"p90\": %.3f, "
                        "\"p99\": %.3f, \"mean\": %.3f, \"count\": %zu}",
                        f.key, s.percentile(50.0), s.percentile(90.0),
                        s.percentile(99.0), s.mean(), s.size());
        }
        out << buf;
        break;
      }
      case kTenants: {
        out << "  \"" << f.key << "\": ";
        if (result.per_tenant.empty()) {
          out << "null";
        } else {
          out << "{";
          for (std::size_t t = 0; t < result.per_tenant.size(); ++t) {
            std::snprintf(buf, sizeof(buf), "\"t_%03zu\": ", t);
            out << buf;
            write_tenant_object(out, result.per_tenant[t]);
            if (t + 1 < result.per_tenant.size()) out << ", ";
          }
          out << "}";
        }
        break;
      }
    }
    out << (i + 1 < specs.size() ? ",\n" : "\n");
  }
  out << "}\n";
}

}  // namespace dgs::core
