// Run-artifact schema module: restricted JSON reader, summary /
// timeseries / events validators, and the campaign manifest / aggregate
// validators.  The positive paths are covered end to end by
// test_report.cpp and test_campaign.cpp; this file pins the *negative*
// space — every way an artifact can drift must be named precisely.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/core/report.h"
#include "src/core/run_artifact.h"

namespace dgs::core {
namespace {

std::string error_where(const std::optional<ArtifactError>& e) {
  return e ? e->where : std::string("(valid)");
}

/// Replaces the first occurrence of `from` (which must exist) with `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

std::string empty_summary() {
  std::stringstream ss;
  write_summary_json(ss, SimulationResult{});
  return ss.str();
}

// --- Restricted JSON reader ------------------------------------------------

TEST(RestrictedJson, ParsesTheSubsetAndPreservesOrder) {
  const auto doc = parse_restricted_json(
      "{\"b\": 1.5, \"a\": \"x\\\"y\\\\z\", \"flag\": true, "
      "\"none\": null, \"inner\": {\"n\": -2e3}}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->kind, JsonValue::Kind::kObject);
  ASSERT_EQ(doc->members.size(), 5u);
  // Document order is part of the contract, not key order.
  EXPECT_EQ(doc->members[0].first, "b");
  EXPECT_EQ(doc->members[1].first, "a");
  EXPECT_EQ(doc->members[0].second.number, 1.5);
  EXPECT_EQ(doc->members[1].second.text, "x\"y\\z");
  EXPECT_TRUE(doc->members[2].second.boolean);
  EXPECT_EQ(doc->members[3].second.kind, JsonValue::Kind::kNull);
  const JsonValue* inner = doc->find("inner");
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(inner->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(inner->find("n")->number, -2000.0);
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(RestrictedJson, RejectsWhatTheSubsetExcludes) {
  ArtifactError e;
  // Arrays are deliberately outside the subset.
  EXPECT_FALSE(parse_restricted_json("{\"a\": [1, 2]}", &e).has_value());
  EXPECT_FALSE(e.message.empty());
  // Escapes other than \" and \\ .
  EXPECT_FALSE(parse_restricted_json("{\"a\": \"\\n\"}").has_value());
  EXPECT_FALSE(parse_restricted_json("{\"a\": \"\\u0041\"}").has_value());
  // Malformed documents.
  EXPECT_FALSE(parse_restricted_json("", &e).has_value());
  EXPECT_FALSE(parse_restricted_json("{\"a\": }").has_value());
  EXPECT_FALSE(parse_restricted_json("{\"a\": 1,}").has_value());
  EXPECT_FALSE(parse_restricted_json("{\"a\": \"unterminated").has_value());
  EXPECT_FALSE(parse_restricted_json("{} {}", &e).has_value());
  EXPECT_NE(e.message.find("trailing"), std::string::npos);
  // Depth cap: 9 nested objects exceed the max depth of 8.
  std::string deep;
  for (int i = 0; i < 9; ++i) deep += "{\"k\": ";
  deep += "1";
  for (int i = 0; i < 9; ++i) deep += "}";
  EXPECT_FALSE(parse_restricted_json(deep).has_value());
}

// --- Summary validator -----------------------------------------------------

TEST(SummaryValidator, AcceptsTheWriterOutput) {
  EXPECT_FALSE(validate_summary_json(empty_summary()).has_value());
}

TEST(SummaryValidator, RejectsWrongSchemaVersion) {
  const auto e = validate_summary_json(replaced(
      empty_summary(), "\"schema_version\": 2", "\"schema_version\": 1"));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->where, "summary.schema_version");
}

TEST(SummaryValidator, RejectsMissingAndExtraKeys) {
  const auto missing = validate_summary_json(replaced(
      empty_summary(), "  \"ack_retries\": 0,\n", ""));
  ASSERT_TRUE(missing.has_value());
  EXPECT_NE(missing->message.find("keys"), std::string::npos);
  const auto extra = validate_summary_json(replaced(
      empty_summary(), "\"steps\": 0", "\"steps\": 0,\n  \"extra\": 1"));
  EXPECT_TRUE(extra.has_value());
}

TEST(SummaryValidator, RejectsReorderedKeys) {
  // Swaps the adjacent generated/delivered keys via a placeholder (a
  // naive double replace would round-trip back to the original).
  std::string text =
      replaced(empty_summary(), "\"total_generated_tb\"", "\"TMP\"");
  text = replaced(text, "\"total_delivered_tb\"", "\"total_generated_tb\"");
  text = replaced(text, "\"TMP\"", "\"total_delivered_tb\"");
  const auto e = validate_summary_json(text);
  ASSERT_TRUE(e.has_value()) << text;
  EXPECT_NE(e->message.find("at this position"), std::string::npos);
}

TEST(SummaryValidator, RejectsWrongFieldKinds) {
  // Integer field holding a fraction.
  const auto non_integer = validate_summary_json(
      replaced(empty_summary(), "\"steps\": 0", "\"steps\": 0.5"));
  ASSERT_TRUE(non_integer.has_value());
  EXPECT_EQ(non_integer->where, "summary.steps");
  // Stats field holding a partial percentile object.
  const auto partial = validate_summary_json(
      replaced(empty_summary(), "\"latency_minutes\": null",
               "\"latency_minutes\": {\"median\": 1.0}"));
  ASSERT_TRUE(partial.has_value());
  EXPECT_NE(error_where(partial).find("latency_minutes"),
            std::string::npos);
  // A populated stats object must carry count >= 1 (empty sets are null).
  const auto zero_count = validate_summary_json(replaced(
      empty_summary(), "\"latency_minutes\": null",
      "\"latency_minutes\": {\"median\": 0.000, \"p90\": 0.000, "
      "\"p99\": 0.000, \"mean\": 0.000, \"count\": 0}"));
  ASSERT_TRUE(zero_count.has_value());
  EXPECT_EQ(zero_count->where, "summary.latency_minutes.count");
}

TEST(SummaryValidator, AcceptsSixDigitTenantKeys) {
  // Tenant rows are keyed "t_%03d"; index 100000 is the first key wider
  // than the zero-padded three digits, and must still validate.
  SimulationResult r;
  TenantOutcome t;
  t.name = "t";
  t.weight = 1.0;
  r.per_tenant.assign(100001, t);
  std::stringstream ss;
  write_summary_json(ss, r);
  ASSERT_NE(ss.str().find("\"t_100000\": "), std::string::npos);
  const auto e = validate_summary_json(ss.str());
  EXPECT_FALSE(e.has_value()) << e->where << ": " << e->message;
}

// --- Netdesign front validator ---------------------------------------------

std::string valid_front() {
  return "{\"schema_version\": " + std::to_string(kRunArtifactSchemaVersion) +
         ", \"artifact\": \"netdesign_front\", \"pool_size\": 4, "
         "\"pool_seed\": 1, \"num_satellites\": 2, \"network_seed\": 1, "
         "\"weather_seed\": 1, \"duration_hours\": 1.0, "
         "\"step_seconds\": 60.0, \"points\": {\"k_001\": {"
         "\"stations\": 1, \"cost\": 1.0, \"objective_gb\": 1.0, "
         "\"latency_p50_min\": 1.0, \"latency_p90_min\": 1.0, "
         "\"backlog_end_gb\": 1.0, \"delivered_fraction\": 0.5, "
         "\"dominated\": false, \"station_ids\": \"3\"}}}";
}

TEST(NetdesignFrontValidator, RejectsOutOfRangeNumbersByName) {
  EXPECT_FALSE(validate_netdesign_front_json(valid_front()).has_value());
  // A point key K past the long long range.
  const auto long_key = validate_netdesign_front_json(
      replaced(valid_front(), "\"k_001\"", "\"k_99999999999999999999001\""));
  ASSERT_TRUE(long_key.has_value());
  EXPECT_EQ(long_key->message, "point key K is out of range");
  // A station id past the long long range.
  const auto long_id = validate_netdesign_front_json(
      replaced(valid_front(), "\"station_ids\": \"3\"",
               "\"station_ids\": \"99999999999999999999999\""));
  ASSERT_TRUE(long_id.has_value());
  EXPECT_EQ(long_id->where, "front.points.k_001.station_ids");
  // A station count past the int range.
  const auto huge_count = validate_netdesign_front_json(
      replaced(valid_front(), "\"stations\": 1,", "\"stations\": 1e30,"));
  ASSERT_TRUE(huge_count.has_value());
  EXPECT_EQ(huge_count->where, "front.points.k_001.stations");
}

// --- Timeseries validator --------------------------------------------------

TEST(TimeseriesValidator, AcceptsWellFormedRows) {
  const std::string text = std::string(timeseries_csv_header()) +
                           "\n0.0167,0.000001,0.250,3,0\n"
                           "0.0333,0.000002,0.260,2,1\n";
  EXPECT_FALSE(validate_timeseries_csv(text).has_value());
  // Header-only (no steps recorded) is valid.
  EXPECT_FALSE(
      validate_timeseries_csv(std::string(timeseries_csv_header()) + "\n")
          .has_value());
}

TEST(TimeseriesValidator, RejectsShapeViolations) {
  const std::string header(timeseries_csv_header());
  EXPECT_TRUE(validate_timeseries_csv("").has_value());
  EXPECT_TRUE(validate_timeseries_csv("hours,other\n1,2\n").has_value());
  // Wrong column count, non-numeric cell, non-increasing hours.
  EXPECT_TRUE(
      validate_timeseries_csv(header + "\n0.1,0.2,0.3,4\n").has_value());
  EXPECT_TRUE(validate_timeseries_csv(header + "\n0.1,abc,0.3,4,5\n")
                  .has_value());
  const auto stalled = validate_timeseries_csv(
      header + "\n0.2,0,0,0,0\n0.2,0,0,0,0\n");
  ASSERT_TRUE(stalled.has_value());
  EXPECT_NE(stalled->message.find("strictly increasing"),
            std::string::npos);
}

// --- Events validator ------------------------------------------------------

TEST(EventsValidator, AcceptsTheEmittedShape) {
  EXPECT_FALSE(
      validate_events_jsonl(
          "{\"t_hours\": 0.0167, \"step\": 1, \"type\": \"contact_open\", "
          "\"sat\": 0, \"station\": 3}\n"
          "\n"
          "{\"t_hours\": 0.0333, \"step\": 2, \"type\": \"bytes_moved\", "
          "\"bytes\": 1.5e9, \"received\": true}\n")
          .has_value());
  // An empty log (no sinks fired) is valid.
  EXPECT_FALSE(validate_events_jsonl("").has_value());
}

TEST(EventsValidator, RejectsMalformedLines) {
  // Prefix must open with t_hours, step (integer >= 0), type.
  EXPECT_TRUE(validate_events_jsonl(
                  "{\"step\": 1, \"t_hours\": 0.1, \"type\": \"x\"}\n")
                  .has_value());
  EXPECT_TRUE(validate_events_jsonl(
                  "{\"t_hours\": 0.1, \"step\": -1, \"type\": \"x\"}\n")
                  .has_value());
  EXPECT_TRUE(validate_events_jsonl(
                  "{\"t_hours\": 0.1, \"step\": 1.5, \"type\": \"x\"}\n")
                  .has_value());
  EXPECT_TRUE(validate_events_jsonl(
                  "{\"t_hours\": 0.1, \"step\": 1, \"type\": \"\"}\n")
                  .has_value());
  // Payloads are flat.
  const auto nested = validate_events_jsonl(
      "{\"t_hours\": 0.1, \"step\": 1, \"type\": \"x\", "
      "\"payload\": {\"a\": 1}}\n");
  ASSERT_TRUE(nested.has_value());
  EXPECT_NE(nested->message.find("flat"), std::string::npos);
  // Line numbers locate the bad row.
  const auto second = validate_events_jsonl(
      "{\"t_hours\": 0.1, \"step\": 1, \"type\": \"x\"}\n"
      "not json\n");
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->where.find("line 2"), std::string::npos);
}

// --- Campaign manifest / aggregate validators ------------------------------

std::string valid_manifest() {
  return "{\n"
         "  \"schema_version\": 2,\n"
         "  \"artifact\": \"campaign_manifest\",\n"
         "  \"profile\": \"storm\",\n"
         "  \"campaign_seed\": 1,\n"
         "  \"samples\": 6,\n"
         "  \"duration_hours\": 2.000000,\n"
         "  \"step_seconds\": 60.000000,\n"
         "  \"num_satellites\": 4,\n"
         "  \"num_stations\": 10,\n"
         "  \"network_seed\": 13,\n"
         "  \"weather_seed\": 42\n"
         "}\n";
}

std::string valid_aggregate() {
  return replaced(
      replaced(valid_manifest(), "\"campaign_manifest\"",
               "\"campaign_aggregate\""),
      "  \"weather_seed\": 42\n",
      "  \"weather_seed\": 42,\n"
      "  \"metrics\": {\"backlog_mean_gb\": {\"mean\": 1.0, \"sd\": 0.1, "
      "\"ci95\": 0.05, \"p50\": 1.0, \"p99\": 1.2, \"min\": 0.8, "
      "\"max\": 1.3, \"count\": 6}}\n");
}

TEST(CampaignValidators, AcceptWellFormedDocuments) {
  const auto m = validate_campaign_manifest_json(valid_manifest());
  EXPECT_FALSE(m.has_value()) << error_where(m);
  const auto a = validate_campaign_aggregate_json(valid_aggregate());
  EXPECT_FALSE(a.has_value()) << error_where(a);
}

TEST(CampaignValidators, RejectHeaderViolations) {
  // Wrong artifact tag for the validator invoked.
  EXPECT_TRUE(
      validate_campaign_aggregate_json(valid_manifest()).has_value());
  EXPECT_TRUE(
      validate_campaign_manifest_json(valid_aggregate()).has_value());
  // schema_version must be first, and current.
  const auto stale = validate_campaign_manifest_json(replaced(
      valid_manifest(), "\"schema_version\": 2", "\"schema_version\": 0"));
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->where, "manifest.schema_version");
}

TEST(CampaignValidators, RejectIdentityAndMetricViolations) {
  // Identity fields are ordered and typed.
  EXPECT_TRUE(validate_campaign_manifest_json(
                  replaced(valid_manifest(), "\"profile\": \"storm\"",
                           "\"profile\": \"\""))
                  .has_value());
  EXPECT_TRUE(validate_campaign_manifest_json(
                  replaced(valid_manifest(), "  \"samples\": 6,\n", ""))
                  .has_value());
  EXPECT_TRUE(validate_campaign_manifest_json(
                  replaced(valid_manifest(), "\"weather_seed\": 42",
                           "\"weather_seed\": 42,\n  \"stray\": 1"))
                  .has_value());
  // Metric objects carry exactly the 8 aggregate members.
  const auto short_metric = validate_campaign_aggregate_json(
      replaced(valid_aggregate(), ", \"count\": 6", ""));
  ASSERT_TRUE(short_metric.has_value());
  EXPECT_NE(short_metric->where.find("backlog_mean_gb"),
            std::string::npos);
  EXPECT_TRUE(validate_campaign_aggregate_json(
                  replaced(valid_aggregate(), "\"count\": 6",
                           "\"count\": 0"))
                  .has_value());
  EXPECT_TRUE(validate_campaign_aggregate_json(
                  replaced(valid_aggregate(),
                           "\"metrics\": {\"backlog_mean_gb\"",
                           "\"metrics\": {}, \"x\": {\"backlog_mean_gb\""))
                  .has_value());
}

}  // namespace
}  // namespace dgs::core
