// Steppable Session API: snapshot/restore round trips (DESIGN.md §16).
//
// The golden test interrupts a storm-profile lookahead run mid-horizon,
// snapshots, restores under thread counts 1 and 4, and requires every
// output surface — summary JSON, Prometheus exposition, event JSONL — to
// be byte-identical to the uninterrupted run.  Negative-space tests pin
// the checkpoint validator: truncations, corrupt bytes, and scenario
// mismatches must all be rejected with std::invalid_argument, and every
// restored index step() would use unchecked is range-checked by name.  Two
// golden pins fix the size and CRC32 of mid-horizon checkpoints (lookahead,
// and per-instant with every optional section populated), so a codec
// change cannot move a single byte of dgs.checkpoint.v1 unnoticed.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/report.h"
#include "src/core/session.h"
#include "src/faults/profiles.h"
#include "src/obs/events.h"
#include "src/obs/metrics.h"
#include "src/util/crc32.h"

namespace dgs::core {
namespace {

const util::Epoch kT0(util::DateTime{2020, 11, 4, 0, 0, 0.0});

struct Scenario {
  std::vector<groundseg::SatelliteConfig> sats;
  std::vector<groundseg::GroundStation> stations;
  SimulationOptions opts;
};

// Storm faults + hourly lookahead replanning: the hardest trajectory to
// reproduce, exercising fault masks, horizon plans, and replans.
Scenario golden_scenario() {
  groundseg::NetworkOptions net;
  net.num_stations = 12;
  net.num_satellites = 8;
  net.seed = 13;
  Scenario s;
  s.sats = groundseg::generate_constellation(net, kT0);
  s.stations = groundseg::generate_dgs_stations(net);
  s.opts.start = kT0;
  s.opts.duration_hours = 4.0;
  s.opts.lookahead_hours = 1.0;
  s.opts.faults = faults::make_profile("storm", 7, net.num_stations);
  if (s.opts.faults.has_backhaul_faults()) {
    s.opts.station_backhaul_bps = 50e6;
  }
  return s;
}

std::string summary_bytes(const SimulationResult& r) {
  std::stringstream ss;
  write_summary_json(ss, r);
  return ss.str();
}

// Every output surface of one full run, captured as bytes.
struct RunOutputs {
  std::string summary;
  std::string prometheus;
  std::string events;
};

RunOutputs run_uninterrupted(const Scenario& s, int threads) {
  SimulationOptions opts = s.opts;
  opts.parallel.num_threads = threads;
  obs::Registry registry;
  opts.metrics = &registry;
  std::ostringstream events;
  obs::EventLog log(&events);
  opts.events = &log;
  Session session(s.sats, s.stations, nullptr, opts);
  RunOutputs out;
  out.summary = summary_bytes(session.run_to_end());
  std::ostringstream prom;
  registry.write_prometheus(prom);
  out.prometheus = prom.str();
  out.events = events.str();
  return out;
}

TEST(Session, RunToEndMatchesSimulatorRun) {
  const Scenario s = golden_scenario();
  Session session(s.sats, s.stations, nullptr, s.opts);
  const std::string via_session = summary_bytes(session.run_to_end());
  const std::string via_simulator =
      summary_bytes(Simulator(s.sats, s.stations, nullptr, s.opts).run());
  EXPECT_EQ(via_session, via_simulator);
}

TEST(Session, StepAccountingAndDoneContract) {
  const Scenario s = golden_scenario();
  Session session(s.sats, s.stations, nullptr, s.opts);
  EXPECT_EQ(session.step_index(), 0);
  EXPECT_FALSE(session.done());
  session.step();
  EXPECT_EQ(session.step_index(), 1);
  EXPECT_EQ(session.run_until_hours(2.0),
            session.num_steps() / 2 - 1);
  while (!session.done()) session.step();
  EXPECT_TRUE(session.finalized());
  EXPECT_THROW(session.step(), std::invalid_argument);
}

TEST(Session, ReportMidRunDoesNotPerturbTheRun) {
  const Scenario s = golden_scenario();
  Session a(s.sats, s.stations, nullptr, s.opts);
  Session b(s.sats, s.stations, nullptr, s.opts);
  a.run_until_hours(2.0);
  const SimulationResult mid = a.report();
  EXPECT_GT(mid.steps, 0);
  while (!a.done()) a.step();
  EXPECT_EQ(summary_bytes(a.report()), summary_bytes(b.run_to_end()));
}

// Snapshots at `at_hours`, restores at thread counts 1 and 4, and requires
// the interrupted run's combined outputs to be byte-identical to the
// uninterrupted baseline.
void expect_restore_is_byte_identical(const Scenario& s, double at_hours) {
  const RunOutputs baseline = run_uninterrupted(s, 1);

  // First half, snapshotted.
  obs::Registry reg1;
  std::ostringstream events1;
  obs::EventLog log1(&events1);
  SimulationOptions opts1 = s.opts;
  opts1.metrics = &reg1;
  opts1.events = &log1;
  Session first(s.sats, s.stations, nullptr, opts1);
  first.run_until_hours(at_hours);
  std::stringstream checkpoint;
  first.snapshot(checkpoint);
  const std::string checkpoint_bytes = checkpoint.str();
  const std::string events_prefix = events1.str();

  for (const int threads : {1, 4}) {
    SimulationOptions opts2 = s.opts;
    opts2.parallel.num_threads = threads;
    obs::Registry reg2;
    std::ostringstream events2;
    obs::EventLog log2(&events2);
    opts2.metrics = &reg2;
    opts2.events = &log2;
    std::istringstream in(checkpoint_bytes);
    std::unique_ptr<Session> restored =
        Session::restore(in, s.sats, s.stations, nullptr, opts2);
    EXPECT_EQ(restored->step_index(), first.step_index());
    const SimulationResult r = restored->run_to_end();
    EXPECT_EQ(summary_bytes(r), baseline.summary) << "threads=" << threads;
    std::ostringstream prom;
    reg2.write_prometheus(prom);
    EXPECT_EQ(prom.str(), baseline.prometheus) << "threads=" << threads;
    EXPECT_EQ(events_prefix + events2.str(), baseline.events)
        << "threads=" << threads;
  }
}

TEST(SessionCheckpoint, MidHorizonRestoreIsByteIdenticalAcrossThreads) {
  expect_restore_is_byte_identical(golden_scenario(), 2.0);
}

// An immediate snapshot (step 0) restores to the full run, and a
// snapshot after the final step restores as already-done.
TEST(SessionCheckpoint, EdgeOfHorizonSnapshots) {
  const Scenario s = golden_scenario();
  const RunOutputs baseline = run_uninterrupted(s, 1);

  Session fresh(s.sats, s.stations, nullptr, s.opts);
  std::stringstream cp0;
  fresh.snapshot(cp0);
  std::unique_ptr<Session> from0 =
      Session::restore(cp0, s.sats, s.stations, nullptr, s.opts);
  EXPECT_EQ(summary_bytes(from0->run_to_end()), baseline.summary);

  Session full(s.sats, s.stations, nullptr, s.opts);
  const std::string done_summary = summary_bytes(full.run_to_end());
  std::stringstream cp_end;
  full.snapshot(cp_end);
  std::unique_ptr<Session> from_end =
      Session::restore(cp_end, s.sats, s.stations, nullptr, s.opts);
  EXPECT_TRUE(from_end->done());
  EXPECT_TRUE(from_end->finalized());
  EXPECT_EQ(summary_bytes(from_end->report()), done_summary);
}

// A stream that cannot seek, such as a pipe: only get-area reads.
struct UnseekableBuf : std::streambuf {
  explicit UnseekableBuf(std::string& bytes) {
    setg(bytes.data(), bytes.data(), bytes.data() + bytes.size());
  }
};

// restore() reads from the stream's current position to its end, whether
// the stream can seek (one sized read) or not (a copy through a buffer).
TEST(SessionCheckpoint, RestoreReadsSeekableAndUnseekableStreams) {
  const Scenario s = golden_scenario();
  Session session(s.sats, s.stations, nullptr, s.opts);
  session.run_until_hours(1.0);
  std::stringstream cp;
  session.snapshot(cp);
  const std::string bytes = cp.str();
  const auto round_trip = [&](std::istream& in) {
    std::unique_ptr<Session> restored =
        Session::restore(in, s.sats, s.stations, nullptr, s.opts);
    std::stringstream again;
    restored->snapshot(again);
    return again.str();
  };

  std::istringstream after_prefix("prefix" + bytes);
  after_prefix.seekg(6);
  EXPECT_EQ(round_trip(after_prefix), bytes);

  std::string copy = bytes;
  UnseekableBuf buf(copy);
  std::istream unseekable(&buf);
  ASSERT_EQ(unseekable.tellg(), std::istream::pos_type(-1));
  unseekable.clear();
  EXPECT_EQ(round_trip(unseekable), bytes);
}

// The dgs.checkpoint.v1 bytes of a mid-horizon snapshot (metrics registry
// attached, so every section carries data) are pinned by size and CRC32.
// The values were taken from the byte-at-a-time codec; any encoder change
// that moves one byte of the format fails here.
TEST(SessionCheckpoint, GoldenSnapshotBytesArePinned) {
  const Scenario s = golden_scenario();
  obs::Registry registry;
  SimulationOptions opts = s.opts;
  opts.metrics = &registry;
  Session session(s.sats, s.stations, nullptr, opts);
  session.run_until_hours(2.0);
  std::stringstream ss;
  session.snapshot(ss);
  const std::string bytes = ss.str();
  EXPECT_EQ(bytes.size(), std::size_t{66559});
  EXPECT_EQ(util::crc32({reinterpret_cast<const std::uint8_t*>(bytes.data()),
                         bytes.size()}),
            0x735AB5A0u);
}

// Per-instant storm scenario with every optional piece of state on:
// tenants, an event log (open contacts), the timeseries, station edge
// queues, slew, an urgent tier and ack-relay faults.  Complements the
// lookahead pin above, whose tenants section, open contacts, timeseries,
// matcher carryover and edge-queue items are empty.
Scenario per_instant_golden_scenario() {
  Scenario s = golden_scenario();
  s.opts.lookahead_hours = 0.0;
  s.opts.station_backhaul_bps = 20e6;
  s.opts.slew_seconds = 10.0;
  s.opts.urgent_fraction = 0.2;
  s.opts.collect_timeseries = true;
  for (const auto& [name, sats] :
       {std::pair<std::string, std::vector<int>>{"alpha", {0, 2, 4, 6}},
        {"beta", {1, 3, 5, 7}}}) {
    TenantSpec t;
    t.name = name;
    t.satellites = sats;
    t.weight = name == "alpha" ? 1.0 : 2.0;
    t.sla_latency_minutes = 90.0;
    s.opts.tenants.push_back(t);
  }
  return s;
}

TEST(SessionCheckpoint, PerInstantGoldenSnapshotBytesArePinned) {
  const Scenario s = per_instant_golden_scenario();
  ASSERT_TRUE(s.opts.faults.has_ack_relay_faults());
  obs::Registry registry;
  std::ostringstream events;
  obs::EventLog log(&events);
  SimulationOptions opts = s.opts;
  opts.metrics = &registry;
  opts.events = &log;
  Session session(s.sats, s.stations, nullptr, opts);
  session.run_until_hours(3.0);
  std::stringstream ss;
  session.snapshot(ss);
  const std::string bytes = ss.str();
  // The sections this pin exists for all carry data.
  CheckpointView view;
  ASSERT_FALSE(read_checkpoint(bytes, &view).has_value());
  EXPECT_GT(view.section("tenants").size(), std::size_t{100});
  EXPECT_GT(view.section("matcher").size(), std::size_t{100});
  EXPECT_EQ(bytes.size(), std::size_t{128631});
  EXPECT_EQ(util::crc32({reinterpret_cast<const std::uint8_t*>(bytes.data()),
                         bytes.size()}),
            0xBE097848u);
}

TEST(SessionCheckpoint, PerInstantMidHorizonRestoreIsByteIdentical) {
  expect_restore_is_byte_identical(per_instant_golden_scenario(), 3.0);
}

// --- Options identity: options_crc32 covers every option field ----------

// Counts the fields a visitor names, encoded or excluded, without
// descending into them.
struct FieldCounter {
  static constexpr bool kReading = false;
  std::size_t fields = 0;

  template <class... T>
  void operator()(const T&...) { fields += sizeof...(T); }
  template <class... T>
  void exclude(const T&...) { fields += sizeof...(T); }
};

// Converts to any member type, so T{AnyMember{}...} compiles exactly while
// there are no more initializers than T has members.
struct AnyMember {
  template <class T>
  operator T() const;  // NOLINT(google-explicit-constructor)
};

template <class T, std::size_t... I>
constexpr bool brace_initializable(std::index_sequence<I...>) {
  return requires { T{(static_cast<void>(I), AnyMember{})...}; };
}

// The number of members of aggregate T.
template <class T, std::size_t N = 0>
constexpr std::size_t member_count() {
  if constexpr (brace_initializable<T>(std::make_index_sequence<N + 1>{})) {
    return member_count<T, N + 1>();
  } else {
    return N;
  }
}
static_assert(member_count<util::Vec3>() == 3);

template <class T>
std::size_t named_fields() {
  FieldCounter counter;
  T record{};
  if constexpr (requires { record.visit(counter); }) {
    record.visit(counter);
  } else {
    visit(counter, record);
  }
  return counter.fields;
}

// A field added to the options but missing from their visitor would let a
// mismatched restore through silently; it fails here until it is either
// visited (and so covered by options_crc32) or excluded by name.
TEST(SessionOptionsIdentity, EveryOptionFieldIsVisitedOrExcluded) {
  EXPECT_EQ(named_fields<SimulationOptions>(),
            member_count<SimulationOptions>());
  EXPECT_EQ(named_fields<faults::FaultPlan>(),
            member_count<faults::FaultPlan>());
  EXPECT_EQ(named_fields<faults::OutageWindow>(),
            member_count<faults::OutageWindow>());
  EXPECT_EQ(named_fields<faults::StationChurn>(),
            member_count<faults::StationChurn>());
  EXPECT_EQ(named_fields<faults::BackhaulFault>(),
            member_count<faults::BackhaulFault>());
  EXPECT_EQ(named_fields<faults::AckRelayFaults>(),
            member_count<faults::AckRelayFaults>());
  EXPECT_EQ(named_fields<faults::PlanUploadFaults>(),
            member_count<faults::PlanUploadFaults>());
  EXPECT_EQ(named_fields<TenantSpec>(), member_count<TenantSpec>());
}

// --- Negative space: the validator must reject every malformed or
// mismatched checkpoint with std::invalid_argument -------------------------

class SessionCheckpointNegative : public ::testing::Test {
 protected:
  void SetUp() override {
    s_ = golden_scenario();
    Session session(s_.sats, s_.stations, nullptr, s_.opts);
    session.run_until_hours(1.0);
    std::stringstream ss;
    session.snapshot(ss);
    bytes_ = ss.str();
  }

  void expect_rejected(const std::string& data) {
    std::istringstream in(data);
    EXPECT_THROW(Session::restore(in, s_.sats, s_.stations, nullptr, s_.opts),
                 std::invalid_argument);
  }

  Scenario s_;
  std::string bytes_;
};

TEST_F(SessionCheckpointNegative, TruncationsAtEveryLayerAreRejected) {
  // Inside the magic, inside the header, inside the payload, and one
  // byte short of complete.
  for (const std::size_t len :
       {std::size_t{4}, std::size_t{40}, bytes_.size() / 2,
        bytes_.size() - 1}) {
    ASSERT_LT(len, bytes_.size());
    expect_rejected(bytes_.substr(0, len));
  }
}

TEST_F(SessionCheckpointNegative, WrongMagicIsRejected) {
  std::string t = bytes_;
  t[0] = 'x';
  expect_rejected(t);
}

TEST_F(SessionCheckpointNegative, PayloadBitflipFailsTheCrc) {
  // Flip one byte deep in the payload; the header CRC must catch it.
  std::string t = bytes_;
  t[t.size() - 16] ^= 0x01;
  expect_rejected(t);
}

TEST_F(SessionCheckpointNegative, HeaderTamperingIsRejected) {
  // Doctoring the declared step count trips the identity check.
  std::string t = bytes_;
  const std::string key = "\"steps\":";
  const auto pos = t.find(key);
  ASSERT_NE(pos, std::string::npos);
  t[pos + key.size() + 1] = '9';
  expect_rejected(t);
}

TEST_F(SessionCheckpointNegative, ScenarioMismatchesAreRejected) {
  // Different duration.
  {
    Scenario other = s_;
    other.opts.duration_hours = 8.0;
    std::istringstream in(bytes_);
    EXPECT_THROW(Session::restore(in, other.sats, other.stations, nullptr,
                                  other.opts),
                 std::invalid_argument);
  }
  // Different fault plan (options CRC catches trajectory-shaping drift).
  {
    Scenario other = s_;
    other.opts.faults = faults::make_profile("churn", 7, 12);
    std::istringstream in(bytes_);
    EXPECT_THROW(Session::restore(in, other.sats, other.stations, nullptr,
                                  other.opts),
                 std::invalid_argument);
  }
  // Different fleet size.
  {
    Scenario other = s_;
    other.sats.pop_back();
    std::istringstream in(bytes_);
    EXPECT_THROW(Session::restore(in, other.sats, other.stations, nullptr,
                                  other.opts),
                 std::invalid_argument);
  }
}

std::size_t get_le(std::string_view bytes, std::size_t at, int n) {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    v |= std::uint64_t{static_cast<std::uint8_t>(bytes[at + i])} << (8 * i);
  }
  return static_cast<std::size_t>(v);
}

// Splits a checkpoint into its header JSON and payload, lets `edit`
// change them, then re-frames it with the header length and the payload
// size and CRC re-sealed, so the doctored file passes every container
// check the edit did not aim at.
template <typename Edit>
std::string doctored(const std::string& file, Edit edit) {
  const std::size_t magic = std::string_view("dgs.checkpoint.v1\n").size();
  const std::size_t header_len = get_le(file, magic, 8);
  std::string header = file.substr(magic + 8, header_len);
  std::string payload = file.substr(magic + 8 + header_len);
  edit(header, payload);
  const std::uint32_t crc = util::crc32(
      {reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()});
  const std::string size_key = "\"payload_bytes\": ";
  const std::size_t size_at = header.find(size_key) + size_key.size();
  header.replace(size_at, header.find(',', size_at) - size_at,
                 std::to_string(payload.size()));
  const std::string key = "\"payload_crc32\": ";
  const std::size_t at = header.find(key) + key.size();
  header.replace(at, header.find('}', at) - at, std::to_string(crc));
  std::string out = file.substr(0, magic);
  for (int i = 0; i < 8; ++i) {
    out += static_cast<char>((header.size() >> (8 * i)) & 0xff);
  }
  return out + header + payload;
}

void put_le(std::string& bytes, std::size_t at, int n, std::uint64_t value) {
  for (int i = 0; i < n; ++i) {
    bytes[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

// Lets `edit` rewrite section `name`'s body, re-framed with its new length.
template <typename Edit>
void edit_section(std::string& payload, std::string_view name, Edit edit) {
  std::size_t p = 0;
  for (;;) {
    const std::size_t name_len = get_le(payload, p, 4);
    const std::string_view section(payload.data() + p + 4, name_len);
    p += 4 + name_len;
    const std::size_t body_len = get_le(payload, p, 8);
    if (section == name) {
      std::string body = payload.substr(p + 8, body_len);
      edit(body);
      put_le(payload, p, 8, body.size());
      payload.replace(p + 8, body_len, body);
      return;
    }
    p += 8 + body_len;
  }
}

// Overwrites the u64 at `offset` in section `name`'s body.
void put_section_u64(std::string& payload, std::string_view name,
                     std::size_t offset, std::uint64_t value) {
  edit_section(payload, name,
               [&](std::string& body) { put_le(body, offset, 8, value); });
}

std::string restore_error(const Scenario& s, const std::string& data) {
  std::istringstream in(data);
  try {
    Session::restore(in, s.sats, s.stations, nullptr, s.opts);
  } catch (const std::invalid_argument& e) { return e.what(); }
  return "(restored)";
}

// The restore error of `file` with section `name` rewritten by `edit`,
// payload CRC re-sealed.
template <typename Edit>
std::string restore_error_after(const Scenario& s, const std::string& file,
                                std::string_view name, Edit edit) {
  return restore_error(
      s, doctored(file, [&](std::string&, std::string& payload) {
        edit_section(payload, name, edit);
      }));
}

// An element count far beyond what the section holds must die on the
// bounds check with a named error, before anything is allocated for it.
TEST_F(SessionCheckpointNegative, HugeCountsAreRejectedBeforeAllocation) {
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  const struct {
    const char* section;
    std::size_t offset;
  } sites[] = {
      {"planner", 8},  // n_steps, after the i64 plan origin
      {"result", 1},   // the first sample set's size, after its sort flag
  };
  for (const auto& site : sites) {
    const std::string data =
        doctored(bytes_, [&](std::string&, std::string& payload) {
          put_section_u64(payload, site.section, site.offset, kHuge);
        });
    EXPECT_NE(restore_error(s_, data).find("checkpoint section truncated"),
              std::string::npos)
        << site.section << ": " << restore_error(s_, data);
  }
}

// Header counts are narrowed to int, so one past the int range is a named
// header error, not an out-of-range conversion.
TEST_F(SessionCheckpointNegative, OutOfRangeHeaderCountsAreRejected) {
  for (const std::string key : {"num_satellites", "num_stations"}) {
    const std::string data =
        doctored(bytes_, [&](std::string& header, std::string&) {
          const std::string field = "\"" + key + "\": ";
          const std::size_t at = header.find(field) + field.size();
          header.replace(at, header.find(',', at) - at, "9000000000000");
        });
    EXPECT_NE(restore_error(s_, data).find("checkpoint." + key +
                                           ": must be in [1, 2^31)"),
              std::string::npos)
        << restore_error(s_, data);
  }
}

// Offset of the first edge in a "planner" body: the i64 origin, the step
// count, then per step an edge count and 44-byte edges (sat, station,
// elevation, range, rate, MODCOD index, weight).
std::size_t first_planner_edge(std::string_view body) {
  const std::size_t steps = get_le(body, 8, 8);
  std::size_t p = 16;
  for (std::size_t k = 0; k < steps; ++k) {
    if (get_le(body, p, 8) > 0) return p + 8;
    p += 8;
  }
  ADD_FAILURE() << "the plan holds no edges";
  return 0;
}

// Restored indices are used unchecked by step(); each out-of-range one is
// a named error at restore.
TEST_F(SessionCheckpointNegative, OutOfRangePlannerEdgesAreRejected) {
  const struct {
    std::size_t field;
    std::uint64_t value;
    const char* error;
  } sites[] = {
      {0, 8, "planner edge satellite 8 is out of range [0, 8)"},
      {0, std::uint64_t(-1), "planner edge satellite -1 is out of range"},
      {4, 12, "planner edge station 12 is out of range [0, 12)"},
      {4, std::uint64_t(-3), "planner edge station -3 is out of range"},
  };
  for (const auto& site : sites) {
    const std::string error =
        restore_error_after(s_, bytes_, "planner", [&](std::string& body) {
          put_le(body, first_planner_edge(body) + site.field, 4, site.value);
        });
    EXPECT_NE(error.find(site.error), std::string::npos) << error;
  }
}

// A MODCOD index is a table position: 256 + k must not wrap to k.
TEST_F(SessionCheckpointNegative, ModcodIndicesPastTheTableAreRejected) {
  for (const std::int64_t shift : {256, -300}) {
    std::int64_t bad = 0;
    const std::string error =
        restore_error_after(s_, bytes_, "planner", [&](std::string& body) {
          const std::size_t at = first_planner_edge(body) + 32;
          bad = static_cast<std::int32_t>(get_le(body, at, 4)) + shift;
          put_le(body, at, 4, static_cast<std::uint64_t>(bad));
        });
    EXPECT_NE(error.find("MODCOD index " + std::to_string(bad) +
                         " is out of range [-1, "),
              std::string::npos)
        << error;
  }
}

// step() reads plan_.per_step[step - plan_origin_]: the origin is -1 with
// an empty plan, or at most the restored step with exactly its window.
TEST_F(SessionCheckpointNegative, PlannerOriginAndStepCountMustAgree) {
  // The fixture stops at step 60 inside the hourly window opened at 0.
  const std::string past_step =
      restore_error_after(s_, bytes_, "planner", [&](std::string& body) {
        put_le(body, 0, 8, 61);
      });
  EXPECT_NE(past_step.find("planner origin 61 is out of range [-1, 61)"),
            std::string::npos)
      << past_step;
  const std::string no_origin =
      restore_error_after(s_, bytes_, "planner", [&](std::string& body) {
        put_le(body, 0, 8, std::uint64_t(-1));
      });
  EXPECT_NE(no_origin.find("planner step count is 60, this session has 0"),
            std::string::npos)
      << no_origin;
  const std::string extra_step =
      restore_error_after(s_, bytes_, "planner", [&](std::string& body) {
        put_le(body, 8, 8, get_le(body, 8, 8) + 1);
        body.append(8, '\0');  // One more step, with no edges.
      });
  EXPECT_NE(
      extra_step.find("planner step count is 61, this session has 60"),
      std::string::npos)
      << extra_step;
}

// A cache hit indexes an entry by satellite and station, so every entry
// must cover exactly the fleet and hold in-range satellites.
TEST_F(SessionCheckpointNegative, GeometryCacheEntriesMustMatchTheFleet) {
  // "geometry": two u64 event bases, the cache flag, hits, misses, the
  // entry count, then the first entry's i64 step key and its positions.
  constexpr std::size_t kEntries = 8 + 8 + 1 + 8 + 8;
  constexpr std::size_t kEcef = kEntries + 8 + 8;
  const std::string short_fleet =
      restore_error_after(s_, bytes_, "geometry", [&](std::string& body) {
        ASSERT_GT(get_le(body, kEntries, 8), std::size_t{0});
        put_le(body, kEcef, 8, get_le(body, kEcef, 8) - 1);
        body.erase(kEcef + 8, 24);  // Drop one satellite's position.
      });
  EXPECT_NE(short_fleet.find(
                "geometry-cache satellite count is 7, this session has 8"),
            std::string::npos)
      << short_fleet;
  // Per station: a visible-satellite count, then 20-byte (sat, elevation,
  // range) entries.
  const std::size_t stations_at = kEcef + 8 + 8 * 24;
  const std::string short_stations =
      restore_error_after(s_, bytes_, "geometry", [&](std::string& body) {
        std::size_t p = stations_at + 8;
        for (int g = 0; g < 11; ++g) p += 8 + 20 * get_le(body, p, 8);
        put_le(body, stations_at, 8, 11);
        body.erase(p, 8 + 20 * get_le(body, p, 8));  // Drop the last.
      });
  EXPECT_NE(short_stations.find(
                "geometry-cache station count is 11, this session has 12"),
            std::string::npos)
      << short_stations;
  const std::string bad_sat =
      restore_error_after(s_, bytes_, "geometry", [&](std::string& body) {
        // Walk the entries to the first non-empty visibility list.
        std::size_t p = kEntries + 8;
        for (std::size_t e = get_le(body, kEntries, 8); e > 0; --e) {
          p += 8;                            // Step key.
          p += 8 + 24 * get_le(body, p, 8);  // Positions.
          const std::size_t stations = get_le(body, p, 8);
          p += 8;
          for (std::size_t g = 0; g < stations; ++g, p += 8) {
            if (get_le(body, p, 8) > 0) {  // Lists before it are empty.
              put_le(body, p + 8, 4, 8);
              return;
            }
          }
        }
        ADD_FAILURE() << "no satellite is visible in any cached step";
      });
  EXPECT_NE(bad_sat.find("geometry-cache satellite 8 is out of range [0, 8)"),
            std::string::npos)
      << bad_sat;
}

// The warm-start carryover indexes by satellite; a negative one would
// read before the start of the per-satellite lists.
TEST(SessionCheckpointNegativeMatcher, OutOfRangeMatcherPairsAreRejected) {
  const Scenario s = per_instant_golden_scenario();
  Session session(s.sats, s.stations, nullptr, s.opts);
  session.run_until_hours(1.0);
  std::stringstream ss;
  session.snapshot(ss);
  const std::string bytes = ss.str();
  const struct {
    std::size_t at;
    std::uint64_t value;
    const char* error;
  } sites[] = {
      // A u64 pair count, then (sat, station) i32 pairs.
      {8, std::uint64_t(-1), "matcher satellite -1 is out of range [0, 8)"},
      {12, 12, "matcher station 12 is out of range [0, 12)"},
  };
  for (const auto& site : sites) {
    const std::string error =
        restore_error_after(s, bytes, "matcher", [&](std::string& body) {
          ASSERT_GT(get_le(body, 0, 8), std::size_t{0});
          put_le(body, site.at, 4, site.value);
        });
    EXPECT_NE(error.find(site.error), std::string::npos) << error;
  }
}

TEST_F(SessionCheckpointNegative, ThreadCountChangeIsAccepted) {
  // parallel.* is execution-irrelevant by design: restoring under a
  // different thread count must succeed.
  Scenario other = s_;
  other.opts.parallel.num_threads = 4;
  std::istringstream in(bytes_);
  EXPECT_NO_THROW(
      Session::restore(in, other.sats, other.stations, nullptr, other.opts));
}

}  // namespace
}  // namespace dgs::core
