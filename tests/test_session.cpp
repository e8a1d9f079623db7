// Steppable Session API: snapshot/restore round trips (DESIGN.md §16).
//
// The golden test interrupts a storm-profile lookahead run mid-horizon,
// snapshots, restores under thread counts 1 and 4, and requires every
// output surface — summary JSON, Prometheus exposition, event JSONL — to
// be byte-identical to the uninterrupted run.  Negative-space tests pin
// the checkpoint validator: truncations, corrupt bytes, and scenario
// mismatches must all be rejected with std::invalid_argument.  A golden
// pin fixes the size and CRC32 of one mid-horizon checkpoint, so a codec
// change cannot move a single byte of dgs.checkpoint.v1 unnoticed.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

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

// The tentpole acceptance test: snapshot at mid-horizon, restore at
// thread counts 1 and 4, and require the interrupted run's combined
// outputs to be byte-identical to the uninterrupted baseline.
TEST(SessionCheckpoint, MidHorizonRestoreIsByteIdenticalAcrossThreads) {
  const Scenario s = golden_scenario();
  const RunOutputs baseline = run_uninterrupted(s, 1);

  // First half, snapshotted.
  obs::Registry reg1;
  std::ostringstream events1;
  obs::EventLog log1(&events1);
  SimulationOptions opts1 = s.opts;
  opts1.metrics = &reg1;
  opts1.events = &log1;
  Session first(s.sats, s.stations, nullptr, opts1);
  first.run_until_hours(2.0);
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
// change them, then re-frames it with the header length and payload CRC
// re-sealed, so the doctored file passes every container check the edit
// did not aim at.
template <typename Edit>
std::string doctored(const std::string& file, Edit edit) {
  const std::size_t magic = std::string_view("dgs.checkpoint.v1\n").size();
  const std::size_t header_len = get_le(file, magic, 8);
  std::string header = file.substr(magic + 8, header_len);
  std::string payload = file.substr(magic + 8 + header_len);
  edit(header, payload);
  const std::uint32_t crc = util::crc32(
      {reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()});
  const std::string key = "\"payload_crc32\": ";
  const std::size_t at = header.find(key) + key.size();
  header.replace(at, header.find('}', at) - at, std::to_string(crc));
  std::string out = file.substr(0, magic);
  for (int i = 0; i < 8; ++i) {
    out += static_cast<char>((header.size() >> (8 * i)) & 0xff);
  }
  return out + header + payload;
}

// Overwrites the u64 at `offset` in section `name`'s body.
void put_section_u64(std::string& payload, std::string_view name,
                     std::size_t offset, std::uint64_t value) {
  std::size_t p = 0;
  for (;;) {
    const std::size_t name_len = get_le(payload, p, 4);
    const std::string_view section(payload.data() + p + 4, name_len);
    p += 4 + name_len;
    const std::size_t body_len = get_le(payload, p, 8);
    p += 8;
    if (section == name) break;
    p += body_len;
  }
  for (int i = 0; i < 8; ++i) {
    payload[p + offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

std::string restore_error(const Scenario& s, const std::string& data) {
  std::istringstream in(data);
  try {
    Session::restore(in, s.sats, s.stations, nullptr, s.opts);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(restored)";
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
