// End-to-end benchmark program for DGS (README.md in this directory).
//
//   dgs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's satellites, stations, weather and fault plan from
// the seed, then drives core::Session::step() through simulated days in
// this process.  Timing is taken here, around the calls into the library's
// public functions.
//
//   --trace 0  simulates the day of each generated network, repeated in
//              cycles bought by --seconds, and prints the end-to-end
//              metrics (set-up, step latency, throughput, checkpoint
//              latency, peak memory), each timed operation at its least
//              time over the repeated days.
//   --trace 1  runs the first network's day untraced, then traced (library
//              spans on, the weather provider wrapped by WeatherProbe),
//              folds the spans into self time and prints the per-layer
//              metrics.
//
// Every run checks its outputs: byte conservation of the final report, the
// pinned report/Prometheus digests at the default seed, byte-identical
// snapshot -> restore -> snapshot round trips, identical results across
// repeated days, traced vs untraced passes and lane counts, and that the
// per-layer self times add up to the traced step time.  A failed
// check marks every step of the run failed and exits 1.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Detail (sample counts, digests, the per-layer partition) goes to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/span_fold.h"
#include "perfbench/weather_probe.h"
#include "src/core/checkpoint.h"
#include "src/core/report.h"
#include "src/core/session.h"
#include "src/faults/profiles.h"
#include "src/groundseg/network_gen.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/crc32.h"
#include "src/util/stats.h"
#include "src/weather/synthetic.h"

namespace {

using namespace dgs;
using Clock = std::chrono::steady_clock;

const util::Epoch kEpoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});
constexpr double kStepSeconds = 60.0;
/// The seed whose report and Prometheus digests are pinned below.
constexpr std::uint64_t kDefaultSeed = 1;
/// Networks generated per run.  Station layout, orbits and weather change
/// the work of a step by several percent from seed to seed; a run averages
/// over this many networks so that its figures spread less across seeds.
constexpr int kNetworks = 2;
/// Set-ups timed (and discarded) before each day.
constexpr int kSetupsPerDay = 25;
/// Round trips taken after the day on workloads without hourly checkpoints.
constexpr int kEndCheckpoints = 3;

/// Every workload runs its sessions on one lane; see pool_lanes.
struct Workload {
  std::string_view name;
  int num_sats;
  bool weather;            ///< SyntheticWeatherProvider, else clear sky.
  double lookahead_hours;  ///< 0 = per-instant stable matching.
  double backhaul_bps;     ///< 0 = infinite station backhaul.
  const char* fault_profile;  ///< faults::make_profile name, or nullptr.
  double horizon_hours;    ///< The "day"; at least 1000 steps, so that
                           ///< p99 has ten steps beyond it.
  int ckpt_every_steps;    ///< 0 = round trips only after the day.
  /// Lanes of the extra traced pass behind pool.speedup_contacts; 0 = none.
  int pool_lanes;
  /// Seconds of --seconds that buy one cycle (each network's day once),
  /// about what a cycle takes on a 4-core host.
  double cycle_seconds;
};

// Why each workload exists is recorded in README.md.
constexpr Workload kWorkloads[] = {
    {"paper-day", 259, true, 0.0, 0.0, nullptr, 24.0, 0, 4, 12.0},
    {"hourly-plan-ckpt", 259, true, 1.0, 200e6, "brownout", 24.0, 60, 0,
     24.0},
};

/// CRC32 of the summary JSON and of the Prometheus text of each network
/// at kDefaultSeed.  A change that alters simulated results must update
/// these, and say why.
struct Pin {
  std::string_view workload;
  int network;
  std::uint32_t summary_crc;
  std::uint32_t metrics_crc;
};
constexpr Pin kPins[] = {
    {"paper-day", 0, 0xef4f9352u, 0x749cba9au},
    {"paper-day", 1, 0xee56523cu, 0x9ffa6e2au},
    {"hourly-plan-ckpt", 0, 0x40c2b880u, 0xe4e2bbe9u},
    {"hourly-plan-ckpt", 1, 0xfe54b214u, 0x1ff233fau},
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return util::percentile(v, 50.0);
}

std::uint32_t crc_of(std::string_view s) {
  return util::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

/// The generated inputs the program receives.  The seed and the network
/// index drive the network generator, the weather and the fault plan;
/// network k of seed n is generated from 16n + k.
struct Inputs {
  std::vector<groundseg::SatelliteConfig> sats;
  std::vector<groundseg::GroundStation> stations;
  std::uint64_t weather_seed = 0;
  core::SimulationOptions opts;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed, int network) {
  const std::uint64_t s =
      seed * 16 + static_cast<std::uint64_t>(network);
  Inputs in;
  groundseg::NetworkOptions net;
  net.num_satellites = w.num_sats;
  net.seed = s;
  in.sats = groundseg::generate_constellation(net, kEpoch);
  in.stations = groundseg::generate_dgs_stations(net);
  in.weather_seed = splitmix64(2 * s);
  in.opts.start = kEpoch;
  in.opts.duration_hours = w.horizon_hours;
  in.opts.step_seconds = kStepSeconds;
  in.opts.lookahead_hours = w.lookahead_hours;
  in.opts.station_backhaul_bps = w.backhaul_bps;
  if (w.fault_profile != nullptr) {
    in.opts.faults = faults::make_profile(
        w.fault_profile, splitmix64(2 * s + 1),
        static_cast<int>(in.stations.size()));
  }
  return in;
}

/// One live session and everything it borrows.
struct Rig {
  std::unique_ptr<weather::SyntheticWeatherProvider> wx;
  std::unique_ptr<perfbench::WeatherProbe> probe;
  obs::Registry registry;
  core::SimulationOptions opts;
  std::unique_ptr<core::Session> session;

  const weather::WeatherProvider* provider() const {
    if (probe != nullptr) return probe.get();
    return wx.get();
  }
};

/// Constructs the weather provider and the session (the set-up a user
/// waits for before the first step); returns the seconds it took.
double set_up(const Workload& w, const Inputs& in, int lanes, bool probe,
              Rig* rig) {
  rig->opts = in.opts;
  rig->opts.parallel.num_threads = lanes;
  rig->opts.metrics = &rig->registry;
  const Clock::time_point t0 = Clock::now();
  if (w.weather) {
    rig->wx = std::make_unique<weather::SyntheticWeatherProvider>(
        in.weather_seed, kEpoch, w.horizon_hours + 1.0);
    if (probe) {
      rig->probe = std::make_unique<perfbench::WeatherProbe>(rig->wx.get());
    }
  }
  rig->session = std::make_unique<core::Session>(
      in.sats, in.stations, rig->provider(), rig->opts);
  return ms_between(t0, Clock::now()) / 1e3;
}

/// One simulated day on a fresh session.
struct Pass {
  std::vector<double> step_ms;
  std::vector<double> snapshot_ms;
  std::vector<double> restore_ms;
  std::vector<double> ckpt_ms;      ///< snapshot + restore.
  double measured_s = 0.0;          ///< Steps plus in-day checkpoints.
  std::uint64_t ckpt_bytes = 0;
  std::map<std::string, std::uint64_t> section_bytes;
  std::string summary_json;
  std::string prometheus;
  std::unique_ptr<Rig> rig;
  std::vector<std::string> failures;
};

/// snapshot() into memory, restore(), and continue on the restored
/// session.  With `verify`, checks that the restored session snapshots to
/// the same bytes.
void checkpoint_round_trip(const Inputs& in, bool verify, Pass* p) {
  Rig& rig = *p->rig;
  std::stringstream buf;
  const Clock::time_point t0 = Clock::now();
  rig.session->snapshot(buf);
  const Clock::time_point t1 = Clock::now();
  std::unique_ptr<core::Session> restored = core::Session::restore(
      buf, in.sats, in.stations, rig.provider(), rig.opts);
  const Clock::time_point t2 = Clock::now();
  p->snapshot_ms.push_back(ms_between(t0, t1));
  p->restore_ms.push_back(ms_between(t1, t2));
  p->ckpt_ms.push_back(ms_between(t0, t2));

  const std::string bytes = buf.str();
  if (verify) {
    std::ostringstream again;
    restored->snapshot(again);
    if (again.str() != bytes) {
      p->failures.push_back(
          "snapshot -> restore -> snapshot differs at step " +
          std::to_string(restored->step_index()));
    }
  }
  rig.session = std::move(restored);

  core::CheckpointView view;
  if (const auto e = core::read_checkpoint(bytes, &view)) {
    p->failures.push_back("unreadable checkpoint: " + e->where + ": " +
                          e->message);
    return;
  }
  p->ckpt_bytes = bytes.size();
  p->section_bytes.clear();
  for (const auto& [name, body] : view.sections) {
    p->section_bytes[name] = body.size();
  }
}

/// generated == dropped + queued + delivered + wasted - requeued, where
/// the last three terms are the bytes acknowledged or awaiting an ack.
void check_conservation(const core::SimulationResult& r,
                        std::vector<std::string>* failures) {
  double queued = 0.0;
  double generated = 0.0;
  for (const core::SatelliteOutcome& s : r.per_satellite) {
    queued += s.backlog_bytes;
    generated += s.generated_bytes;
  }
  const double rhs = r.total_dropped_bytes + queued +
                     r.total_delivered_bytes + r.wasted_transmission_bytes -
                     r.requeued_bytes;
  const double tol = 1e-6 * std::max(1.0, r.total_generated_bytes);
  if (std::abs(r.total_generated_bytes - rhs) > tol ||
      std::abs(r.total_generated_bytes - generated) > tol) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "byte conservation: generated %.3f vs accounted %.3f "
                  "(per-satellite sum %.3f)",
                  r.total_generated_bytes, rhs, generated);
    failures->push_back(buf);
  }
}

/// One day; `verify` checks every checkpoint round trip byte for byte.
Pass run_pass(const Workload& w, const Inputs& in, int lanes, bool probe,
              bool verify) {
  Pass p;
  p.rig = std::make_unique<Rig>();
  set_up(w, in, lanes, probe, p.rig.get());
  while (!p.rig->session->done()) {
    const Clock::time_point t0 = Clock::now();
    p.rig->session->step();
    const double ms = ms_between(t0, Clock::now());
    p.step_ms.push_back(ms);
    p.measured_s += ms / 1e3;
    if (w.ckpt_every_steps > 0 &&
        p.rig->session->step_index() % w.ckpt_every_steps == 0) {
      checkpoint_round_trip(in, verify, &p);
      p.measured_s += p.ckpt_ms.back() / 1e3;
    }
  }
  if (w.ckpt_every_steps == 0) {
    for (int k = 0; k < kEndCheckpoints; ++k) {
      checkpoint_round_trip(in, verify, &p);
    }
  }
  const core::SimulationResult report = p.rig->session->report();
  check_conservation(report, &p.failures);
  std::ostringstream summary;
  core::write_summary_json(summary, report);
  p.summary_json = summary.str();
  std::ostringstream prom;
  p.rig->registry.write_prometheus(prom);
  p.prometheus = prom.str();
  return p;
}

/// Checks `p` produced the same report and metrics as `ref`.
void check_same_result(const Pass& ref, const char* what, Pass* p) {
  if (p->summary_json != ref.summary_json ||
      p->prometheus != ref.prometheus) {
    p->failures.push_back(std::string(what) +
                          ": report or Prometheus text differs");
  }
}

void check_pinned(const Workload& w, std::uint64_t seed, int network,
                  Pass* p) {
  const std::uint32_t summary_crc = crc_of(p->summary_json);
  const std::uint32_t metrics_crc = crc_of(p->prometheus);
  std::fprintf(stderr,
               "digest: summary %08" PRIx32 " prometheus %08" PRIx32
               " (seed %" PRIu64 ", network %d)\n",
               summary_crc, metrics_crc, seed, network);
  if (seed != kDefaultSeed) return;
  for (const Pin& pin : kPins) {
    if (pin.workload != w.name || pin.network != network) continue;
    if (summary_crc != pin.summary_crc || metrics_crc != pin.metrics_crc) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "digest mismatch at the default seed, network %d: "
                    "summary %08" PRIx32 " (pinned %08" PRIx32
                    "), prometheus %08" PRIx32 " (pinned %08" PRIx32 ")",
                    network, summary_crc, pin.summary_crc, metrics_crc,
                    pin.metrics_crc);
      p->failures.push_back(buf);
    }
    return;
  }
  p->failures.push_back("no pinned digest for network " +
                        std::to_string(network));
}

/// Metrics of one run, printed in the order added.
class Output {
 public:
  void add(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), value, unit});
  }
  void print(bool correct, std::int64_t attempted) const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": {",
                correct ? "true" : "false", attempted,
                correct ? std::int64_t{0} : attempted);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void report_failures(const std::vector<std::string>& failures) {
  for (const std::string& f : failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
}

/// Per-index least value over days that repeat identical work.
std::vector<double> least_over_days(
    const std::vector<std::vector<double>>& days) {
  std::vector<double> out = days.front();
  for (const std::vector<double>& d : days) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k] = std::min(out[k], d[k]);
    }
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// --trace 0: simulates the day of each of the kNetworks networks, in
/// cycles, one cycle per w.cycle_seconds of `seconds` (at least one), and
/// prints the end-to-end metrics.
///
/// The host is shared, and its slow phases, seconds long, slow every step
/// in them by tens of percent: the times of one step on two identical days
/// correlate by less than 0.2.  A repeated day redoes the same
/// deterministic work, and host noise only ever adds time, so every timed
/// operation (step, checkpoint round trip) is taken at its least time over
/// the network's days, and the metrics are computed from those: step p50
/// and p99, the checkpoint median, and the day length behind
/// sim_hours_per_s (the sum of the least times).  Set-ups are timed before
/// every day, so that they too sample the whole run.  Each metric but
/// setup_s is computed per network; the run reports the median over
/// networks.
/// The number of cycles depends on `seconds` only, never on how fast the
/// host was, so a run's figures always combine the same work.
int run_timed(const Workload& w, std::uint64_t seed, double seconds) {
  std::vector<Inputs> nets;
  for (int k = 0; k < kNetworks; ++k) nets.push_back(make_inputs(w, seed, k));
  std::vector<double> setup_s;
  const int cycles =
      std::max(1, static_cast<int>(seconds / w.cycle_seconds));
  // Indexed [network][day][operation].
  std::vector<std::vector<std::vector<double>>> step_ms(kNetworks);
  std::vector<std::vector<std::vector<double>>> ckpt_ms(kNetworks);
  std::vector<Pass> first(kNetworks);
  std::vector<std::string> failures;
  std::int64_t steps = 0;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (int k = 0; k < kNetworks; ++k) {
      for (int i = 0; i < kSetupsPerDay; ++i) {
        Rig rig;
        setup_s.push_back(set_up(w, nets[k], 1, false, &rig));
      }
      // A repeated day is checked against the first one as a whole.
      Pass p = run_pass(w, nets[k], 1, false, cycle == 0);
      if (cycle == 0) {
        check_pinned(w, seed, k, &p);
      } else {
        check_same_result(first[k], "repeated day", &p);
      }
      steps += static_cast<std::int64_t>(p.step_ms.size());
      step_ms[k].push_back(std::move(p.step_ms));
      ckpt_ms[k].push_back(std::move(p.ckpt_ms));
      failures.insert(failures.end(), p.failures.begin(), p.failures.end());
      p.rig.reset();  // Only one session is alive at a time.
      if (cycle == 0) first[k] = std::move(p);
    }
  }
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> hours_per_s;
  std::vector<double> ckpt;
  for (int k = 0; k < kNetworks; ++k) {
    std::vector<double> step = least_over_days(step_ms[k]);
    const std::vector<double> round_trips = least_over_days(ckpt_ms[k]);
    // End-of-day round trips are not part of the day.
    const double day_ms = sum(step) + (w.ckpt_every_steps > 0
                                           ? sum(round_trips)
                                           : 0.0);
    std::sort(step.begin(), step.end());
    p50.push_back(util::percentile(step, 50.0));
    p99.push_back(util::percentile(step, 99.0));
    hours_per_s.push_back(w.horizon_hours / (day_ms / 1e3));
    ckpt.push_back(median(round_trips));
    std::fprintf(stderr,
                 "network %d: %zu day(s) of %zu steps, %zu checkpoints: "
                 "step p50 %.4f ms p99 %.4f ms, %.4f h/s, checkpoint %.3f "
                 "ms\n",
                 k, step_ms[k].size(), step.size(), round_trips.size(),
                 p50.back(), p99.back(), hours_per_s.back(), ckpt.back());
  }
  std::fprintf(stderr, "%s: %zu set-ups\n", std::string(w.name).c_str(),
               setup_s.size());
  report_failures(failures);

  Output out;
  out.add("setup_s", median(setup_s), "s");
  out.add("step_ms_p50", median(p50), "ms");
  out.add("step_ms_p99", median(p99), "ms");
  out.add("sim_hours_per_s", median(hours_per_s), "h/s");
  out.add("ckpt_ms_p50", median(ckpt), "ms");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.print(failures.empty(), steps);
  return failures.empty() ? 0 : 1;
}

/// A traced pass and its fold.
struct Traced {
  Pass pass;
  std::string trace_json;  ///< Owns the span names.
  std::map<std::string, perfbench::SpanStats, std::less<>> fold;
  std::vector<double> plan_ms;  ///< plan.horizon durations.
};

Traced run_traced_pass(const Workload& w, const Inputs& in, int lanes,
                       bool probe) {
  Traced t;
  obs::clear_trace();
  obs::set_trace_enabled(true);
  t.pass = run_pass(w, in, lanes, probe, true);
  obs::set_trace_enabled(false);
  std::ostringstream json;
  obs::write_chrome_trace(json);
  obs::clear_trace();
  t.trace_json = json.str();
  std::vector<perfbench::Span> spans;
  if (!perfbench::parse_chrome_trace(t.trace_json, &spans)) {
    t.pass.failures.push_back("unreadable Chrome trace export");
  }
  int step_tid = -1;
  for (const perfbench::Span& s : spans) {
    if (s.name == "sim.step") step_tid = s.tid;
    if (s.name == "plan.horizon") {
      t.plan_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  if (const perfbench::WeatherProbe* pr = t.pass.rig->probe.get()) {
    for (perfbench::Span s : pr->owner_spans()) {
      s.tid = step_tid;
      spans.push_back(s);
    }
  }
  t.fold = perfbench::fold_spans(std::move(spans));
  return t;
}

perfbench::SpanStats stats_of(const Traced& t, std::string_view name) {
  const auto it = t.fold.find(name);
  return it == t.fold.end() ? perfbench::SpanStats{} : it->second;
}

double counter(const Pass& p, const char* name) {
  double v = 0.0;
  obs::read_prometheus_sample(p.prometheus, name, &v);
  return v;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// --trace 1: on the first network, an untraced day, a traced day with the
/// weather probe (plus a traced day on pool_lanes lanes), then the
/// per-layer metrics of the traced one-lane day.
int run_traced(const Workload& w, std::uint64_t seed) {
  const Inputs in = make_inputs(w, seed, 0);
  Pass base = run_pass(w, in, 1, false, true);
  check_pinned(w, seed, 0, &base);
  Traced tr = run_traced_pass(w, in, 1, true);
  Pass& p = tr.pass;
  check_same_result(base, "traced pass with the weather probe", &p);
  std::size_t attempted = base.step_ms.size() + p.step_ms.size();

  double speedup_contacts = 0.0;
  std::vector<std::string> failures = base.failures;
  if (w.pool_lanes > 1) {
    Traced pool = run_traced_pass(w, in, w.pool_lanes, false);
    check_same_result(base, "multi-lane pass", &pool.pass);
    attempted += pool.pass.step_ms.size();
    const perfbench::SpanStats c1 = stats_of(tr, "vis.contacts");
    const perfbench::SpanStats cn = stats_of(pool, "vis.contacts");
    speedup_contacts =
        ratio(ratio(static_cast<double>(c1.total_ns),
                    static_cast<double>(c1.count)),
              ratio(static_cast<double>(cn.total_ns),
                    static_cast<double>(cn.count)));
    failures.insert(failures.end(), pool.pass.failures.begin(),
                    pool.pass.failures.end());
  }

  const double steps = static_cast<double>(p.step_ms.size());
  const auto self_us = [&](std::string_view name) {
    return static_cast<double>(stats_of(tr, name).self_ns) / 1e3 / steps;
  };
  double forecasts = 0.0;
  double actuals = 0.0;
  std::int64_t probe_ns = 0;
  if (const perfbench::WeatherProbe* probe = p.rig->probe.get()) {
    forecasts = static_cast<double>(probe->forecast_totals().calls.load());
    actuals = static_cast<double>(probe->actual_totals().calls.load());
    probe_ns = probe->forecast_totals().ns.load() +
               probe->actual_totals().ns.load();
  }

  // The partition of sim.step: every nanosecond of a step is the self time
  // of exactly one span.  Weather terms are the probe's spans.
  const std::pair<const char*, const char*> parts[] = {
      {"weather.forecast_us_per_step", "wx.forecast"},
      {"weather.actual_us_per_step", "wx.actual"},
      {"vis.geometry_self_us_per_step", "vis.geometry"},
      {"link.budget_self_us_per_step", "vis.contacts"},
      {"sched.weigh_self_us_per_step", "sched.instant"},
      {"match.self_us_per_step", "sched.match"},
      {"plan.horizon_self_us_per_step", "plan.horizon"},
      {"plan.blocks_self_us_per_step", "plan.blocks"},
      {"exec.self_us_per_step", "sim.execute"},
      {"backhaul.self_us_per_step", "sim.backhaul"},
      {"session.generate_self_us_per_step", "sim.generate"},
      {"session.schedule_self_us_per_step", "sim.schedule"},
      {"step.unattributed_us_per_step", "sim.step"},
  };
  const perfbench::SpanStats step = stats_of(tr, "sim.step");
  std::int64_t parts_ns = 0;
  std::fprintf(stderr, "%s traced step partition (us/step):\n",
               std::string(w.name).c_str());
  for (const auto& [metric, span] : parts) {
    parts_ns += stats_of(tr, span).self_ns;
    std::fprintf(stderr, "  %-36s %10.2f\n", metric, self_us(span));
  }
  std::fprintf(stderr, "  %-36s %10.2f\n", "= trace.step_us_per_step",
               static_cast<double>(step.total_ns) / 1e3 / steps);
  // Exact in integer nanoseconds: every span nests in a step.
  if (parts_ns != step.total_ns) {
    p.failures.push_back("per-layer self times sum to " +
                         std::to_string(parts_ns) + " ns, step time is " +
                         std::to_string(step.total_ns) + " ns");
  }
  if (probe_ns != stats_of(tr, "wx.forecast").total_ns +
                      stats_of(tr, "wx.actual").total_ns) {
    p.failures.push_back("weather calls outside the traced steps");
  }
  failures.insert(failures.end(), p.failures.begin(), p.failures.end());
  report_failures(failures);

  Output out;
  out.add("weather.forecast_queries_per_step", forecasts / steps, "count");
  out.add("weather.actual_queries_per_step", actuals / steps, "count");
  out.add("weather.ns_per_query",
          ratio(static_cast<double>(probe_ns), forecasts + actuals), "ns");
  for (const auto& [metric, span] : parts) {
    out.add(metric, self_us(span), "us");
  }
  out.add("trace.step_us_per_step",
          static_cast<double>(step.total_ns) / 1e3 / steps, "us");

  const double precise = counter(p, "dgs_vis_cull_precise_total");
  const double instants = counter(p, "dgs_sched_instants_total");
  out.add("orbit.propagations_per_step",
          counter(p, "dgs_vis_propagations_total") / steps, "count");
  out.add("vis.cull_survival",
          ratio(precise, counter(p, "dgs_vis_cull_candidates_total")),
          "ratio");
  out.add("vis.edge_yield",
          ratio(counter(p, "dgs_vis_contact_edges_total"), precise), "ratio");
  out.add("link.budgets_per_step",
          counter(p, "dgs_vis_link_budgets_total") / steps, "count");
  out.add("match.edges_per_step",
          instants > 0.0 ? counter(p, "dgs_vis_contact_edges_total") / steps
                         : 0.0,
          "count");
  out.add("match.matched_per_step",
          counter(p, "dgs_sched_matched_edges_total") / steps, "count");
  out.add("match.warm_hit_ratio",
          ratio(counter(p, "dgs_sched_warm_hits_total"), instants), "ratio");

  const perfbench::SpanStats plans = stats_of(tr, "plan.horizon");
  out.add("plan.count", static_cast<double>(plans.count), "count");
  out.add("plan.ms_p50", median(tr.plan_ms), "ms");
  out.add("plan.blocks_self_us_per_plan",
          ratio(static_cast<double>(stats_of(tr, "plan.blocks").self_ns) / 1e3,
                static_cast<double>(plans.count)),
          "us");
  const double hits = counter(p, "dgs_geometry_cache_hits_total");
  out.add("geometry_cache.hit_ratio",
          ratio(hits, hits + counter(p, "dgs_geometry_cache_misses_total")),
          "ratio");

  out.add("exec.failed_ratio",
          ratio(counter(p, "dgs_sim_failed_assignments_total"),
                counter(p, "dgs_sim_assignments_total")),
          "ratio");
  out.add("ckpt.snapshot_ms_p50", median(p.snapshot_ms), "ms");
  out.add("ckpt.restore_ms_p50", median(p.restore_ms), "ms");
  out.add("ckpt.bytes", static_cast<double>(p.ckpt_bytes), "bytes");
  for (const char* section : core::checkpoint_section_names()) {
    const auto it = p.section_bytes.find(section);
    out.add(std::string("ckpt.section_bytes.") + section,
            it == p.section_bytes.end() ? 0.0
                                        : static_cast<double>(it->second),
            "bytes");
  }
  out.add("pool.speedup_contacts", speedup_contacts, "ratio");
  out.add("trace.overhead_pct",
          (p.measured_s / base.measured_s - 1.0) * 100.0, "%");
  out.print(failures.empty(), static_cast<std::int64_t>(attempted));
  return failures.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: dgs_perfbench --workload <paper-day|hourly-plan-ckpt> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = v;
      continue;
    }
    if (flag == "--seed") {
      seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      return usage();
    }
    if (end == v || *end != '\0') return usage();
  }
  if (argc % 2 != 1 || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return usage();
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (candidate.name == workload) w = &candidate;
  }
  if (w == nullptr) return usage();

  try {
    return trace == 1 ? run_traced(*w, seed) : run_timed(*w, seed, seconds);
  } catch (const std::exception& e) {
    // A step that throws fails the run; no partial result is printed.
    std::fprintf(stderr, "dgs_perfbench: %s\n", e.what());
    return 1;
  }
}
