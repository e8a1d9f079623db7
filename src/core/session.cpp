#include "src/core/session.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/checkpoint.h"
#include "src/link/dvbs2_framing.h"
#include "src/obs/trace.h"
#include "src/util/angles.h"
#include "src/util/check.h"
#include "src/util/crc32.h"

namespace dgs::core {

namespace {

// --- Checkpoint encoding helpers -------------------------------------------

// Encoded sizes of the repeated records: the least bytes one element of
// a counted run occupies, which bounds the count (BinaryReader::count).
constexpr std::size_t kEpochBytes = 16;
constexpr std::size_t kChunkBytes = kEpochBytes + 3 * 8;
constexpr std::size_t kEdgeBytes = 3 * 4 + 4 * 8;

void put_epoch(BinaryWriter& w, const util::Epoch& e) {
  w.f64(e.jd_whole());
  w.f64(e.jd_frac());
}

util::Epoch get_epoch(BinaryReader& r) {
  const double whole = r.f64();
  const double frac = r.f64();
  return util::Epoch::from_parts(whole, frac);
}

void put_samples(BinaryWriter& w, const util::SampleSet& s) {
  w.u8(s.sort_cached() ? 1 : 0);
  w.u64(s.raw().size());
  w.f64s(s.raw());
}

util::SampleSet get_samples(BinaryReader& r) {
  const bool sorted = r.u8() != 0;
  std::vector<double> raw(r.count(8));
  r.f64s(raw);
  util::SampleSet s;
  s.restore(std::move(raw), sorted);
  return s;
}

void put_chunk(BinaryWriter& w, const DataChunk& c) {
  put_epoch(w, c.capture);
  w.f64(c.total_bytes);
  w.f64(c.remaining_bytes);
  w.f64(c.priority);
}

DataChunk get_chunk(BinaryReader& r) {
  DataChunk c;
  c.capture = get_epoch(r);
  c.total_bytes = r.f64();
  c.remaining_bytes = r.f64();
  c.priority = r.f64();
  return c;
}

/// The MODCOD table index of a scheduled MODCOD, or -1 for none.  Edges
/// only ever point into the static link::dvbs2_modcods() table, so the
/// index round-trips the pointer — including pointer *equality*, which the
/// contact-lifecycle modcod_selected comparison relies on.
std::int32_t put_modcod(const link::ModCod* m) {
  return m == nullptr ? -1
                      : static_cast<std::int32_t>(link::modcod_index(*m));
}

const link::ModCod* get_modcod(std::int32_t idx) {
  return idx < 0 ? nullptr
                 : &link::modcod_by_index(static_cast<std::uint8_t>(idx));
}

void put_edge(BinaryWriter& w, const ContactEdge& e) {
  w.i32(e.sat);
  w.i32(e.station);
  w.f64(e.elevation_rad);
  w.f64(e.range_km);
  w.f64(e.predicted_rate_bps);
  w.i32(put_modcod(e.modcod));
  w.f64(e.weight);
}

ContactEdge get_edge(BinaryReader& r) {
  ContactEdge e;
  e.sat = r.i32();
  e.station = r.i32();
  e.elevation_rad = r.f64();
  e.range_km = r.f64();
  e.predicted_rate_bps = r.f64();
  e.modcod = get_modcod(r.i32());
  e.weight = r.f64();
  return e;
}

/// Canonical byte encoding of every option that shapes the simulated
/// trajectory (see Session::options_crc32 for the exclusion list).
void put_options(BinaryWriter& w, const SimulationOptions& o) {
  put_epoch(w, o.start);
  w.f64(o.duration_hours);
  w.f64(o.step_seconds);
  w.u8(static_cast<std::uint8_t>(o.matcher));
  w.u8(static_cast<std::uint8_t>(o.value));
  w.u8(o.weather_aware ? 1 : 0);
  w.u8(o.couple_forecast_to_plan_upload ? 1 : 0);
  w.f64(o.initial_backlog_bytes);
  w.f64(o.initial_backlog_age_hours);
  w.f64(o.urgent_fraction);
  w.f64(o.urgent_priority);
  w.f64(o.lookahead_hours);
  w.f64(o.station_backhaul_bps);
  w.f64(o.slew_seconds);
  w.u8(o.collect_timeseries ? 1 : 0);
  w.u64(o.faults.seed);
  w.u64(o.faults.outages.size());
  for (const faults::OutageWindow& ow : o.faults.outages) {
    w.i32(ow.station_index);
    w.f64(ow.start_hours);
    w.f64(ow.end_hours);
  }
  w.f64(o.faults.churn.mtbf_hours);
  w.f64(o.faults.churn.mttr_hours);
  w.f64(o.faults.churn.station_fraction);
  w.u64(o.faults.backhaul.size());
  for (const faults::BackhaulFault& bf : o.faults.backhaul) {
    w.i32(bf.station_index);
    w.f64(bf.start_hours);
    w.f64(bf.end_hours);
    w.f64(bf.rate_multiplier);
  }
  w.f64(o.faults.ack_relay.loss_probability);
  w.f64(o.faults.ack_relay.initial_backoff_s);
  w.f64(o.faults.ack_relay.backoff_multiplier);
  w.f64(o.faults.ack_relay.max_backoff_s);
  w.i32(o.faults.ack_relay.max_attempts);
  w.f64(o.faults.plan_upload.failure_probability);
  w.u64(o.station_subset.size());
  for (const int id : o.station_subset) w.i32(id);
  w.u64(o.tenants.size());
  for (const TenantSpec& t : o.tenants) {
    w.str(t.name);
    w.f64(t.weight);
    w.f64(t.sla_latency_minutes);
    w.u64(t.satellites.size());
    for (const int s : t.satellites) w.i32(s);
  }
}

}  // namespace

Session::Session(std::vector<groundseg::SatelliteConfig> sats,
                 std::vector<groundseg::GroundStation> stations,
                 const weather::WeatherProvider* actual_weather,
                 const SimulationOptions& opts)
    : sats_(std::move(sats)), stations_(std::move(stations)),
      actual_wx_(actual_weather), opts_(opts),
      clock_(opts.start, opts.step_seconds) {
  DGS_ENSURE(!sats_.empty() && !stations_.empty(),
             "sats=" << sats_.size() << " stations=" << stations_.size());
  // Apply the station-subset restriction before anything else: membership
  // is checked against the *input* station ids, while everything
  // downstream (fault-plan indices, the visibility engine, metrics) sees
  // only the filtered list, in input order.
  std::vector<int> station_ids;
  station_ids.reserve(stations_.size());
  for (const groundseg::GroundStation& gs : stations_) {
    station_ids.push_back(gs.id);
  }
  if (!opts_.station_subset.empty()) {
    std::vector<groundseg::GroundStation> kept;
    kept.reserve(opts_.station_subset.size());
    for (groundseg::GroundStation& gs : stations_) {
      if (std::find(opts_.station_subset.begin(),
                    opts_.station_subset.end(),
                    gs.id) != opts_.station_subset.end()) {
        kept.push_back(std::move(gs));
      }
    }
    stations_ = std::move(kept);
  }
  if (const auto e = opts_.validate(static_cast<int>(stations_.size()),
                                    station_ids,
                                    static_cast<int>(sats_.size()))) {
    // dgslint: allow(R4) -- renders OptionsError; format is test-pinned
    throw std::invalid_argument("SimulationOptions." + e->field + ": " +
                                e->message);
  }

  num_sats_ = static_cast<int>(sats_.size());
  num_stations_ = static_cast<int>(stations_.size());
  dt_ = opts_.step_seconds;
  steps_ = static_cast<std::int64_t>(
      std::llround(opts_.duration_hours * 3600.0 / dt_));
  events_ = opts_.events;

  // Scheduling sees forecasts; outcomes use the actual field.
  const weather::WeatherProvider* forecast_wx =
      opts_.weather_aware ? actual_wx_ : nullptr;
  pool_ = std::make_unique<util::ThreadPool>(opts_.parallel);
  engine_ = std::make_unique<VisibilityEngine>(sats_, stations_,
                                               forecast_wx);
  engine_->set_thread_pool(pool_.get());
  // Must precede Scheduler construction and enable_geometry_cache: both
  // register their counters against the engine's registry at setup time.
  engine_->set_metrics(opts_.metrics);
  if (!opts_.tenants.empty()) {
    arbiter_.emplace(opts_.tenants, num_sats_);
    tenant_latency_.resize(opts_.tenants.size());
    tenant_sla_ok_.assign(opts_.tenants.size(), 0);
  }
  SchedulerConfig sched_cfg;
  sched_cfg.matcher = opts_.matcher;
  sched_cfg.value = opts_.value;
  sched_cfg.quantum_seconds = dt_;
  sched_cfg.edge_value_modifier = opts_.edge_value_modifier;
  if (arbiter_.has_value()) {
    sched_cfg.sat_value_scale = &arbiter_->sat_scale();
  }
  scheduler_ = std::make_unique<Scheduler>(engine_.get(), sched_cfg);

  res_.per_satellite.resize(num_sats_);

  // Fault injection (DESIGN.md §11): the plan is expanded onto the step
  // grid once, on the driver thread; all later queries are pure lookups or
  // stateless hash draws, so fault behaviour is bit-identical at any
  // thread count.
  if (!opts_.faults.empty()) {
    timeline_.emplace(opts_.faults, num_stations_, steps_, dt_);
  }
  station_faults_ =
      timeline_.has_value() && timeline_->has_station_faults();
  backhaul_faults_ =
      timeline_.has_value() && timeline_->has_backhaul_faults();

  register_metrics();

  prev_down_.assign(static_cast<std::size_t>(num_stations_), 0);
  if (station_faults_) {
    down_.assign(static_cast<std::size_t>(num_stations_), 0);
  }
  if (backhaul_faults_) {
    prev_backhaul_mult_.assign(static_cast<std::size_t>(num_stations_),
                               1.0);
  }

  queues_.resize(static_cast<std::size_t>(num_sats_));
  for (int s = 0; s < num_sats_; ++s) {
    if (sats_[s].storage_capacity_bytes > 0.0) {
      queues_[s].set_capacity(sats_[s].storage_capacity_bytes);
    }
  }
  last_plan_.assign(static_cast<std::size_t>(num_sats_), opts_.start);
  station_busy_.assign(static_cast<std::size_t>(num_stations_), 0);
  leads_.assign(static_cast<std::size_t>(num_sats_), 0.0);
  prev_served_.assign(static_cast<std::size_t>(num_stations_), -1);

  // Steady-state warm start: pre-existing backlog captured in the past.
  if (opts_.initial_backlog_bytes > 0.0) {
    const util::Epoch captured =
        opts_.start.plus_seconds(-opts_.initial_backlog_age_hours * 3600.0);
    for (int s = 0; s < num_sats_; ++s) {
      queues_[s].generate(opts_.initial_backlog_bytes, captured);
      res_.per_satellite[s].generated_bytes += opts_.initial_backlog_bytes;
      res_.total_generated_bytes += opts_.initial_backlog_bytes;
      if (om_.generated_bytes != nullptr) {
        om_.generated_bytes->inc(opts_.initial_backlog_bytes);
      }
    }
  }

  // Station edge queues (opts_.station_backhaul_bps > 0).
  if (opts_.station_backhaul_bps > 0.0) {
    edge_queues_.assign(
        static_cast<std::size_t>(num_stations_),
        backend::StationEdgeQueue(opts_.station_backhaul_bps));
    for (backend::StationEdgeQueue& eq : edge_queues_) {
      eq.set_metrics(om_.backhaul_received, om_.backhaul_uploaded);
    }
  }

  // Look-ahead planning state (opts_.lookahead_hours > 0) and the
  // step-geometry memoization, sized to hold a whole planning window.
  plan_window_steps_ =
      opts_.lookahead_hours > 0.0
          ? std::max(1, static_cast<int>(std::llround(
                            opts_.lookahead_hours * 3600.0 / dt_)))
          : 0;
  engine_->enable_geometry_cache(
      opts_.start, dt_, plan_window_steps_ > 0 ? plan_window_steps_ : 4);
}

void Session::register_metrics() {
  obs::Registry* const metrics = opts_.metrics;
  if (metrics == nullptr) return;
  // Sim-level metrics.  All updates happen on the driver thread: byte
  // quantities are non-integer doubles, which the shard-fold determinism
  // contract (DESIGN.md §10) keeps out of parallel regions.  Each counter
  // mirrors the matching SimulationResult field add-for-add, so the two
  // stay bit-identical.
  om_.generated_bytes = metrics->counter(
      "dgs_sim_generated_bytes_total", "Bytes captured at the sensors");
  om_.delivered_bytes = metrics->counter(
      "dgs_sim_delivered_bytes_total", "Bytes captured by the ground");
  om_.dropped_bytes = metrics->counter(
      "dgs_sim_dropped_bytes_total", "Bytes lost to full recorders");
  om_.wasted_bytes = metrics->counter(
      "dgs_sim_wasted_bytes_total",
      "Bytes transmitted into failed (mis-predicted MODCOD) slots");
  om_.requeued_bytes = metrics->counter(
      "dgs_sim_requeued_bytes_total",
      "Bytes re-queued for retransmission after a collated report");
  om_.assignments = metrics->counter(
      "dgs_sim_assignments_total", "Scheduled (sat, station) slots");
  om_.failed_assignments = metrics->counter(
      "dgs_sim_failed_assignments_total",
      "Slots whose scheduled MODCOD did not close");
  om_.slew_events = metrics->counter(
      "dgs_sim_slew_events_total",
      "Station retargets to a new satellite (slew model on)");
  om_.steps = metrics->counter("dgs_sim_steps_total",
                               "Simulation steps executed");
  om_.ack_batches = metrics->counter(
      "dgs_sim_ack_batches_total",
      "Delivery batches acknowledged via collated reports");
  om_.plan_uploads = metrics->counter(
      "dgs_sim_plan_uploads_total",
      "Fresh plans uploaded at transmit-capable contacts");
  om_.backhaul_received = metrics->counter(
      "dgs_backhaul_received_bytes_total",
      "Bytes queued at station edges from the downlink");
  om_.backhaul_uploaded = metrics->counter(
      "dgs_backhaul_uploaded_bytes_total",
      "Bytes uploaded from station edges to the cloud");
  om_.backlog_bytes = metrics->gauge(
      "dgs_sim_backlog_bytes", "Bytes queued on board across satellites");
  om_.pending_ack_bytes = metrics->gauge(
      "dgs_sim_pending_ack_bytes",
      "Bytes delivered but not yet acknowledged");
  om_.station_queued_bytes = metrics->gauge(
      "dgs_backhaul_queued_bytes",
      "Bytes still queued at station edges (not yet in the cloud)");
  om_.latency_minutes = metrics->histogram(
      "dgs_sim_latency_minutes", "Capture-to-ground latency per chunk",
      {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0});

  // Fault metrics, registered only when a fault plan is active so
  // fault-free runs keep their exposition unchanged.
  if (timeline_.has_value()) {
    fm_.outage_transitions = metrics->counter(
        "dgs_faults_outage_transitions_total",
        "Station up->down and down->up transitions");
    fm_.outage_lost_bytes = metrics->counter(
        "dgs_faults_outage_lost_bytes_total",
        "Bytes transmitted into a faulted station's dead contact");
    fm_.ack_retries = metrics->counter(
        "dgs_faults_ack_retries_total",
        "Ack-relay report attempts lost to Internet faults and retried");
    fm_.replans = metrics->counter(
        "dgs_faults_replans_total",
        "Look-ahead replans triggered by an assigned station faulting");
    fm_.plan_upload_failures = metrics->counter(
        "dgs_faults_plan_upload_failures_total",
        "TX contacts whose TT&C exchange failed");
    fm_.backhaul_degraded_steps = metrics->counter(
        "dgs_faults_backhaul_degraded_station_steps_total",
        "Station-steps spent with a degraded backhaul multiplier");
    fm_.stations_down = metrics->gauge(
        "dgs_faults_stations_down", "Stations currently in outage");
  }

  // Per-tenant series (service mode): names carry the validated tenant
  // name, e.g. dgs_tenant_acme_delivered_bytes_total.
  if (arbiter_.has_value()) {
    for (int t = 0; t < arbiter_->num_tenants(); ++t) {
      const std::string& name = arbiter_->tenant(t).name;
      tm_.delivered.push_back(metrics->counter(
          "dgs_tenant_" + name + "_delivered_bytes_total",
          "Bytes delivered for tenant " + name));
      tm_.assignments.push_back(metrics->counter(
          "dgs_tenant_" + name + "_assignments_total",
          "Scheduled slots for tenant " + name));
      tm_.share.push_back(metrics->gauge(
          "dgs_tenant_" + name + "_share",
          "Realized delivered-bytes share of tenant " + name));
    }
  }
}

double Session::realized_rate_bps(const ContactEdge& e,
                                  const util::Epoch& when) const {
  const groundseg::GroundStation& gs = stations_[e.station];
  weather::WeatherSample wx;
  if (actual_wx_ != nullptr) {
    wx = actual_wx_->actual(gs.location.latitude_rad,
                            gs.location.longitude_rad, when);
  }
  link::PathConditions path;
  path.range_km = e.range_km;
  path.elevation_rad = e.elevation_rad;
  path.site_latitude_rad = gs.location.latitude_rad;
  path.site_altitude_km = gs.location.altitude_km;
  path.rain_rate_mm_h = wx.rain_rate_mm_h;
  path.cloud_liquid_kg_m2 = wx.cloud_liquid_kg_m2;

  // The satellite transmits at the *scheduled* MODCOD (receive-only
  // stations cannot request a change mid-pass).  The transfer succeeds iff
  // the actual Es/N0 still meets that MODCOD's requirement.  Beamforming
  // stations pay the same power-split penalty the scheduler assumed.
  link::ReceiveSystem rx = gs.receiver;
  if (gs.beam_count > 1) rx.aperture_efficiency /= gs.beam_count;
  const link::LinkBudget actual =
      link::evaluate_link(sats_[e.sat].radio, rx, path);
  if (e.modcod == nullptr) return 0.0;
  if (actual.esn0_db < e.modcod->required_esn0_db) return 0.0;
  return link::bitrate_bps(*e.modcod, sats_[e.sat].radio.symbol_rate_hz) *
         sats_[e.sat].radio.channels;
}

void Session::step() {
  DGS_ENSURE(!done(), "Session::step past the end of the horizon (step "
                          << step_ << " of " << steps_ << ")");
  DGS_TRACE_SPAN("sim.step");
  const std::int64_t step = step_;
  obs::Registry* const metrics = opts_.metrics;
  obs::EventLog* const events = events_;
  // StepClock is the single timestamp source: step_start drives the
  // physics, end_hours stamps both the timeseries record and every event
  // this step emits, so the two artifacts join without drift.
  const util::Epoch now = clock_.step_start(step);
  if (events != nullptr) events->begin_step(step, clock_.end_hours(step));

  // 0. Fault state for this step: refresh the station down mask and
  // emit up/down transitions.  `new_outage` feeds the look-ahead
  // replan check below.
  bool new_outage = false;
  if (station_faults_) {
    timeline_->fill_station_down(step, &down_);
    for (int g = 0; g < num_stations_; ++g) {
      if (down_[g] != 0 && prev_down_[g] == 0) {
        new_outage = true;
        if (events != nullptr) events->outage_begin(g);
        if (fm_.outage_transitions != nullptr) {
          fm_.outage_transitions->inc();
        }
      } else if (down_[g] == 0 && prev_down_[g] != 0) {
        if (events != nullptr) events->outage_end(g);
        if (fm_.outage_transitions != nullptr) {
          fm_.outage_transitions->inc();
        }
      }
    }
    prev_down_.assign(down_.begin(), down_.end());
  }
  const std::span<const char> down_span =
      station_faults_ ? std::span<const char>(down_)
                      : std::span<const char>();

  // 1. Imaging: continuous data generation, one chunk per step (two when
  // an urgent tier is configured).
  {
    DGS_TRACE_SPAN("sim.generate");
    for (int s = 0; s < num_sats_; ++s) {
      const double bytes =
          sats_[s].data_generation_bytes_per_day * dt_ / 86400.0;
      const double urgent = bytes * opts_.urgent_fraction;
      if (urgent > 0.0) {
        queues_[s].generate(urgent, now, opts_.urgent_priority);
      }
      queues_[s].generate(bytes - urgent, now);
      res_.per_satellite[s].generated_bytes += bytes;
      res_.total_generated_bytes += bytes;
      if (om_.generated_bytes != nullptr) om_.generated_bytes->inc(bytes);
    }
  }

  // 2. Plan staleness per satellite.
  if (opts_.couple_forecast_to_plan_upload) {
    for (int s = 0; s < num_sats_; ++s) {
      leads_[s] = now.seconds_since(last_plan_[s]);
    }
  }  // else all-zero: always-fresh plans.

  // 3. Schedule this instant: either per-instant matching (with failure
  // injection applied) or the pre-computed look-ahead horizon plan.
  std::vector<ContactEdge> assigned;
  {
    DGS_TRACE_SPAN("sim.schedule");
    if (plan_window_steps_ > 0) {
      const bool refresh =
          plan_origin_ < 0 || step - plan_origin_ >= plan_window_steps_;
      if (refresh) {
        const int window = static_cast<int>(
            std::min<std::int64_t>(plan_window_steps_, steps_ - step));
        plan_ = plan_horizon(*engine_, queues_,
                             scheduler_->value_function(), now, window, dt_,
                             down_span);
        plan_origin_ = step;
      }
      assigned = plan_.per_step[step - plan_origin_];
      // Replan-on-failure: a station that just went down while the
      // remainder of this window still assigns it invalidates the plan.
      // This step executes the stale assignments (in-flight
      // transmissions into the dead station are lost below); the
      // horizon from the next step is re-scored with the down mask.
      if (!refresh && new_outage && step + 1 < steps_) {
        int faulted_station = -1;
        const auto rel = static_cast<std::size_t>(step - plan_origin_);
        for (std::size_t k = rel;
             k < plan_.per_step.size() && faulted_station < 0; ++k) {
          for (const ContactEdge& e : plan_.per_step[k]) {
            if (down_[e.station] != 0) {
              faulted_station = e.station;
              break;
            }
          }
        }
        if (faulted_station >= 0) {
          const int window = static_cast<int>(std::min<std::int64_t>(
              plan_window_steps_, steps_ - (step + 1)));
          plan_ = plan_horizon(*engine_, queues_,
                               scheduler_->value_function(),
                               clock_.step_start(step + 1), window, dt_,
                               down_span);
          plan_origin_ = step + 1;
          res_.replans += 1;
          if (fm_.replans != nullptr) fm_.replans->inc();
          if (events != nullptr) {
            events->replan(faulted_station, window);
          }
        }
      }
    } else {
      // Tenant fair share: refresh each tenant's deficit multiplier from
      // the cumulative delivered books before scoring this instant's
      // edges (driver thread; deterministic, DESIGN.md §16).
      if (arbiter_.has_value()) arbiter_->refresh_scales();
      assigned = scheduler_->schedule_instant(now, queues_, leads_,
                                              down_span);
    }
  }

  // 4. Execute the assignments against actual weather.  The satellite
  // always transmits at the scheduled MODCOD and rate (receive-only
  // stations cannot renegotiate); whether the ground captures it depends
  // on the actual Es/N0.
  double step_edge_received = 0.0;
  {
    DGS_TRACE_SPAN("sim.execute");
    for (const ContactEdge& e : assigned) {
      res_.assignments += 1;
      res_.total_matched_value += e.weight;
      station_busy_[e.station] += 1;
      if (om_.assignments != nullptr) om_.assignments->inc();
      const int tenant = arbiter_.has_value() ? arbiter_->tenant_of(e.sat)
                                              : -1;
      if (arbiter_.has_value()) {
        arbiter_->record_assignment(e.sat);
        if (!tm_.assignments.empty()) tm_.assignments[tenant]->inc();
      }

      // Contact lifecycle: a pair entering the assigned set opens a
      // contact; a MODCOD change mid-pass is a reselection.
      if (events != nullptr) {
        const auto key = std::make_pair(e.sat, e.station);
        auto [it, inserted] = open_contacts_.try_emplace(key);
        OpenContact& oc = it->second;
        const std::string_view name =
            e.modcod != nullptr ? e.modcod->name : "none";
        if (inserted) {
          events->contact_open(e.sat, e.station, name,
                               e.predicted_rate_bps,
                               util::rad2deg(e.elevation_rad));
        } else if (oc.modcod != e.modcod) {
          events->modcod_selected(e.sat, e.station, name,
                                  e.predicted_rate_bps);
        }
        oc.modcod = e.modcod;
        oc.held_steps += 1;
        oc.last_step = step;
      }

      // A faulted station captures nothing: the satellite transmits
      // into the dead contact (it cannot tell), and the bytes take the
      // same missing-pieces requeue path as a mis-predicted MODCOD.
      const bool station_up = !station_faults_ || down_[e.station] == 0;
      const bool received = station_up && realized_rate_bps(e, now) > 0.0;
      // Retargeting the dish costs slew/re-lock time out of the quantum.
      double effective_dt = dt_;
      if (opts_.slew_seconds > 0.0 && prev_served_[e.station] != e.sat) {
        effective_dt = std::max(0.0, dt_ - opts_.slew_seconds);
        res_.slew_events += 1;
        if (om_.slew_events != nullptr) om_.slew_events->inc();
      }
      const double link_bytes = e.predicted_rate_bps * effective_dt / 8.0;
      // Ack-relay Internet faults: the station's report upload is lost
      // with some probability and retried with capped exponential
      // backoff, delaying when the batch's verdict reaches the
      // operator (and hence the next TX contact).
      double report_delay_s = 0.0;
      if (received && opts_.faults.has_ack_relay_faults()) {
        const faults::AckRelayOutcome relay =
            timeline_->ack_relay_outcome(step, e.sat, e.station);
        if (relay.retries > 0) {
          report_delay_s = relay.delay_s;
          res_.ack_retries += relay.retries;
          if (fm_.ack_retries != nullptr) {
            fm_.ack_retries->inc(relay.retries);
          }
          if (events != nullptr) {
            events->ack_relay_retry(e.sat, e.station, relay.retries,
                                    relay.delay_s);
          }
        }
      }
      const double sent = queues_[e.sat].transmit(
          link_bytes, now,
          [&](double latency_s, const DataChunk& chunk) {
            res_.latency_minutes.add(latency_s / 60.0);
            if (om_.latency_minutes != nullptr) {
              om_.latency_minutes->observe(latency_s / 60.0);
            }
            if (chunk.priority > 1.0) {
              res_.urgent_latency_minutes.add(latency_s / 60.0);
            } else {
              res_.bulk_latency_minutes.add(latency_s / 60.0);
            }
            if (tenant >= 0) {
              const double lat_min = latency_s / 60.0;
              tenant_latency_[tenant].add(lat_min);
              const double sla =
                  arbiter_->tenant(tenant).sla_latency_minutes;
              if (sla <= 0.0 || lat_min <= sla) {
                tenant_sla_ok_[tenant] += 1;
              }
            }
            if (!edge_queues_.empty()) {
              edge_queues_[e.station].receive(chunk.total_bytes,
                                              chunk.priority,
                                              chunk.capture, now);
              step_edge_received += chunk.total_bytes;
            }
          },
          received, report_delay_s);
      if (received) {
        res_.assigned_capacity_bytes += link_bytes;
        res_.per_satellite[e.sat].delivered_bytes += sent;
        res_.total_delivered_bytes += sent;
        if (om_.delivered_bytes != nullptr) om_.delivered_bytes->inc(sent);
        if (arbiter_.has_value()) {
          arbiter_->record_delivery(e.sat, sent);
          if (!tm_.delivered.empty()) tm_.delivered[tenant]->inc(sent);
        }
      } else {
        res_.failed_assignments += 1;
        res_.wasted_transmission_bytes += sent;
        if (om_.failed_assignments != nullptr) {
          om_.failed_assignments->inc();
        }
        if (om_.wasted_bytes != nullptr) om_.wasted_bytes->inc(sent);
        if (!station_up) {
          res_.outage_lost_bytes += sent;
          if (fm_.outage_lost_bytes != nullptr) {
            fm_.outage_lost_bytes->inc(sent);
          }
          if (events != nullptr) {
            events->outage_loss(e.sat, e.station, sent);
          }
        }
      }
      if (events != nullptr) {
        events->bytes_moved(e.sat, e.station, sent, received);
      }

      // Transmit-capable contact: collated report (acks + missing pieces)
      // and a fresh plan upload.  The S-band TT&C uplink is independent
      // of the X-band downlink outcome, so this happens even if the data
      // transfer failed.
      if (stations_[e.station].tx_capable && station_up) {
        // TT&C plan-upload fault: the whole exchange (acks + fresh
        // plan) is lost; the satellite keeps its stale plan until the
        // next TX opportunity.
        if (opts_.faults.has_plan_upload_faults() &&
            timeline_->plan_upload_fails(step, e.sat, e.station)) {
          res_.plan_upload_failures += 1;
          if (fm_.plan_upload_failures != nullptr) {
            fm_.plan_upload_failures->inc();
          }
          if (events != nullptr) {
            events->plan_upload_failed(e.sat, e.station);
          }
        } else {
          double acked_bytes = 0.0;
          int ack_batches = 0;
          const double requeued = queues_[e.sat].acknowledge_all(
              now, [&](double delay_s, double bytes) {
                res_.ack_delay_minutes.add(delay_s / 60.0);
                acked_bytes += bytes;
                ack_batches += 1;
              });
          res_.requeued_bytes += requeued;
          if (om_.requeued_bytes != nullptr) {
            om_.requeued_bytes->inc(requeued);
          }
          if (om_.ack_batches != nullptr && ack_batches > 0) {
            om_.ack_batches->inc(ack_batches);
          }
          if (om_.plan_uploads != nullptr) om_.plan_uploads->inc();
          if (events != nullptr) {
            events->ack_relayed(e.sat, e.station, acked_bytes, requeued,
                                ack_batches);
            events->plan_uploaded(e.sat, e.station,
                                  now.seconds_since(last_plan_[e.sat]));
          }
          last_plan_[e.sat] = now;
          res_.per_satellite[e.sat].tx_contacts += 1;
        }
      }
    }
  }

  // Contacts absent from this step's assigned set have ended.
  if (events != nullptr) {
    for (auto it = open_contacts_.begin(); it != open_contacts_.end();) {
      if (it->second.last_step != step) {
        events->contact_close(it->first.first, it->first.second,
                              it->second.held_steps);
        it = open_contacts_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // 4b. Track which satellite each station served (slew accounting).
  if (opts_.slew_seconds > 0.0) {
    std::fill(prev_served_.begin(), prev_served_.end(), -1);
    for (const ContactEdge& e : assigned) prev_served_[e.station] = e.sat;
  }

  // 5. Station backhaul: edge queues upload toward the cloud.
  if (!edge_queues_.empty()) {
    DGS_TRACE_SPAN("sim.backhaul");
    const util::Epoch upload_t = now.plus_seconds(dt_);
    double step_uploaded = 0.0;
    std::int64_t degraded_stations = 0;
    for (int g = 0; g < num_stations_; ++g) {
      double mult = 1.0;
      if (backhaul_faults_) {
        mult = timeline_->backhaul_multiplier(g, step);
        if (mult < 1.0) {
          degraded_stations += 1;
          if (events != nullptr && prev_backhaul_mult_[g] >= 1.0) {
            events->backhaul_fault_begin(g, mult);
          }
        } else if (events != nullptr && prev_backhaul_mult_[g] < 1.0) {
          events->backhaul_fault_end(g);
        }
        prev_backhaul_mult_[static_cast<std::size_t>(g)] = mult;
      }
      step_uploaded += edge_queues_[static_cast<std::size_t>(g)].drain(
          dt_, upload_t,
          [&](double latency_s, const backend::EdgeItem&) {
            res_.cloud_latency_minutes.add(latency_s / 60.0);
          },
          mult);
    }
    if (fm_.backhaul_degraded_steps != nullptr && degraded_stations > 0) {
      fm_.backhaul_degraded_steps->inc(
          static_cast<double>(degraded_stations));
    }
    if (events != nullptr) {
      double queued = 0.0;
      for (const backend::StationEdgeQueue& eq : edge_queues_) {
        queued += eq.queued_bytes();
      }
      events->backhaul_step(step_edge_received, step_uploaded, queued);
    }
  }

  // 6. Storage accounting.
  for (int s = 0; s < num_sats_; ++s) {
    res_.per_satellite[s].storage_high_water_bytes =
        std::max(res_.per_satellite[s].storage_high_water_bytes,
                 queues_[s].storage_bytes());
  }

  // 6b. Conservation audit: every byte a sensor offered must be exactly
  // one of dropped / queued / awaiting ack / freed by an ack.  A silent
  // leak here would corrupt every downstream backlog and latency figure.
#ifdef DGS_ENABLE_DCHECKS
  for (int s = 0; s < num_sats_; ++s) {
    const std::string audit = queues_[s].audit_conservation();
    DGS_CHECK(audit.empty(), "step " << step << ", sat " << s << ": "
                                     << audit);
  }
#endif

  // 6c. Geometry-cache deltas accrued during this step.
  if (events != nullptr) {
    if (const GeometryCache* gc = engine_->geometry_cache();
        gc != nullptr) {
      const std::uint64_t h = gc->hits();
      const std::uint64_t m = gc->misses();
      if (h > cache_hits_prev_) {
        events->cache_hit(static_cast<std::int64_t>(h - cache_hits_prev_));
      }
      if (m > cache_misses_prev_) {
        events->cache_miss(
            static_cast<std::int64_t>(m - cache_misses_prev_));
      }
      cache_hits_prev_ = h;
      cache_misses_prev_ = m;
    }
  }

  // 6d. Step-end gauges.
  if (metrics != nullptr) {
    double backlog = 0.0;
    double pending = 0.0;
    for (int s = 0; s < num_sats_; ++s) {
      backlog += queues_[s].queued_bytes();
      pending += queues_[s].pending_ack_bytes();
    }
    om_.backlog_bytes->set(backlog);
    om_.pending_ack_bytes->set(pending);
    double station_queued = 0.0;
    for (const backend::StationEdgeQueue& eq : edge_queues_) {
      station_queued += eq.queued_bytes();
    }
    om_.station_queued_bytes->set(station_queued);
    om_.steps->inc();
    if (fm_.stations_down != nullptr) {
      std::int64_t n_down = 0;
      for (const char d : down_) n_down += (d != 0) ? 1 : 0;
      fm_.stations_down->set(static_cast<double>(n_down));
    }
    if (!tm_.share.empty()) {
      for (int t = 0; t < arbiter_->num_tenants(); ++t) {
        tm_.share[t]->set(arbiter_->share(t));
      }
    }
  }

  // 7. Timeseries capture (same StepClock as the event log).
  if (opts_.collect_timeseries) {
    StepRecord rec;
    rec.hours = clock_.end_hours(step);
    rec.delivered_bytes_cum = res_.total_delivered_bytes;
    for (int s = 0; s < num_sats_; ++s) {
      rec.backlog_bytes_total += queues_[s].queued_bytes();
    }
    rec.active_links = static_cast<int>(assigned.size());
    rec.failed_cum = res_.failed_assignments;
    res_.timeseries.push_back(rec);
  }

  ++step_;
  if (step_ == steps_) finalize();
}

void Session::finalize() {
  if (finalized_) return;
  finalized_ = true;

  // Contacts still open at horizon end close at the final step's stamp.
  if (events_ != nullptr) {
    for (const auto& [key, oc] : open_contacts_) {
      events_->contact_close(key.first, key.second, oc.held_steps);
    }
  }
  open_contacts_.clear();

  for (int s = 0; s < num_sats_; ++s) {
    if (om_.dropped_bytes != nullptr) {
      om_.dropped_bytes->inc(queues_[s].dropped_bytes());
    }
  }

  // Whole-run conservation: the result's aggregate counters must agree
  // with the queues' lifetime books.  Generated splits into delivered +
  // dropped + still-queued + awaiting-ack, with failed transmissions
  // (wasted) either re-queued already or still in limbo awaiting their
  // collated report.
#ifdef DGS_ENABLE_DCHECKS
  {
    double offered = 0.0, acked = 0.0, pending = 0.0, queued = 0.0,
           dropped = 0.0;
    for (int s = 0; s < num_sats_; ++s) {
      offered += queues_[s].offered_bytes();
      acked += queues_[s].acked_bytes();
      pending += queues_[s].pending_ack_bytes();
      queued += queues_[s].queued_bytes();
      dropped += queues_[s].dropped_bytes();
    }
    const double tol = 1e-6 * std::max(1.0, offered);
    DGS_CHECK(std::abs(res_.total_generated_bytes - offered) <= tol,
              "generated=" << res_.total_generated_bytes
                           << " != offered=" << offered);
    DGS_CHECK(std::abs(res_.total_generated_bytes -
                       (dropped + queued + pending + acked)) <= tol,
              "generated=" << res_.total_generated_bytes << " vs dropped="
                           << dropped << " + queued=" << queued
                           << " + pending_ack=" << pending << " + acked="
                           << acked);
    // Sent bytes not yet returned by a report are exactly the pending set.
    DGS_CHECK(std::abs((res_.total_delivered_bytes +
                        res_.wasted_transmission_bytes -
                        res_.requeued_bytes) -
                       (acked + pending)) <= tol,
              "delivered=" << res_.total_delivered_bytes << " + wasted="
                           << res_.wasted_transmission_bytes
                           << " - requeued=" << res_.requeued_bytes
                           << " vs acked=" << acked << " + pending_ack="
                           << pending);
  }
#endif
}

std::int64_t Session::run_until_hours(double t_hours) {
  std::int64_t executed = 0;
  while (!done() &&
         static_cast<double>(step_) * dt_ / 3600.0 < t_hours) {
    step();
    ++executed;
  }
  return executed;
}

SimulationResult Session::run_to_end() {
  while (!done()) step();
  finalize();  // Covers degenerate zero-step horizons.
  return report();
}

SimulationResult Session::report() const {
  SimulationResult out = res_;
  for (int s = 0; s < num_sats_; ++s) {
    SatelliteOutcome& o = out.per_satellite[s];
    o.backlog_bytes = queues_[s].queued_bytes();
    o.pending_ack_bytes = queues_[s].pending_ack_bytes();
    o.dropped_bytes = queues_[s].dropped_bytes();
    out.total_dropped_bytes += o.dropped_bytes;
    out.backlog_gb.add(o.backlog_bytes / 1e9);
  }
  for (const backend::StationEdgeQueue& eq : edge_queues_) {
    out.station_queued_bytes += eq.queued_bytes();
  }
  std::int64_t busy_total = 0;
  for (const std::int64_t b : station_busy_) busy_total += b;
  out.steps = step_;
  out.mean_station_utilization =
      step_ > 0 ? static_cast<double>(busy_total) /
                      static_cast<double>(step_ * num_stations_)
                : 0.0;
  if (arbiter_.has_value()) {
    out.per_tenant.resize(static_cast<std::size_t>(
        arbiter_->num_tenants()));
    for (int t = 0; t < arbiter_->num_tenants(); ++t) {
      const TenantSpec& spec = arbiter_->tenant(t);
      TenantOutcome& to = out.per_tenant[static_cast<std::size_t>(t)];
      to.name = spec.name;
      to.weight = spec.weight;
      to.sla_latency_minutes = spec.sla_latency_minutes;
      to.num_satellites = static_cast<int>(spec.satellites.size());
      for (const int s : spec.satellites) {
        to.generated_bytes += out.per_satellite[s].generated_bytes;
        to.backlog_bytes += queues_[s].queued_bytes();
      }
      to.delivered_bytes = arbiter_->delivered_bytes(t);
      to.assignments = arbiter_->assignments(t);
      to.entitlement = arbiter_->entitlement(t);
      to.share = arbiter_->share(t);
      to.latency_minutes = tenant_latency_[static_cast<std::size_t>(t)];
      const std::size_t delivered_chunks =
          tenant_latency_[static_cast<std::size_t>(t)].size();
      to.sla_attainment =
          delivered_chunks == 0
              ? 1.0
              : static_cast<double>(
                    tenant_sla_ok_[static_cast<std::size_t>(t)]) /
                    static_cast<double>(delivered_chunks);
    }
  }
  return out;
}

std::uint32_t Session::options_crc32() const {
  BinaryWriter w;
  put_options(w, opts_);
  return util::crc32(
      {reinterpret_cast<const std::uint8_t*>(w.data().data()),
       w.data().size()});
}

void Session::snapshot(std::ostream& out) const {
  std::vector<std::pair<std::string, std::string>> sections;

  {  // "result": the accumulators (derived fields are report()-time).
    BinaryWriter w;
    put_samples(w, res_.latency_minutes);
    put_samples(w, res_.urgent_latency_minutes);
    put_samples(w, res_.bulk_latency_minutes);
    put_samples(w, res_.backlog_gb);
    put_samples(w, res_.ack_delay_minutes);
    put_samples(w, res_.cloud_latency_minutes);
    w.f64(res_.station_queued_bytes);
    w.u64(res_.timeseries.size());
    for (const StepRecord& r : res_.timeseries) {
      w.f64(r.hours);
      w.f64(r.delivered_bytes_cum);
      w.f64(r.backlog_bytes_total);
      w.i32(r.active_links);
      w.i64(r.failed_cum);
    }
    w.u64(res_.per_satellite.size());
    for (const SatelliteOutcome& o : res_.per_satellite) {
      w.f64(o.generated_bytes);
      w.f64(o.delivered_bytes);
      w.f64(o.backlog_bytes);
      w.f64(o.pending_ack_bytes);
      w.f64(o.dropped_bytes);
      w.f64(o.storage_high_water_bytes);
      w.i32(o.tx_contacts);
    }
    w.f64(res_.total_generated_bytes);
    w.f64(res_.total_delivered_bytes);
    w.f64(res_.total_dropped_bytes);
    w.f64(res_.assigned_capacity_bytes);
    w.i64(res_.assignments);
    w.f64(res_.total_matched_value);
    w.i64(res_.failed_assignments);
    w.f64(res_.wasted_transmission_bytes);
    w.f64(res_.requeued_bytes);
    w.i64(res_.slew_events);
    w.f64(res_.outage_lost_bytes);
    w.i64(res_.ack_retries);
    w.i64(res_.replans);
    w.i64(res_.plan_upload_failures);
    w.i64(res_.steps);
    w.f64(res_.mean_station_utilization);
    w.u64(open_contacts_.size());
    for (const auto& [key, oc] : open_contacts_) {
      w.i32(key.first);
      w.i32(key.second);
      w.i32(put_modcod(oc.modcod));
      w.i32(oc.held_steps);
      w.i64(oc.last_step);
    }
    sections.emplace_back("result", w.take());
  }

  {  // "queues": per-satellite onboard stores + plan-upload stamps.
    BinaryWriter w;
    w.u64(queues_.size());
    for (const OnboardQueue& q : queues_) {
      w.u64(q.chunks().size());
      for (const DataChunk& c : q.chunks()) put_chunk(w, c);
      w.u64(q.pending_batches().size());
      for (const OnboardQueue::PendingBatch& b : q.pending_batches()) {
        put_epoch(w, b.sent);
        put_epoch(w, b.report_ready);
        w.f64(b.bytes);
        w.u8(b.received ? 1 : 0);
        w.u64(b.pieces.size());
        for (const DataChunk& c : b.pieces) put_chunk(w, c);
      }
      w.f64(q.queued_bytes());
      w.f64(q.pending_ack_bytes());
      w.f64(q.dropped_bytes());
      w.f64(q.offered_bytes());
      w.f64(q.acked_bytes());
    }
    for (const util::Epoch& e : last_plan_) put_epoch(w, e);
    sections.emplace_back("queues", w.take());
  }

  {  // "stations": busy/served/fault masks + edge queues.
    BinaryWriter w;
    w.u64(static_cast<std::uint64_t>(num_stations_));
    for (int g = 0; g < num_stations_; ++g) {
      w.i64(station_busy_[g]);
      w.i32(prev_served_[g]);
    }
    w.u8(station_faults_ ? 1 : 0);
    if (station_faults_) {
      for (const char d : prev_down_) w.u8(static_cast<std::uint8_t>(d));
    }
    w.u8(backhaul_faults_ ? 1 : 0);
    if (backhaul_faults_) {
      w.f64s(prev_backhaul_mult_);
    }
    w.u8(edge_queues_.empty() ? 0 : 1);
    for (const backend::StationEdgeQueue& eq : edge_queues_) {
      w.u64(eq.items().size());
      for (const backend::EdgeItem& item : eq.items()) {
        put_epoch(w, item.capture);
        put_epoch(w, item.ground_rx);
        w.f64(item.bytes);
        w.f64(item.remaining_bytes);
        w.f64(item.priority);
      }
      w.f64(eq.queued_bytes());
    }
    sections.emplace_back("stations", w.take());
  }

  {  // "planner": the active look-ahead horizon.
    BinaryWriter w;
    w.i64(plan_origin_);
    w.u64(plan_.per_step.size());
    for (const std::vector<ContactEdge>& step_edges : plan_.per_step) {
      w.u64(step_edges.size());
      for (const ContactEdge& e : step_edges) put_edge(w, e);
    }
    sections.emplace_back("planner", w.take());
  }

  {  // "geometry": the memoized step-geometry cache + event-delta bases.
     // Contents AND counters travel together: restoring one without the
     // other would skew the cache_hit/cache_miss deltas of resumed steps.
    BinaryWriter w;
    w.u64(cache_hits_prev_);
    w.u64(cache_misses_prev_);
    const GeometryCache* gc = engine_->geometry_cache();
    w.u8(gc != nullptr ? 1 : 0);
    if (gc != nullptr) {
      w.u64(gc->hits());
      w.u64(gc->misses());
      w.u64(gc->entries().size());
      for (const auto& [key, geom] : gc->entries()) {
        w.i64(key);
        w.u64(geom.sat_ecef.size());
        for (const util::Vec3& v : geom.sat_ecef) {
          w.f64(v.x);
          w.f64(v.y);
          w.f64(v.z);
        }
        w.u64(geom.per_station.size());
        for (const std::vector<VisibleSat>& vis : geom.per_station) {
          w.u64(vis.size());
          for (const VisibleSat& vs : vis) {
            w.i32(vs.sat);
            w.f64(vs.elevation_rad);
            w.f64(vs.range_km);
          }
        }
      }
    }
    sections.emplace_back("geometry", w.take());
  }

  {  // "matcher": warm-start carryover (decides warm vs cold next step).
    BinaryWriter w;
    const WarmStartMatcher& wm = scheduler_->warm_matcher();
    w.u64(wm.prev_pairs().size());
    for (const auto& [sat, station] : wm.prev_pairs()) {
      w.i32(sat);
      w.i32(station);
    }
    w.u64(wm.prev_order().size());
    for (const std::vector<int>& order : wm.prev_order()) {
      w.u64(order.size());
      for (const int g : order) w.i32(g);
    }
    w.i64(wm.warm_hits());
    w.i64(wm.cold_starts());
    w.i64(wm.order_reuses());
    sections.emplace_back("matcher", w.take());
  }

  {  // "tenants": the fair-share books + per-tenant accounting.
    BinaryWriter w;
    w.u8(arbiter_.has_value() ? 1 : 0);
    if (arbiter_.has_value()) {
      w.u64(static_cast<std::uint64_t>(arbiter_->num_tenants()));
      for (int t = 0; t < arbiter_->num_tenants(); ++t) {
        w.f64(arbiter_->delivered_bytes(t));
        w.i64(arbiter_->assignments(t));
        w.i64(tenant_sla_ok_[static_cast<std::size_t>(t)]);
        put_samples(w, tenant_latency_[static_cast<std::size_t>(t)]);
      }
    }
    sections.emplace_back("tenants", w.take());
  }

  {  // "metrics": the registry's folded state, so a resumed run's scrape
     // is byte-identical to an uninterrupted one.
    BinaryWriter w;
    w.u8(opts_.metrics != nullptr ? 1 : 0);
    if (opts_.metrics != nullptr) {
      const std::vector<obs::MetricSnapshot> snap =
          opts_.metrics->snapshot();
      w.u64(snap.size());
      for (const obs::MetricSnapshot& m : snap) {
        w.str(m.name);
        w.str(m.help);
        w.u8(static_cast<std::uint8_t>(m.kind));
        w.f64(m.value);
        w.u64(m.upper_bounds.size());
        w.f64s(m.upper_bounds);
        w.u64(m.cells.size());
        for (const std::uint64_t c : m.cells) w.u64(c);
        w.f64(m.sum);
      }
    }
    sections.emplace_back("metrics", w.take());
  }

  CheckpointHeader header;
  header.num_satellites = num_sats_;
  header.num_stations = num_stations_;
  header.steps = steps_;
  header.step_index = step_;
  header.step_seconds = dt_;
  header.duration_hours = opts_.duration_hours;
  header.finalized = finalized_;
  header.options_crc32 = options_crc32();
  write_checkpoint(out, header, sections);
}

std::unique_ptr<Session> Session::restore(
    std::istream& in, std::vector<groundseg::SatelliteConfig> sats,
    std::vector<groundseg::GroundStation> stations,
    const weather::WeatherProvider* actual_weather,
    const SimulationOptions& opts) {
  // A seekable stream is read straight into one buffer of the remaining
  // size; only a stream that cannot seek goes through a growing copy.
  std::string data;
  const std::istream::pos_type start = in.tellg();
  if (start != std::istream::pos_type(-1) && in.seekg(0, std::ios::end)) {
    const std::istream::pos_type end = in.tellg();
    in.seekg(start);
    data.resize(static_cast<std::size_t>(end - start));
    in.read(data.data(), static_cast<std::streamsize>(data.size()));
    data.resize(static_cast<std::size_t>(in.gcount()));
  } else {
    in.clear();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    data = std::move(buffer).str();
  }
  auto session = std::unique_ptr<Session>(
      new Session(std::move(sats), std::move(stations), actual_weather,
                  opts));
  session->apply_checkpoint(data);
  return session;
}

void Session::apply_checkpoint(std::string_view data) {
  CheckpointView view;
  if (const auto e = read_checkpoint(data, &view)) {
    // dgslint: allow(R4) -- renders ArtifactError for the caller/CLI
    throw std::invalid_argument("checkpoint: " + e->where + ": " +
                                e->message);
  }
  const CheckpointHeader& h = view.header;
  const auto mismatch = [](const std::string& what) {
    // dgslint: allow(R4) -- identity mismatch is caller-recoverable
    throw std::invalid_argument("checkpoint: " + what +
                                " does not match this session");
  };
  if (h.num_satellites != num_sats_) mismatch("num_satellites");
  if (h.num_stations != num_stations_) mismatch("num_stations");
  if (h.steps != steps_) mismatch("steps");
  // The header renders the grid at %.6f; compare with matching slack.
  if (std::abs(h.step_seconds - dt_) > 1e-6 * std::max(1.0, dt_)) {
    mismatch("step_seconds");
  }
  if (std::abs(h.duration_hours - opts_.duration_hours) >
      1e-6 * std::max(1.0, opts_.duration_hours)) {
    mismatch("duration_hours");
  }
  if (h.options_crc32 != options_crc32()) mismatch("options_crc32");

  {  // "result"
    BinaryReader r(view.section("result"));
    res_.latency_minutes = get_samples(r);
    res_.urgent_latency_minutes = get_samples(r);
    res_.bulk_latency_minutes = get_samples(r);
    res_.backlog_gb = get_samples(r);
    res_.ack_delay_minutes = get_samples(r);
    res_.cloud_latency_minutes = get_samples(r);
    res_.station_queued_bytes = r.f64();
    const std::size_t n_ts = r.count(3 * 8 + 4 + 8);
    res_.timeseries.clear();
    res_.timeseries.reserve(n_ts);
    for (std::size_t i = 0; i < n_ts; ++i) {
      StepRecord rec;
      rec.hours = r.f64();
      rec.delivered_bytes_cum = r.f64();
      rec.backlog_bytes_total = r.f64();
      rec.active_links = r.i32();
      rec.failed_cum = r.i64();
      res_.timeseries.push_back(rec);
    }
    const std::uint64_t n_sat = r.u64();
    DGS_ENSURE_EQ(n_sat, static_cast<std::uint64_t>(num_sats_));
    for (int s = 0; s < num_sats_; ++s) {
      SatelliteOutcome& o = res_.per_satellite[s];
      o.generated_bytes = r.f64();
      o.delivered_bytes = r.f64();
      o.backlog_bytes = r.f64();
      o.pending_ack_bytes = r.f64();
      o.dropped_bytes = r.f64();
      o.storage_high_water_bytes = r.f64();
      o.tx_contacts = r.i32();
    }
    res_.total_generated_bytes = r.f64();
    res_.total_delivered_bytes = r.f64();
    res_.total_dropped_bytes = r.f64();
    res_.assigned_capacity_bytes = r.f64();
    res_.assignments = r.i64();
    res_.total_matched_value = r.f64();
    res_.failed_assignments = r.i64();
    res_.wasted_transmission_bytes = r.f64();
    res_.requeued_bytes = r.f64();
    res_.slew_events = r.i64();
    res_.outage_lost_bytes = r.f64();
    res_.ack_retries = r.i64();
    res_.replans = r.i64();
    res_.plan_upload_failures = r.i64();
    res_.steps = r.i64();
    res_.mean_station_utilization = r.f64();
    const std::size_t n_open = r.count(4 * 4 + 8);
    open_contacts_.clear();
    for (std::size_t i = 0; i < n_open; ++i) {
      const int sat = r.i32();
      const int station = r.i32();
      OpenContact oc;
      oc.modcod = get_modcod(r.i32());
      oc.held_steps = r.i32();
      oc.last_step = r.i64();
      open_contacts_.emplace(std::make_pair(sat, station), oc);
    }
    DGS_ENSURE(r.done(), "trailing bytes in checkpoint section 'result'");
  }

  {  // "queues"
    BinaryReader r(view.section("queues"));
    const std::uint64_t n = r.u64();
    DGS_ENSURE_EQ(n, static_cast<std::uint64_t>(num_sats_));
    for (int s = 0; s < num_sats_; ++s) {
      std::deque<DataChunk> chunks;
      const std::size_t n_chunks = r.count(kChunkBytes);
      for (std::size_t i = 0; i < n_chunks; ++i) {
        chunks.push_back(get_chunk(r));
      }
      std::deque<OnboardQueue::PendingBatch> pending;
      const std::size_t n_pending = r.count(2 * kEpochBytes + 8 + 1 + 8);
      for (std::size_t i = 0; i < n_pending; ++i) {
        OnboardQueue::PendingBatch b;
        b.sent = get_epoch(r);
        b.report_ready = get_epoch(r);
        b.bytes = r.f64();
        b.received = r.u8() != 0;
        const std::size_t n_pieces = r.count(kChunkBytes);
        for (std::size_t j = 0; j < n_pieces; ++j) {
          b.pieces.push_back(get_chunk(r));
        }
        pending.push_back(std::move(b));
      }
      const double queued = r.f64();
      const double pend = r.f64();
      const double dropped = r.f64();
      const double offered = r.f64();
      const double acked = r.f64();
      queues_[s].restore_state(std::move(chunks), std::move(pending),
                               queued, pend, dropped, offered, acked);
    }
    for (int s = 0; s < num_sats_; ++s) last_plan_[s] = get_epoch(r);
    DGS_ENSURE(r.done(), "trailing bytes in checkpoint section 'queues'");
  }

  {  // "stations"
    BinaryReader r(view.section("stations"));
    const std::uint64_t n = r.u64();
    DGS_ENSURE_EQ(n, static_cast<std::uint64_t>(num_stations_));
    for (int g = 0; g < num_stations_; ++g) {
      station_busy_[g] = r.i64();
      prev_served_[g] = r.i32();
    }
    const bool had_station_faults = r.u8() != 0;
    DGS_ENSURE_EQ(had_station_faults, station_faults_);
    if (had_station_faults) {
      for (int g = 0; g < num_stations_; ++g) {
        prev_down_[g] = static_cast<char>(r.u8());
      }
    }
    const bool had_backhaul_faults = r.u8() != 0;
    DGS_ENSURE_EQ(had_backhaul_faults, backhaul_faults_);
    if (had_backhaul_faults) {
      r.f64s(prev_backhaul_mult_);
    }
    const bool had_edges = r.u8() != 0;
    DGS_ENSURE_EQ(had_edges, !edge_queues_.empty());
    for (backend::StationEdgeQueue& eq : edge_queues_) {
      std::deque<backend::EdgeItem> items;
      const std::size_t n_items = r.count(2 * kEpochBytes + 3 * 8);
      for (std::size_t i = 0; i < n_items; ++i) {
        backend::EdgeItem item;
        item.capture = get_epoch(r);
        item.ground_rx = get_epoch(r);
        item.bytes = r.f64();
        item.remaining_bytes = r.f64();
        item.priority = r.f64();
        items.push_back(item);
      }
      const double queued = r.f64();
      eq.restore_state(std::move(items), queued);
    }
    DGS_ENSURE(r.done(), "trailing bytes in checkpoint section 'stations'");
  }

  {  // "planner"
    BinaryReader r(view.section("planner"));
    plan_origin_ = r.i64();
    const std::size_t n_steps = r.count(8);
    plan_.per_step.assign(n_steps, {});
    for (std::size_t i = 0; i < n_steps; ++i) {
      const std::size_t n_edges = r.count(kEdgeBytes);
      plan_.per_step[i].reserve(n_edges);
      for (std::size_t j = 0; j < n_edges; ++j) {
        plan_.per_step[i].push_back(get_edge(r));
      }
    }
    DGS_ENSURE(r.done(), "trailing bytes in checkpoint section 'planner'");
  }

  {  // "geometry"
    BinaryReader r(view.section("geometry"));
    cache_hits_prev_ = r.u64();
    cache_misses_prev_ = r.u64();
    const bool had_cache = r.u8() != 0;
    GeometryCache* gc = engine_->mutable_geometry_cache();
    DGS_ENSURE_EQ(had_cache, gc != nullptr);
    if (had_cache) {
      const std::uint64_t hits = r.u64();
      const std::uint64_t misses = r.u64();
      std::map<std::int64_t, StepGeometry> entries;
      const std::size_t n_entries = r.count(3 * 8);
      for (std::size_t i = 0; i < n_entries; ++i) {
        const std::int64_t key = r.i64();
        StepGeometry geom;
        const std::size_t n_ecef = r.count(3 * 8);
        geom.sat_ecef.reserve(n_ecef);
        for (std::size_t j = 0; j < n_ecef; ++j) {
          util::Vec3 v;
          v.x = r.f64();
          v.y = r.f64();
          v.z = r.f64();
          geom.sat_ecef.push_back(v);
        }
        const std::size_t n_st = r.count(8);
        geom.per_station.resize(n_st);
        for (std::size_t g = 0; g < n_st; ++g) {
          const std::size_t n_vis = r.count(4 + 2 * 8);
          geom.per_station[g].reserve(n_vis);
          for (std::size_t k = 0; k < n_vis; ++k) {
            VisibleSat vs;
            vs.sat = r.i32();
            vs.elevation_rad = r.f64();
            vs.range_km = r.f64();
            geom.per_station[g].push_back(vs);
          }
        }
        entries.emplace(key, std::move(geom));
      }
      gc->restore_state(std::move(entries), hits, misses);
    }
    DGS_ENSURE(r.done(), "trailing bytes in checkpoint section 'geometry'");
  }

  {  // "matcher"
    BinaryReader r(view.section("matcher"));
    std::vector<std::pair<int, int>> prev_pairs;
    const std::size_t n_pairs = r.count(2 * 4);
    prev_pairs.reserve(n_pairs);
    for (std::size_t i = 0; i < n_pairs; ++i) {
      const int sat = r.i32();
      const int station = r.i32();
      prev_pairs.emplace_back(sat, station);
    }
    std::vector<std::vector<int>> prev_order;
    const std::size_t n_order = r.count(8);
    prev_order.resize(n_order);
    for (std::size_t i = 0; i < n_order; ++i) {
      const std::size_t m = r.count(4);
      prev_order[i].reserve(m);
      for (std::size_t j = 0; j < m; ++j) {
        prev_order[i].push_back(r.i32());
      }
    }
    const std::int64_t warm_hits = r.i64();
    const std::int64_t cold_starts = r.i64();
    const std::int64_t order_reuses = r.i64();
    scheduler_->warm_matcher().restore_state(
        std::move(prev_pairs), std::move(prev_order), warm_hits,
        cold_starts, order_reuses);
    DGS_ENSURE(r.done(), "trailing bytes in checkpoint section 'matcher'");
  }

  {  // "tenants"
    BinaryReader r(view.section("tenants"));
    const bool had_tenants = r.u8() != 0;
    DGS_ENSURE_EQ(had_tenants, arbiter_.has_value());
    if (had_tenants) {
      const std::uint64_t n = r.u64();
      DGS_ENSURE_EQ(n, static_cast<std::uint64_t>(
                           arbiter_->num_tenants()));
      std::vector<double> delivered(n);
      std::vector<std::int64_t> assignments(n);
      for (std::uint64_t t = 0; t < n; ++t) {
        delivered[t] = r.f64();
        assignments[t] = r.i64();
        tenant_sla_ok_[t] = r.i64();
        tenant_latency_[t] = get_samples(r);
      }
      arbiter_->restore_state(std::move(delivered),
                              std::move(assignments));
    }
    DGS_ENSURE(r.done(), "trailing bytes in checkpoint section 'tenants'");
  }

  {  // "metrics": restored last so it overwrites the cache counters the
     // geometry section already set (with identical values).  Consumed
     // even when this session has no registry.
    BinaryReader r(view.section("metrics"));
    const bool had_metrics = r.u8() != 0;
    std::vector<obs::MetricSnapshot> snap;
    if (had_metrics) {
      // name, help, kind, value, two counts, sum.
      const std::size_t n = r.count(2 * 4 + 1 + 4 * 8);
      snap.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        obs::MetricSnapshot m;
        m.name = r.str();
        m.help = r.str();
        m.kind = r.u8();
        m.value = r.f64();
        m.upper_bounds.resize(r.count(8));
        r.f64s(m.upper_bounds);
        const std::size_t n_cells = r.count(8);
        m.cells.reserve(n_cells);
        for (std::size_t j = 0; j < n_cells; ++j) {
          m.cells.push_back(r.u64());
        }
        m.sum = r.f64();
        snap.push_back(std::move(m));
      }
    }
    if (opts_.metrics != nullptr && !snap.empty()) {
      opts_.metrics->restore(snap);
    }
    DGS_ENSURE(r.done(), "trailing bytes in checkpoint section 'metrics'");
  }

  step_ = h.step_index;
  finalized_ = h.finalized;
}

}  // namespace dgs::core
