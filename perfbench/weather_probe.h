// Delegating WeatherProvider that counts and times every query.
//
// The weather layer has no span and no counter in the library, so the
// traced benchmark pass wraps the real provider in this probe.  Every
// actual()/forecast() call is counted and timed (steady_clock, the clock
// obs::TraceSpan uses); calls made on the constructing thread are also kept
// as spans so the fold can nest them under the library span that made
// them.  Calls from other threads only add to the totals, which are then
// CPU time summed over lanes.  Results are passed through untouched.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "perfbench/span_fold.h"
#include "src/weather/provider.h"

namespace dgs::perfbench {

class WeatherProbe final : public weather::WeatherProvider {
 public:
  /// Counters of one query kind.
  struct Totals {
    std::atomic<std::int64_t> calls{0};
    std::atomic<std::int64_t> ns{0};
  };

  explicit WeatherProbe(const weather::WeatherProvider* inner)
      : inner_(inner), owner_(std::this_thread::get_id()) {}

  weather::WeatherSample actual(double latitude_rad, double longitude_rad,
                                const util::Epoch& when) const override {
    const std::int64_t t0 = now_ns();
    const weather::WeatherSample s =
        inner_->actual(latitude_rad, longitude_rad, when);
    record("wx.actual", &actual_, t0, now_ns());
    return s;
  }

  weather::WeatherSample forecast(double latitude_rad, double longitude_rad,
                                  const util::Epoch& when,
                                  double lead_seconds) const override {
    const std::int64_t t0 = now_ns();
    const weather::WeatherSample s =
        inner_->forecast(latitude_rad, longitude_rad, when, lead_seconds);
    record("wx.forecast", &forecast_, t0, now_ns());
    return s;
  }

  const Totals& actual_totals() const { return actual_; }
  const Totals& forecast_totals() const { return forecast_; }
  /// Spans of the calls made on the constructing thread, `tid` unset.
  const std::vector<Span>& owner_spans() const { return spans_; }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void record(const char* name, Totals* t, std::int64_t t0,
              std::int64_t t1) const {
    t->calls.fetch_add(1, std::memory_order_relaxed);
    t->ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    if (std::this_thread::get_id() == owner_) {
      spans_.push_back(Span{name, 0, t0, t1});
    }
  }

  const weather::WeatherProvider* inner_;
  const std::thread::id owner_;
  mutable Totals actual_;
  mutable Totals forecast_;
  mutable std::vector<Span> spans_;  ///< Written by the owner thread only.
};

}  // namespace dgs::perfbench
