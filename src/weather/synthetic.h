// Synthetic spatio-temporally correlated weather (Dark Sky substitute).
//
// The constructor materializes a deterministic population of moving storm
// systems for a simulation horizon.  Each storm is a Gaussian rain cell
// with a wider cloud shield, drifting (westerlies poleward of 30 deg,
// easterlies in the tropics) over its lifetime.  Rain at a point is the
// strongest nearby cell; clouds add every shield within 3.5 sigma, in
// storm order, to a latitude-band background.  Forecasts degrade with lead
// time by sampling the true field at a displaced position, which
// reproduces the operationally relevant failure mode: a mis-placed storm,
// not white noise on the rain rate.
//
// A query does not test every storm of the horizon.  The constructor also
// builds an immutable storm index: one CSR table keyed by 4 deg latitude
// band that lists, in ascending storm order, every storm whose centre
// latitude, swept over its life, comes within 3.5 sigma of the band.
// A query visits only its band, and a conservative longitude bound skips
// storms whose shield provably misses the point before the great-circle
// distance is computed.  Both only drop storms the per-storm tests reject
// anyway, so every sample is bit-for-bit the one the exhaustive scan gives
// (DESIGN.md §14, "Storm index").  A NaN latitude or time falls back to
// that scan.
#pragma once

#include <cstdint>
#include <vector>

#include "src/weather/provider.h"

namespace dgs::weather {

struct SyntheticWeatherOptions {
  /// Expected number of simultaneously active storm systems world-wide.
  /// A few hundred matches the global population of significant
  /// precipitation systems.
  int mean_active_storms = 250;
  double mean_lifetime_hours = 12.0;
  double mean_radius_km = 250.0;
  /// Forecast position error growth [km per hour of lead time].
  double forecast_drift_km_per_hour = 30.0;
};

class SyntheticWeatherProvider final : public WeatherProvider {
 public:
  /// Generates storms covering [start, start + horizon_hours].  Queries
  /// outside the horizon see only background climatology.
  SyntheticWeatherProvider(std::uint64_t seed, const util::Epoch& start,
                           double horizon_hours,
                           const SyntheticWeatherOptions& opts = {});

  WeatherSample actual(double latitude_rad, double longitude_rad,
                       const util::Epoch& when) const override;

  WeatherSample forecast(double latitude_rad, double longitude_rad,
                         const util::Epoch& when,
                         double lead_seconds) const override;

  /// Test oracles: actual() and forecast() computed by testing every storm
  /// of the horizon, without the index or the longitude bound.
  WeatherSample actual_exhaustive(double latitude_rad, double longitude_rad,
                                  const util::Epoch& when) const;
  WeatherSample forecast_exhaustive(double latitude_rad, double longitude_rad,
                                    const util::Epoch& when,
                                    double lead_seconds) const;

  /// Number of storm systems generated (all lifetimes, whole horizon).
  std::size_t storm_count() const { return storms_.size(); }
  /// Birth and death of storm `i`, in seconds after `start`.
  double storm_birth_s(std::size_t i) const { return storms_.at(i).birth_s; }
  double storm_death_s(std::size_t i) const { return storms_.at(i).death_s; }

 private:
  struct Storm {
    double lat0_rad, lon0_rad;     ///< Centre at birth.
    double vel_east_rad_s;         ///< Zonal drift.
    double vel_north_rad_s;        ///< Meridional drift.
    double birth_s, death_s;       ///< Seconds relative to start_.
    double radius_km;              ///< Rain-core Gaussian sigma.
    double peak_rain_mm_h;
    double cloud_kg_m2;            ///< Peak cloud liquid of the shield.
    /// Latitude bands the storm is listed in, inclusive.
    int band_lo, band_hi;
  };

  enum class Scan { kIndexed, kExhaustive };

  static void add_storm(const Storm& s, double lat, double lon, double t_s,
                        double cos_lat, WeatherSample* out);
  WeatherSample sample_at(double lat, double lon, double t_s,
                          Scan scan) const;
  WeatherSample forecast_at(double lat, double lon, const util::Epoch& when,
                            double lead_seconds, Scan scan) const;

  void build_index();

  util::Epoch start_;
  double horizon_s_;
  SyntheticWeatherOptions opts_;
  std::uint64_t seed_;
  std::vector<Storm> storms_;

  // Storm index: latitude band b lists the ids
  // band_storms_[band_start_[b] .. band_start_[b + 1]), ascending.
  std::vector<std::uint32_t> band_start_;
  std::vector<std::uint32_t> band_storms_;
};

}  // namespace dgs::weather
