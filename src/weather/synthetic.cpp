#include "src/weather/synthetic.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/angles.h"
#include "src/util/check.h"
#include "src/util/constants.h"
#include "src/util/rng.h"
#include "src/weather/climatology.h"

namespace dgs::weather {
namespace {

constexpr double kEarthRadiusKm = 6371.0;

/// A storm's shield reaches 3.5 sigma; past that it is not sampled.
constexpr double kShieldSigmas = 3.5;

/// Storm index: 4 deg latitude bands over [-90, 90] deg.  Latitudes past
/// the poles clamp to the edge bands.
constexpr int kBands = 45;
constexpr double kBandsPerRad = kBands / util::kPi;

/// Relative slack on the 3.5 sigma radius for the index and the longitude
/// bound: far above the few-ulp error of either side's arithmetic, far
/// below anything that changes which storms a query visits in practice.
constexpr double kMargin = 1e-6;

/// Band of latitude `lat`, clamped at both ends (NaN maps to 0).  Monotone
/// non-decreasing in `lat`, which is what makes the index exact: if lat
/// lies in [a, b] then its band lies in [band_of(a), band_of(b)].
int band_of(double lat) {
  const double u = (lat + util::kPi / 2.0) * kBandsPerRad;
  return static_cast<int>(std::min(std::max(0.0, u), kBands - 1.0));
}

/// True only when the point provably lies outside the storm's 3.5 sigma
/// shield, i.e. when a lower bound on the haversine term
///   h = sin^2(dlat/2) + cos(lat) cos(c_lat) sin^2(dlon/2)
/// exceeds (theta/2)^2 >= sin^2(theta/2), theta = 3.5 sigma / R, by the
/// relative kMargin.  The bound uses cos(c_lat) >= cos(lat) - |dlat|
/// (cos is 1-Lipschitz) and sin(y) >= y - y^3/6 >= 0 for the half
/// longitude difference y, wrapped into [0, pi/2]; it applies only when
/// both cosines are positive.  NaN or |dlon| > 64 never rejects.
bool outside_shield(double cos_lat, double abs_dlat, double dlon,
                    double sigma_km) {
  constexpr double kTurnsPerRad = 1.0 / (2.0 * util::kPi);
  constexpr double kHalfThetaPerKm = kShieldSigmas / 2.0 / kEarthRadiusKm;
  const double cos_c_lo = cos_lat - abs_dlat;
  if (!(cos_c_lo > 0.0) || !(std::fabs(dlon) <= 64.0)) return false;
  const double turns = dlon * kTurnsPerRad;
  const double k = static_cast<double>(
      static_cast<int>(turns + (turns < 0.0 ? -0.5 : 0.5)));
  const double y = std::fabs(dlon - k * (2.0 * util::kPi)) * 0.5;
  const double s = y - y * y * y * (1.0 / 6.0);
  const double half_theta = sigma_km * kHalfThetaPerKm;
  return cos_lat * cos_c_lo * s * s >
         half_theta * half_theta * (1.0 + kMargin);
}

/// SplitMix64 — used for deterministic forecast-error angles.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

SyntheticWeatherProvider::SyntheticWeatherProvider(
    std::uint64_t seed, const util::Epoch& start, double horizon_hours,
    const SyntheticWeatherOptions& opts)
    : start_(start), horizon_s_(horizon_hours * 3600.0), opts_(opts),
      seed_(seed) {
  DGS_ENSURE_GT(horizon_hours, 0.0);
  DGS_ENSURE_GE(opts.mean_active_storms, 0);
  util::Rng rng(seed);

  // Storms whose lifetime overlaps the horizon: steady-state population times
  // (horizon + lifetime) / lifetime.
  const double life_s = opts_.mean_lifetime_hours * 3600.0;
  const int total = static_cast<int>(
      opts_.mean_active_storms * (horizon_s_ + life_s) / life_s);
  storms_.reserve(total);

  for (int i = 0; i < total; ++i) {
    Storm s;
    // Rejection-sample a latitude from climatological storm density,
    // area-weighted by cos(lat).
    double cos_lat0 = 0.0;
    for (;;) {
      const double lat = rng.uniform(-util::kPi / 2.0, util::kPi / 2.0);
      cos_lat0 = std::cos(lat);
      const double w = storm_density_weight(lat) * cos_lat0;
      if (rng.uniform() < w) {
        s.lat0_rad = lat;
        break;
      }
    }
    s.lon0_rad = rng.uniform(-util::kPi, util::kPi);

    // Zonal drift: easterlies inside 30 deg, westerlies poleward of it.
    const double lat_deg = util::rad2deg(std::fabs(s.lat0_rad));
    const double zonal_m_s = (lat_deg < 30.0 ? -1.0 : 1.0) *
                             rng.uniform(5.0, 25.0);
    const double meridional_m_s = rng.normal(0.0, 3.0);
    const double coslat = std::max(0.2, cos_lat0);
    s.vel_east_rad_s = zonal_m_s / (kEarthRadiusKm * 1000.0 * coslat);
    s.vel_north_rad_s = meridional_m_s / (kEarthRadiusKm * 1000.0);

    const double lifetime = rng.exponential(1.0 / life_s);
    s.birth_s = rng.uniform(-lifetime, horizon_s_);
    s.death_s = s.birth_s + lifetime;

    s.radius_km = std::max(40.0, rng.normal(opts_.mean_radius_km,
                                            opts_.mean_radius_km * 0.4));
    const double typical = typical_peak_rain_mm_h(s.lat0_rad);
    s.peak_rain_mm_h = std::min(120.0, rng.exponential(1.0 / typical));
    s.cloud_kg_m2 = rng.uniform(0.4, 1.6);
    storms_.push_back(s);
  }
  build_index();
}

// The index is a counting sort in two passes over the storms.  Pass one
// records the bands each storm is listed in and marks them as a
// difference, +1 at the first band and -1 past the last, in
// band_start_[b + 2].  Two prefix sums turn those marks into counts and
// the counts into band_start_[b + 1] = band b's first slot.  Pass two
// fills the bands in storm order, advancing band_start_[b + 1] until it
// holds the band's end, which is band b + 1's start.  The marks wrap
// modulo 2^32, which the sums undo exactly.  Two allocations in all.
void SyntheticWeatherProvider::build_index() {
  // The centre latitude sweeps linearly from birth to death; the shield
  // reaches 3.5 sigma (plus the margin) either side of it.
  constexpr double kReachPerKm =
      kShieldSigmas / kEarthRadiusKm * (1.0 + kMargin);
  band_start_.assign(kBands + 3, 0);
  for (Storm& s : storms_) {
    const double c0 = s.lat0_rad;
    const double c1 = s.lat0_rad + s.vel_north_rad_s * (s.death_s - s.birth_s);
    const double reach = s.radius_km * kReachPerKm;
    s.band_lo = band_of(std::min(c0, c1) - reach);
    s.band_hi = band_of(std::max(c0, c1) + reach);
    ++band_start_[s.band_lo + 2];
    --band_start_[s.band_hi + 3];
  }
  std::uint32_t count = 0;
  std::uint64_t sum = 0;
  for (std::uint32_t& n : band_start_) {
    count += n;
    sum += count;
    n = static_cast<std::uint32_t>(sum);
  }
  DGS_ENSURE(sum <= std::numeric_limits<std::uint32_t>::max(),
             "storm index exceeds 2^32 entries");
  band_storms_.resize(band_start_.back());
  std::uint32_t* const slots = band_storms_.data();
  std::uint32_t* const next = band_start_.data() + 1;
  for (std::uint32_t i = 0; i < storms_.size(); ++i) {
    const Storm& s = storms_[i];
    for (int b = s.band_lo; b <= s.band_hi; ++b) slots[next[b]++] = i;
  }
  band_start_.resize(kBands + 1);
}

void SyntheticWeatherProvider::add_storm(const Storm& s, double lat,
                                         double lon, double t_s,
                                         double cos_lat, WeatherSample* out) {
  if (t_s < s.birth_s || t_s > s.death_s) return;
  const double age = t_s - s.birth_s;
  const double c_lat = s.lat0_rad + s.vel_north_rad_s * age;
  const double c_lon = s.lon0_rad + s.vel_east_rad_s * age;

  // The precipitating core is much smaller than the cloud shield: rain
  // covers only a few percent of the globe at any instant while cloud
  // cover is a large fraction.
  const double cloud_sigma = s.radius_km;
  const double rain_sigma = s.radius_km / 4.0;

  // Cheap meridional prefilter: |dlat| alone already exceeds the shield.
  const double abs_dlat = std::fabs(lat - c_lat);
  if (abs_dlat * kEarthRadiusKm > kShieldSigmas * cloud_sigma) return;
  if (outside_shield(cos_lat, abs_dlat, lon - c_lon, cloud_sigma)) return;

  const double d_km =
      util::great_circle_angle(lat, lon, c_lat, c_lon) * kEarthRadiusKm;
  if (d_km > kShieldSigmas * cloud_sigma) return;

  // Storm intensity ramps up and decays over its lifetime (sine envelope).
  const double life = s.death_s - s.birth_s;
  const double envelope = std::sin(util::kPi * age / life);

  if (d_km < 2.5 * rain_sigma) {
    const double rain =
        s.peak_rain_mm_h * envelope *
        std::exp(-d_km * d_km / (2.0 * rain_sigma * rain_sigma));
    out->rain_rate_mm_h = std::max(out->rain_rate_mm_h, rain);
  }
  out->cloud_liquid_kg_m2 +=
      s.cloud_kg_m2 * envelope *
      std::exp(-d_km * d_km / (2.0 * cloud_sigma * cloud_sigma));
}

// The index and outside_shield() only drop storms that add_storm's own
// time, |dlat| and distance tests reject, and the band lists keep storm
// order, so the cloud sum adds the same terms in the same order as the
// exhaustive scan.  That scan passes cos_lat = 0, which switches the
// longitude bound off, and serves NaN latitudes and times, whose samples
// take every storm.
WeatherSample SyntheticWeatherProvider::sample_at(double lat, double lon,
                                                  double t_s,
                                                  Scan scan) const {
  WeatherSample out;
  out.cloud_liquid_kg_m2 = background_cloud_kg_m2(lat);
  if (scan == Scan::kIndexed && !std::isnan(lat) && !std::isnan(t_s)) {
    const double cos_lat = std::cos(lat);
    const int b = band_of(lat);
    // Most of a band's storms are not alive at t_s: gather the live ones
    // without a branch per storm, a block at a time, in storm order.
    std::uint32_t live[64] = {};
    for (std::uint32_t k = band_start_[b], end = band_start_[b + 1];
         k < end;) {
      const std::uint32_t stop = std::min(end, k + 64);
      int n = 0;
      for (; k < stop; ++k) {
        const Storm& s = storms_[band_storms_[k]];
        live[n] = band_storms_[k];
        n += (t_s >= s.birth_s) & (t_s <= s.death_s);
      }
      for (int j = 0; j < n; ++j) {
        add_storm(storms_[live[j]], lat, lon, t_s, cos_lat, &out);
      }
    }
  } else {
    for (const Storm& s : storms_) add_storm(s, lat, lon, t_s, 0.0, &out);
  }
  out.cloud_liquid_kg_m2 = std::min(out.cloud_liquid_kg_m2, 4.0);
  return out;
}

WeatherSample SyntheticWeatherProvider::forecast_at(double latitude_rad,
                                                    double longitude_rad,
                                                    const util::Epoch& when,
                                                    double lead_seconds,
                                                    Scan scan) const {
  DGS_ENSURE_GE(lead_seconds, 0.0);
  // A forecast error is modelled as evaluating the true field at a point
  // displaced by an error that grows with lead time.  The displacement
  // direction is a deterministic function of (seed, forecast valid-hour),
  // mimicking a coherent model bias rather than white noise.
  // A valid hour outside the uint64 range (a NaN or absurd epoch, whose
  // sample is the background anyway) keys as hour 0 instead of overflowing
  // the conversion.
  const double lead_h = lead_seconds / 3600.0;
  const double err_km = opts_.forecast_drift_km_per_hour * lead_h;
  const double valid_hour = when.jd() * 24.0;
  const std::uint64_t key = mix64(
      seed_ ^ (valid_hour >= 0.0 && valid_hour < 0x1p64
                   ? static_cast<std::uint64_t>(valid_hour)
                   : 0));
  const double angle =
      static_cast<double>(key % 62832) / 10000.0;  // [0, 2*pi)
  const double dlat = err_km * std::sin(angle) / kEarthRadiusKm;
  const double coslat = std::max(0.2, std::cos(latitude_rad));
  const double dlon = err_km * std::cos(angle) / (kEarthRadiusKm * coslat);
  return sample_at(latitude_rad + dlat, longitude_rad + dlon,
                   when.seconds_since(start_), scan);
}

WeatherSample SyntheticWeatherProvider::actual(double latitude_rad,
                                               double longitude_rad,
                                               const util::Epoch& when) const {
  return sample_at(latitude_rad, longitude_rad, when.seconds_since(start_),
                   Scan::kIndexed);
}

WeatherSample SyntheticWeatherProvider::forecast(double latitude_rad,
                                                 double longitude_rad,
                                                 const util::Epoch& when,
                                                 double lead_seconds) const {
  return forecast_at(latitude_rad, longitude_rad, when, lead_seconds,
                     Scan::kIndexed);
}

WeatherSample SyntheticWeatherProvider::actual_exhaustive(
    double latitude_rad, double longitude_rad, const util::Epoch& when) const {
  return sample_at(latitude_rad, longitude_rad, when.seconds_since(start_),
                   Scan::kExhaustive);
}

WeatherSample SyntheticWeatherProvider::forecast_exhaustive(
    double latitude_rad, double longitude_rad, const util::Epoch& when,
    double lead_seconds) const {
  return forecast_at(latitude_rad, longitude_rad, when, lead_seconds,
                     Scan::kExhaustive);
}

}  // namespace dgs::weather
