// Synthetic weather provider: determinism, physical bounds, correlation
// structure, forecast error growth.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/angles.h"
#include "src/util/constants.h"
#include "src/util/rng.h"
#include "src/weather/climatology.h"
#include "src/weather/synthetic.h"

namespace dgs::weather {
namespace {

using util::deg2rad;

class SyntheticWeatherTest : public ::testing::Test {
 protected:
  SyntheticWeatherTest()
      : start_(util::DateTime{2020, 11, 4, 0, 0, 0.0}),
        wx_(42, start_, 24.0) {}
  util::Epoch start_;
  SyntheticWeatherProvider wx_;
};

TEST_F(SyntheticWeatherTest, DeterministicForSameSeed) {
  SyntheticWeatherProvider other(42, start_, 24.0);
  for (double lat : {-60.0, -5.0, 30.0, 52.0}) {
    for (double h : {0.0, 6.0, 18.0}) {
      const auto a = wx_.actual(deg2rad(lat), deg2rad(13.0),
                                start_.plus_seconds(h * 3600));
      const auto b = other.actual(deg2rad(lat), deg2rad(13.0),
                                  start_.plus_seconds(h * 3600));
      EXPECT_DOUBLE_EQ(a.rain_rate_mm_h, b.rain_rate_mm_h);
      EXPECT_DOUBLE_EQ(a.cloud_liquid_kg_m2, b.cloud_liquid_kg_m2);
    }
  }
}

TEST_F(SyntheticWeatherTest, DifferentSeedsDiffer) {
  SyntheticWeatherProvider other(43, start_, 24.0);
  int diffs = 0;
  for (double lat = -80.0; lat <= 80.0; lat += 10.0) {
    for (double lon = -170.0; lon <= 170.0; lon += 20.0) {
      const auto a = wx_.actual(deg2rad(lat), deg2rad(lon), start_);
      const auto b = other.actual(deg2rad(lat), deg2rad(lon), start_);
      if (a.cloud_liquid_kg_m2 != b.cloud_liquid_kg_m2) ++diffs;
    }
  }
  EXPECT_GT(diffs, 10);
}

TEST_F(SyntheticWeatherTest, PhysicalBoundsEverywhere) {
  for (double lat = -85.0; lat <= 85.0; lat += 8.5) {
    for (double lon = -175.0; lon <= 175.0; lon += 17.0) {
      for (double h : {0.0, 7.0, 13.0, 23.0}) {
        const auto s = wx_.actual(deg2rad(lat), deg2rad(lon),
                                  start_.plus_seconds(h * 3600));
        EXPECT_GE(s.rain_rate_mm_h, 0.0);
        EXPECT_LE(s.rain_rate_mm_h, 120.0);
        EXPECT_GE(s.cloud_liquid_kg_m2, 0.0);
        EXPECT_LE(s.cloud_liquid_kg_m2, 4.0);
      }
    }
  }
}

TEST_F(SyntheticWeatherTest, SpatialCorrelation) {
  // Points 20 km apart are much more similar than points 2000 km apart, in
  // aggregate over many probes.
  double near_diff = 0.0, far_diff = 0.0;
  int n = 0;
  for (double lat = -50.0; lat <= 50.0; lat += 5.0) {
    for (double lon = -150.0; lon <= 150.0; lon += 30.0) {
      const auto a = wx_.actual(deg2rad(lat), deg2rad(lon), start_);
      const auto b =
          wx_.actual(deg2rad(lat + 0.18), deg2rad(lon), start_);  // ~20 km
      const auto c =
          wx_.actual(deg2rad(lat + 18.0), deg2rad(lon), start_);  // ~2000 km
      near_diff += std::fabs(a.cloud_liquid_kg_m2 - b.cloud_liquid_kg_m2);
      far_diff += std::fabs(a.cloud_liquid_kg_m2 - c.cloud_liquid_kg_m2);
      ++n;
    }
  }
  EXPECT_LT(near_diff / n, far_diff / n);
}

TEST_F(SyntheticWeatherTest, TemporalCorrelation) {
  double near_diff = 0.0, far_diff = 0.0;
  int n = 0;
  for (double lat = -50.0; lat <= 50.0; lat += 10.0) {
    for (double lon = -150.0; lon <= 150.0; lon += 50.0) {
      const auto a = wx_.actual(deg2rad(lat), deg2rad(lon),
                                start_.plus_seconds(6 * 3600));
      const auto b = wx_.actual(deg2rad(lat), deg2rad(lon),
                                start_.plus_seconds(6 * 3600 + 300));
      const auto c = wx_.actual(deg2rad(lat), deg2rad(lon),
                                start_.plus_seconds(18 * 3600));
      near_diff += std::fabs(a.cloud_liquid_kg_m2 - b.cloud_liquid_kg_m2);
      far_diff += std::fabs(a.cloud_liquid_kg_m2 - c.cloud_liquid_kg_m2);
      ++n;
    }
  }
  EXPECT_LT(near_diff / n, far_diff / n);
}

TEST_F(SyntheticWeatherTest, SomeRainExistsSomewhere) {
  int rainy = 0, total = 0;
  for (double lat = -60.0; lat <= 60.0; lat += 3.0) {
    for (double lon = -180.0; lon < 180.0; lon += 6.0) {
      const auto s = wx_.actual(deg2rad(lat), deg2rad(lon),
                                start_.plus_seconds(12 * 3600));
      if (s.rain_rate_mm_h > 0.1) ++rainy;
      ++total;
    }
  }
  EXPECT_GT(rainy, 0);
  // ...but rain is localized: well under half the globe at any instant.
  EXPECT_LT(static_cast<double>(rainy) / total, 0.5);
}

TEST_F(SyntheticWeatherTest, ZeroLeadForecastMatchesActual) {
  for (double lat : {-30.0, 10.0, 48.0}) {
    const auto f = wx_.forecast(deg2rad(lat), deg2rad(5.0),
                                start_.plus_seconds(3600), 0.0);
    const auto a =
        wx_.actual(deg2rad(lat), deg2rad(5.0), start_.plus_seconds(3600));
    EXPECT_DOUBLE_EQ(f.rain_rate_mm_h, a.rain_rate_mm_h);
    EXPECT_DOUBLE_EQ(f.cloud_liquid_kg_m2, a.cloud_liquid_kg_m2);
  }
}

TEST_F(SyntheticWeatherTest, ForecastErrorGrowsWithLead) {
  double short_err = 0.0, long_err = 0.0;
  int n = 0;
  for (double lat = -50.0; lat <= 50.0; lat += 4.0) {
    for (double lon = -150.0; lon <= 150.0; lon += 25.0) {
      const util::Epoch when = start_.plus_seconds(10 * 3600);
      const auto actual = wx_.actual(deg2rad(lat), deg2rad(lon), when);
      const auto f1 = wx_.forecast(deg2rad(lat), deg2rad(lon), when, 1800.0);
      const auto f8 = wx_.forecast(deg2rad(lat), deg2rad(lon), when,
                                   8 * 3600.0);
      short_err +=
          std::fabs(f1.cloud_liquid_kg_m2 - actual.cloud_liquid_kg_m2);
      long_err +=
          std::fabs(f8.cloud_liquid_kg_m2 - actual.cloud_liquid_kg_m2);
      ++n;
    }
  }
  EXPECT_LT(short_err / n, long_err / n);
}

TEST_F(SyntheticWeatherTest, ForecastRejectsNegativeLead) {
  EXPECT_THROW(wx_.forecast(0.0, 0.0, start_, -1.0), std::invalid_argument);
}

// --- Storm index vs the exhaustive scan -------------------------------------
//
// The index and the longitude bound may only drop storms the per-storm tests
// reject anyway, and must keep storm order (the cloud sum is order
// sensitive), so every indexed sample equals the exhaustive scan's bit for
// bit, NaN included.

void expect_same_bits(const WeatherSample& indexed,
                      const WeatherSample& exhaustive,
                      const std::string& where) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(indexed.rain_rate_mm_h),
            std::bit_cast<std::uint64_t>(exhaustive.rain_rate_mm_h))
      << where << ": rain " << indexed.rain_rate_mm_h << " vs "
      << exhaustive.rain_rate_mm_h;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(indexed.cloud_liquid_kg_m2),
            std::bit_cast<std::uint64_t>(exhaustive.cloud_liquid_kg_m2))
      << where << ": cloud " << indexed.cloud_liquid_kg_m2 << " vs "
      << exhaustive.cloud_liquid_kg_m2;
}

/// Compares actual() and forecast() at leads 0 to 3 h with the oracles at
/// one point; returns 1 when the actual sample carries storm cloud.
int compare_point(const SyntheticWeatherProvider& wx, double lat, double lon,
                  const util::Epoch& when, const std::string& where) {
  const WeatherSample a = wx.actual(lat, lon, when);
  expect_same_bits(a, wx.actual_exhaustive(lat, lon, when),
                   where + " actual");
  for (const double lead : {0.0, 600.0, 3600.0, 10800.0}) {
    expect_same_bits(wx.forecast(lat, lon, when, lead),
                     wx.forecast_exhaustive(lat, lon, when, lead),
                     where + " forecast lead " + std::to_string(lead));
  }
  return a.cloud_liquid_kg_m2 > background_cloud_kg_m2(lat) ? 1 : 0;
}

/// The epoch whose offset from `start` is exactly `t_s`, when one lies
/// within a few Julian-date ulps of start + t_s; otherwise three epochs
/// around it.
std::vector<util::Epoch> epochs_at(const util::Epoch& start, double t_s) {
  const util::Epoch e = start.plus_seconds(t_s);
  if (e.seconds_since(start) == t_s) return {e};
  double below = e.jd_frac(), above = e.jd_frac();
  for (int k = 0; k < 8; ++k) {
    below = std::nextafter(below, -1.0);
    above = std::nextafter(above, 2.0);
    for (const double frac : {below, above}) {
      const util::Epoch c = util::Epoch::from_parts(e.jd_whole(), frac);
      if (c.seconds_since(start) == t_s) return {c};
    }
  }
  return {util::Epoch::from_parts(e.jd_whole(), below), e,
          util::Epoch::from_parts(e.jd_whole(), above)};
}

struct IndexCase {
  std::uint64_t seed;
  double horizon_hours;
  int random_probes;
  double dense_step_rad;  ///< Spacing of the meridian and parallel sweeps.
};

class SyntheticWeatherIndex : public ::testing::TestWithParam<IndexCase> {};

TEST_P(SyntheticWeatherIndex, MatchesExhaustiveScanBitForBit) {
  const IndexCase& c = GetParam();
  const util::Epoch start(util::DateTime{2020, 11, 4, 0, 0, 0.0});
  const SyntheticWeatherProvider wx(c.seed, start, c.horizon_hours);
  const double horizon_s = c.horizon_hours * 3600.0;
  util::Rng rng(c.seed * 7919 + 3);
  int stormy = 0;

  // Random points: latitudes past the poles, longitudes several turns past
  // +-pi, times from before the start to past the horizon.
  for (int i = 0; i < c.random_probes; ++i) {
    const double lat = rng.uniform(-1.75, 1.75);
    const double lon = rng.uniform(-8.0, 8.0);
    const double t = rng.uniform(-0.2 * horizon_s, 1.2 * horizon_s);
    stormy += compare_point(wx, lat, lon, start.plus_seconds(t),
                            "random #" + std::to_string(i));
  }

  // Edges: the poles and beyond, the antimeridian and its neighbours.
  const double half_pi = util::kPi / 2.0;
  const double eps = 1e-12;
  for (const double lat : {-half_pi - 0.1, -half_pi, -half_pi + eps, -1.2,
                           -0.3, 0.0, 0.7, 1.3, half_pi - eps, half_pi,
                           half_pi + 0.1}) {
    for (const double lon : {-3.0 * util::kPi, -util::kPi - eps, -util::kPi,
                             -util::kPi + eps, -1.0, 0.0, 2.5,
                             util::kPi - eps, util::kPi, util::kPi + eps,
                             5.0 * util::kPi, 1e6}) {
      for (const double t : {-3600.0, 0.0, 0.5 * horizon_s, horizon_s,
                             horizon_s + 3600.0}) {
        compare_point(wx, lat, lon, start.plus_seconds(t), "edge");
      }
    }
  }

  // A dense meridian and a dense parallel cross many shield edges.
  const util::Epoch mid = start.plus_seconds(0.4 * horizon_s);
  for (double x = -1.7; x <= 1.7; x += c.dense_step_rad) {
    stormy += compare_point(wx, x, 0.3, mid, "meridian");
  }
  for (double x = -util::kPi - 0.1; x <= util::kPi + 0.1;
       x += c.dense_step_rad) {
    stormy += compare_point(wx, 0.75, x, mid, "parallel");
  }

  // Times at (or one representable step around) storm births and deaths.
  const std::size_t stride = wx.storm_count() / 24 + 1;
  int exact = 0;
  for (std::size_t i = 0; i < wx.storm_count(); i += stride) {
    for (const double t : {wx.storm_birth_s(i), wx.storm_death_s(i)}) {
      const std::vector<util::Epoch> whens = epochs_at(start, t);
      exact += whens.size() == 1 ? 1 : 0;
      for (const util::Epoch& when : whens) {
        for (const double lat : {-0.9, 0.1, 0.9}) {
          compare_point(wx, lat, 2.0, when, "life edge");
        }
      }
    }
  }
  EXPECT_GT(exact, 0);
  // The comparison is only meaningful where storms are actually hit.
  EXPECT_GT(stormy, c.random_probes / 4);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndHorizons, SyntheticWeatherIndex,
    ::testing::Values(IndexCase{1, 1.0, 2000, 0.002},
                      IndexCase{42, 1.0, 2000, 0.002},
                      IndexCase{7, 25.0, 3000, 0.002},
                      IndexCase{1234, 25.0, 3000, 0.002},
                      IndexCase{99, 720.0, 300, 0.02}),
    [](const ::testing::TestParamInfo<IndexCase>& p) {
      return "Seed" + std::to_string(p.param.seed) + "Hours" +
             std::to_string(static_cast<int>(p.param.horizon_hours));
    });

TEST(SyntheticWeatherIndexNaN, NaNQueriesMatchTheExhaustiveScan) {
  const util::Epoch start(util::DateTime{2020, 11, 4, 0, 0, 0.0});
  const SyntheticWeatherProvider wx(5, start, 25.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const util::Epoch noon = start.plus_seconds(12 * 3600.0);
  const util::Epoch nan_time = start.plus_seconds(nan);
  for (const double lat : {nan, 0.2, inf, -inf}) {
    for (const double lon : {nan, 0.4, inf}) {
      for (const util::Epoch& when : {noon, nan_time}) {
        compare_point(wx, lat, lon, when, "nan/inf");
      }
    }
  }
  // Also a far-future epoch whose forecast valid hour exceeds 2^64.
  const util::Epoch far = util::Epoch::from_jd(1e300);
  compare_point(wx, 0.2, 0.4, far, "far epoch");
  // A NaN time passes every storm's time test, but the clamped haversine
  // puts a NaN point at pi R from each centre, so only the background stays.
  EXPECT_EQ(wx.actual(0.2, 0.4, nan_time).cloud_liquid_kg_m2,
            background_cloud_kg_m2(0.2));
}

TEST(SyntheticWeather, RejectsBadConstruction) {
  const util::Epoch start(util::DateTime{2020, 1, 1, 0, 0, 0.0});
  EXPECT_THROW(SyntheticWeatherProvider(1, start, 0.0), std::invalid_argument);
  SyntheticWeatherOptions opts;
  opts.mean_active_storms = -1;
  EXPECT_THROW(SyntheticWeatherProvider(1, start, 24.0, opts),
               std::invalid_argument);
}

TEST(Climatology, TropicsWetterThanPoles) {
  EXPECT_GT(storm_density_weight(0.0), storm_density_weight(deg2rad(80.0)));
  EXPECT_GT(typical_peak_rain_mm_h(0.0),
            typical_peak_rain_mm_h(deg2rad(70.0)));
}

TEST(Climatology, StormTracksWetterThanSubtropics) {
  EXPECT_GT(storm_density_weight(deg2rad(50.0)),
            storm_density_weight(deg2rad(18.0)));
}

TEST(Climatology, HemisphericSymmetry) {
  for (double lat : {10.0, 30.0, 50.0, 70.0}) {
    EXPECT_DOUBLE_EQ(storm_density_weight(deg2rad(lat)),
                     storm_density_weight(deg2rad(-lat)));
    EXPECT_DOUBLE_EQ(background_cloud_kg_m2(deg2rad(lat)),
                     background_cloud_kg_m2(deg2rad(-lat)));
  }
}

TEST(ClearSky, AlwaysZero) {
  ClearSkyProvider clear;
  const util::Epoch t(util::DateTime{2020, 6, 1, 0, 0, 0.0});
  const auto s = clear.actual(0.5, -1.0, t);
  EXPECT_DOUBLE_EQ(s.rain_rate_mm_h, 0.0);
  EXPECT_DOUBLE_EQ(s.cloud_liquid_kg_m2, 0.0);
}

}  // namespace
}  // namespace dgs::weather
