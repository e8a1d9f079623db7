// TLE catalog and station CSV I/O: round trips, format tolerance, errors.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "src/groundseg/io.h"
#include "src/groundseg/network_gen.h"
#include "src/util/angles.h"

namespace dgs::groundseg {
namespace {

constexpr const char* kIssL1 =
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
constexpr const char* kIssL2 =
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";
constexpr const char* kVanguardL1 =
    "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753";
constexpr const char* kVanguardL2 =
    "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667";

TEST(TleCatalog, ReadsTwoLineSets) {
  std::stringstream ss;
  ss << kIssL1 << "\n" << kIssL2 << "\n" << kVanguardL1 << "\n"
     << kVanguardL2 << "\n";
  const auto catalog = read_tle_catalog(ss);
  ASSERT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog[0].satnum, 25544);
  EXPECT_EQ(catalog[1].satnum, 5);
}

TEST(TleCatalog, ReadsThreeLineSetsWithCommentsAndBlanks) {
  std::stringstream ss;
  ss << "# catalog snapshot\n\nISS (ZARYA)\n" << kIssL1 << "\n" << kIssL2
     << "\n\n0 VANGUARD 1\n" << kVanguardL1 << "\n" << kVanguardL2 << "\n";
  const auto catalog = read_tle_catalog(ss);
  ASSERT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog[0].name, "ISS (ZARYA)");
  EXPECT_EQ(catalog[1].name, "VANGUARD 1");  // "0 " prefix stripped
}

TEST(TleCatalog, WriteReadRoundTrip) {
  NetworkOptions opts;
  opts.num_satellites = 25;
  const util::Epoch epoch(util::DateTime{2020, 11, 4, 0, 0, 0.0});
  const auto sats = generate_constellation(opts, epoch);
  std::vector<orbit::Tle> catalog;
  for (const auto& s : sats) catalog.push_back(s.tle);

  std::stringstream ss;
  write_tle_catalog(ss, catalog);
  const auto back = read_tle_catalog(ss);
  ASSERT_EQ(back.size(), catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(back[i].satnum, catalog[i].satnum);
    EXPECT_EQ(back[i].name, catalog[i].name);
    EXPECT_NEAR(back[i].inclination_deg, catalog[i].inclination_deg, 1e-4);
    EXPECT_NEAR(back[i].mean_motion_revs_per_day,
                catalog[i].mean_motion_revs_per_day, 1e-7);
  }
}

TEST(TleCatalog, ReportsLineNumbersOnErrors) {
  std::stringstream dangling;
  dangling << kIssL1 << "\n";
  try {
    read_tle_catalog(dangling);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }

  std::stringstream orphan2;
  orphan2 << kIssL2 << "\n";
  EXPECT_THROW(read_tle_catalog(orphan2), std::invalid_argument);

  std::stringstream bad_checksum;
  std::string corrupted(kIssL2);
  corrupted[68] = '0';
  bad_checksum << kIssL1 << "\n" << corrupted << "\n";
  EXPECT_THROW(read_tle_catalog(bad_checksum), std::invalid_argument);
}

TEST(TleCatalog, MissingFileThrows) {
  EXPECT_THROW(load_tle_file("/nonexistent/catalog.tle"),
               std::invalid_argument);
}

TEST(StationCsv, WriteReadRoundTrip) {
  NetworkOptions opts;
  opts.num_stations = 30;
  const auto stations = generate_dgs_stations(opts);

  std::stringstream ss;
  write_station_csv(ss, stations);
  const auto back = read_station_csv(ss);
  ASSERT_EQ(back.size(), stations.size());
  for (std::size_t i = 0; i < stations.size(); ++i) {
    EXPECT_EQ(back[i].id, stations[i].id);
    EXPECT_EQ(back[i].name, stations[i].name);
    EXPECT_NEAR(back[i].location.latitude_rad,
                stations[i].location.latitude_rad, 1e-7);
    EXPECT_NEAR(back[i].location.longitude_rad,
                stations[i].location.longitude_rad, 1e-7);
    EXPECT_EQ(back[i].tx_capable, stations[i].tx_capable);
    EXPECT_NEAR(back[i].min_elevation_rad, stations[i].min_elevation_rad,
                1e-3);
    // ECEF cache must be refreshed on load.
    EXPECT_GT(back[i].ecef().norm(), 6300.0);
  }
}

TEST(StationCsv, ToleratesHeaderAndComments) {
  std::stringstream ss;
  ss << "id,name,lat_deg,lon_deg,alt_km,dish_m,tx_capable,min_el_deg\n"
     << "# comment\n"
     << "7,Testville,47.5,-122.3,0.05,1.00,1,10.0\n";
  const auto stations = read_station_csv(ss);
  ASSERT_EQ(stations.size(), 1u);
  EXPECT_EQ(stations[0].id, 7);
  EXPECT_TRUE(stations[0].tx_capable);
  EXPECT_NEAR(util::rad2deg(stations[0].location.latitude_rad), 47.5, 1e-9);
}

TEST(StationCsv, RejectsMalformedRows) {
  std::stringstream wrong_fields;
  wrong_fields << "1,OnlyThree,47.0\n";
  EXPECT_THROW(read_station_csv(wrong_fields), std::invalid_argument);

  std::stringstream bad_number;
  bad_number << "1,X,not-a-number,0,0,1,0,5\n";
  EXPECT_THROW(read_station_csv(bad_number), std::invalid_argument);

  std::stringstream bad_lat;
  bad_lat << "1,X,97.0,0,0,1,0,5\n";
  EXPECT_THROW(read_station_csv(bad_lat), std::invalid_argument);
}

/// The error read_station_csv reports for a file whose second line is
/// `row` (the first is a valid station), or "" when it accepts the file.
std::string station_row_error(const std::string& row) {
  std::stringstream ss;
  ss << "1,Good,47.5,-122.3,0.05,1.00,1,10.0\n" << row << "\n";
  try {
    read_station_csv(ss);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

void expect_rejected(const std::string& row, const std::string& field) {
  const std::string err = station_row_error(row);
  EXPECT_NE(err.find("line 2"), std::string::npos) << row << " -> " << err;
  EXPECT_NE(err.find(field), std::string::npos) << row << " -> " << err;
}

TEST(StationCsvNumerics, RejectsNanLatitude) {
  expect_rejected("2,X,nan,0,0,1,0,5", "lat_deg");
}

TEST(StationCsvNumerics, RejectsInfiniteLongitude) {
  expect_rejected("2,X,10,inf,0,1,0,5", "lon_deg");
  expect_rejected("2,X,10,-infinity,0,1,0,5", "lon_deg");
}

TEST(StationCsvNumerics, RejectsNonPositiveDish) {
  expect_rejected("2,X,10,20,0,-1.5,0,5", "dish_m");
  expect_rejected("2,X,10,20,0,0,0,5", "dish_m");
}

TEST(StationCsvNumerics, RejectsNanOrOutOfRangeMinElevation) {
  expect_rejected("2,X,10,20,0,1,0,nan", "min_el_deg");
  expect_rejected("2,X,10,20,0,1,0,91", "min_el_deg");
}

TEST(StationCsvNumerics, RejectsHexFloats) {
  expect_rejected("2,X,0x1p5,20,0,1,0,5", "lat_deg");
  expect_rejected("2,X,10,20,0x10,1,0,5", "alt_km");
}

TEST(StationCsvNumerics, RejectsOverflowWithLineNumber) {
  expect_rejected("2,X,10,20,1e400,1,0,5", "alt_km");
  expect_rejected("99999999999,X,10,20,0,1,0,5", "id");
}

TEST(StationCsvNumerics, RejectsTrailingCharactersAndBadFlags) {
  expect_rejected("2,X,10.5deg,20,0,1,0,5", "lat_deg");
  expect_rejected("2,X,10,20,0,1,2,5", "tx_capable");
  expect_rejected("2,X,10,20,0,1,,5", "tx_capable");
  expect_rejected("2x,X,10,20,0,1,0,5", "id");
}

TEST(StationCsvNumerics, AcceptsSignsExponentsAndBlanks) {
  std::stringstream ss;
  ss << "+3,Y, +45.25 ,-1.5e2,-0.01,2.4, +1 ,-2.5\n";
  const auto stations = read_station_csv(ss);
  ASSERT_EQ(stations.size(), 1u);
  EXPECT_EQ(stations[0].id, 3);
  EXPECT_TRUE(stations[0].tx_capable);
  EXPECT_NEAR(util::rad2deg(stations[0].location.latitude_rad), 45.25, 1e-12);
  EXPECT_NEAR(util::rad2deg(stations[0].location.longitude_rad), -150.0,
              1e-12);
  EXPECT_DOUBLE_EQ(stations[0].location.altitude_km, -0.01);
  EXPECT_NEAR(util::rad2deg(stations[0].min_elevation_rad), -2.5, 1e-12);
}

TEST(StationCsvNumerics, RejectsDoubleSigns) {
  expect_rejected("2,X,+-5,20,0,1,0,5", "lat_deg");
  expect_rejected("2,X,--5,20,0,1,0,5", "lat_deg");
  expect_rejected("+-2,X,10,20,0,1,0,5", "id");
  expect_rejected("++2,X,10,20,0,1,0,5", "id");
}

}  // namespace
}  // namespace dgs::groundseg
