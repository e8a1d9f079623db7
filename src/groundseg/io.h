// File I/O for element sets and station inventories.
//
// DGS's generators produce synthetic populations, but a deployment works
// from files: TLE catalogs in the standard 2-line/3-line text format (as
// served by Celestrak/Space-Track/SatNOGS) and station inventories as CSV.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/groundseg/station.h"
#include "src/orbit/tle.h"

namespace dgs::groundseg {

/// Parses a TLE catalog from a stream: accepts both bare 2-line sets and
/// 3-line sets with a name line; blank lines and '#' comments are skipped.
/// Throws std::invalid_argument naming the offending line number on
/// malformed input.
std::vector<orbit::Tle> read_tle_catalog(std::istream& in);
std::vector<orbit::Tle> load_tle_file(const std::string& path);

/// Writes a catalog as 3-line sets (name line included when non-empty).
void write_tle_catalog(std::ostream& out,
                       const std::vector<orbit::Tle>& catalog);
void save_tle_file(const std::string& path,
                   const std::vector<orbit::Tle>& catalog);

/// Station CSV columns:
///   id,name,lat_deg,lon_deg,alt_km,dish_m,tx_capable,min_el_deg
/// A header row is written and tolerated on read.  Fields with commas are
/// not supported (station names come from controlled inventories).
/// Numeric fields must be whole decimal numbers (blanks around them are
/// ignored): hex, inf, nan, trailing characters and out-of-range values
/// are rejected, as are |lat_deg| > 90, dish_m <= 0, tx_capable other than
/// 0 or 1 and |min_el_deg| > 90, each with its line number.
std::vector<GroundStation> read_station_csv(std::istream& in);
std::vector<GroundStation> load_station_file(const std::string& path);
void write_station_csv(std::ostream& out,
                       const std::vector<GroundStation>& stations);
void save_station_file(const std::string& path,
                       const std::vector<GroundStation>& stations);

/// Station-subset files (`dgs.stations_subset.v1`): the interchange format
/// between `dgs_netdesign` (which writes the selected subset) and
/// `dgs_cli --stations-subset` (which replays any scenario on it).  Text,
/// one non-negative station id per line; blank lines and '#' comments are
/// skipped on read.  Writers emit ids sorted ascending under a
/// `# dgs.stations_subset.v1` banner so files are byte-comparable.
/// Duplicate or negative ids are rejected naming the offending line.
std::vector<int> read_station_subset(std::istream& in);
std::vector<int> load_station_subset(const std::string& path);
void write_station_subset(std::ostream& out, const std::vector<int>& ids);
void save_station_subset(const std::string& path, const std::vector<int>& ids);

}  // namespace dgs::groundseg
