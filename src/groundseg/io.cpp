#include "src/groundseg/io.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>

#include "src/util/angles.h"
#include "src/util/check.h"

namespace dgs::groundseg {
namespace {

[[noreturn]] void fail(int line_no, const std::string& what) {
  DGS_ENSURE(false, "line " << line_no << ": " << what);
}

std::string rstrip(std::string s) {
  const auto e = s.find_last_not_of(" \t\r\n");
  return e == std::string::npos ? "" : s.substr(0, e + 1);
}

/// A numeric CSV field without the blanks around it and without one
/// leading '+', which std::from_chars does not take.  "+-5" keeps its '+'
/// so that it fails to parse.
std::string_view number_text(const std::string& field) {
  const std::size_t b = field.find_first_not_of(" \t");
  if (b == std::string::npos) return {};
  const std::size_t e = field.find_last_not_of(" \t");
  std::string_view text = std::string_view(field).substr(b, e + 1 - b);
  if (text.size() >= 2 && text[0] == '+' && text[1] != '-') {
    text.remove_prefix(1);
  }
  return text;
}

/// A whole CSV field, blanks around it ignored, as a finite decimal number:
/// an optional sign, digits with an optional fraction, an optional
/// exponent.  Hex, inf, nan, trailing characters and values past the
/// double range are rejected with the line number and the field's name.
double parse_decimal(int line_no, const std::string& field,
                     const std::string& name) {
  const std::string_view text = number_text(field);
  const char* last = text.data() + text.size();
  double v = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), last, v, std::chars_format::general);
  if (ec == std::errc::result_out_of_range) {
    fail(line_no, name + " out of range: \"" + field + "\"");
  }
  if (ec != std::errc() || ptr != last || !std::isfinite(v)) {
    fail(line_no, name + " is not a finite decimal number: \"" + field + "\"");
  }
  return v;
}

/// A whole CSV field, blanks around it ignored, as a decimal int with an
/// optional sign.
int parse_int(int line_no, const std::string& field, const std::string& name) {
  const std::string_view text = number_text(field);
  const char* last = text.data() + text.size();
  int v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ec == std::errc::result_out_of_range) {
    fail(line_no, name + " out of range: \"" + field + "\"");
  }
  if (ec != std::errc() || ptr != last) {
    fail(line_no, name + " is not an integer: \"" + field + "\"");
  }
  return v;
}

bool is_tle_line(const std::string& s, char num) {
  return s.size() >= 69 && s[0] == num && s[1] == ' ';
}

}  // namespace

std::vector<orbit::Tle> read_tle_catalog(std::istream& in) {
  std::vector<orbit::Tle> catalog;
  std::string pending_name;
  std::string line1;
  int line_no = 0;
  int line1_no = 0;

  std::string raw;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = rstrip(raw);
    if (line.empty() || line[0] == '#') continue;

    if (is_tle_line(line, '1')) {
      if (!line1.empty()) fail(line1_no, "line 1 without a matching line 2");
      line1 = line;
      line1_no = line_no;
    } else if (is_tle_line(line, '2')) {
      if (line1.empty()) fail(line_no, "line 2 without a preceding line 1");
      try {
        orbit::Tle tle = orbit::parse_tle(line1, line);
        tle.name = pending_name;
        catalog.push_back(std::move(tle));
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      line1.clear();
      pending_name.clear();
    } else {
      // A name line for the following element set.
      if (!line1.empty()) fail(line_no, "name line between TLE lines");
      pending_name = line.rfind("0 ", 0) == 0 ? line.substr(2) : line;
    }
  }
  if (!line1.empty()) fail(line1_no, "dangling TLE line 1 at end of file");
  return catalog;
}

std::vector<orbit::Tle> load_tle_file(const std::string& path) {
  std::ifstream in(path);
  DGS_ENSURE(in, "cannot open TLE file: " << path);
  return read_tle_catalog(in);
}

void write_tle_catalog(std::ostream& out,
                       const std::vector<orbit::Tle>& catalog) {
  for (const orbit::Tle& tle : catalog) {
    if (!tle.name.empty()) out << tle.name << '\n';
    out << orbit::format_tle_line1(tle) << '\n'
        << orbit::format_tle_line2(tle) << '\n';
  }
}

void save_tle_file(const std::string& path,
                   const std::vector<orbit::Tle>& catalog) {
  std::ofstream out(path);
  DGS_ENSURE(out, "cannot write TLE file: " << path);
  write_tle_catalog(out, catalog);
}

std::vector<GroundStation> read_station_csv(std::istream& in) {
  std::vector<GroundStation> stations;
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = rstrip(raw);
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("id,", 0) == 0) continue;  // header

    std::istringstream ss(line);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(ss, field, ',')) fields.push_back(field);
    if (fields.size() != 8) {
      fail(line_no, "expected 8 CSV fields, got " +
                        std::to_string(fields.size()));
    }
    GroundStation gs;
    gs.id = parse_int(line_no, fields[0], "id");
    gs.name = fields[1];
    gs.location.latitude_rad =
        util::deg2rad(parse_decimal(line_no, fields[2], "lat_deg"));
    gs.location.longitude_rad =
        util::deg2rad(parse_decimal(line_no, fields[3], "lon_deg"));
    gs.location.altitude_km = parse_decimal(line_no, fields[4], "alt_km");
    gs.receiver.dish_diameter_m = parse_decimal(line_no, fields[5], "dish_m");
    const int tx = parse_int(line_no, fields[6], "tx_capable");
    const double min_el_deg = parse_decimal(line_no, fields[7], "min_el_deg");
    if (std::fabs(gs.location.latitude_rad) > util::kPi / 2.0) {
      fail(line_no, "latitude out of range");
    }
    if (!(gs.receiver.dish_diameter_m > 0.0)) {
      fail(line_no, "dish_m must be positive: \"" + fields[5] + "\"");
    }
    if (tx != 0 && tx != 1) {
      fail(line_no, "tx_capable must be 0 or 1: \"" + fields[6] + "\"");
    }
    if (std::fabs(min_el_deg) > 90.0) {
      fail(line_no, "min_el_deg out of range: \"" + fields[7] + "\"");
    }
    gs.tx_capable = tx != 0;
    gs.min_elevation_rad = util::deg2rad(min_el_deg);
    gs.refresh_ecef();
    stations.push_back(std::move(gs));
  }
  return stations;
}

std::vector<GroundStation> load_station_file(const std::string& path) {
  std::ifstream in(path);
  DGS_ENSURE(in, "cannot open station file: " << path);
  return read_station_csv(in);
}

void write_station_csv(std::ostream& out,
                       const std::vector<GroundStation>& stations) {
  out << "id,name,lat_deg,lon_deg,alt_km,dish_m,tx_capable,min_el_deg\n";
  char buf[256];
  for (const GroundStation& gs : stations) {
    std::snprintf(buf, sizeof(buf), "%d,%s,%.6f,%.6f,%.3f,%.2f,%d,%.2f\n",
                  gs.id, gs.name.c_str(),
                  util::rad2deg(gs.location.latitude_rad),
                  util::rad2deg(gs.location.longitude_rad),
                  gs.location.altitude_km, gs.receiver.dish_diameter_m,
                  gs.tx_capable ? 1 : 0,
                  util::rad2deg(gs.min_elevation_rad));
    out << buf;
  }
}

void save_station_file(const std::string& path,
                       const std::vector<GroundStation>& stations) {
  std::ofstream out(path);
  DGS_ENSURE(out, "cannot write station file: " << path);
  write_station_csv(out, stations);
}

std::vector<int> read_station_subset(std::istream& in) {
  std::vector<int> ids;
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = rstrip(raw);
    if (line.empty() || line[0] == '#') continue;

    std::size_t consumed = 0;
    int id = -1;
    try {
      id = std::stoi(line, &consumed);
    } catch (const std::exception&) {
      fail(line_no, "expected a station id, got \"" + line + "\"");
    }
    if (consumed != line.size()) {
      fail(line_no, "trailing characters after station id: \"" + line + "\"");
    }
    if (id < 0) fail(line_no, "negative station id " + std::to_string(id));
    if (std::find(ids.begin(), ids.end(), id) != ids.end()) {
      fail(line_no, "duplicate station id " + std::to_string(id));
    }
    ids.push_back(id);
  }
  return ids;
}

std::vector<int> load_station_subset(const std::string& path) {
  std::ifstream in(path);
  DGS_ENSURE(in, "cannot open station-subset file: " << path);
  return read_station_subset(in);
}

void write_station_subset(std::ostream& out, const std::vector<int>& ids) {
  std::vector<int> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  out << "# dgs.stations_subset.v1\n";
  for (int id : sorted) {
    DGS_ENSURE_GE(id, 0);
    out << id << '\n';
  }
}

void save_station_subset(const std::string& path,
                         const std::vector<int>& ids) {
  std::ofstream out(path);
  DGS_ENSURE(out, "cannot write station-subset file: " << path);
  write_station_subset(out, ids);
}

}  // namespace dgs::groundseg
