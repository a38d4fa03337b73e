// Dataset persistence: CSV for interoperability, a compact binary format
// for the MapReduce DFS, and record (de)serialization for map inputs.
//
// Every text path (CSV files, MapReduce point records, member values) goes
// through one number codec: numbers are written as the shortest text that
// parses back to the same value (std::to_chars), and parse_field reads one
// field as a whole number (std::from_chars), so a double survives any
// number of text round trips bit for bit.
#pragma once

#include <charconv>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "data/point_set.hpp"

namespace dasc::data {

/// Parse one text field as a whole number of type T. Blanks (space, tab)
/// around it are ignored and a leading '+' is accepted. Returns false,
/// leaving `value` unspecified, for an empty field, leftover characters
/// ("1.5abc", "2.5" as an integer) or a value out of T's range.
template <typename T>
bool parse_field(std::string_view field, T& value) {
  const char* first = field.data();
  const char* last = first + field.size();
  while (first != last && (*first == ' ' || *first == '\t')) ++first;
  while (last != first && (last[-1] == ' ' || last[-1] == '\t')) --last;
  if (last - first > 1 && *first == '+' && first[1] != '-') ++first;
  const auto [end, error] = std::from_chars(first, last, value);
  return error == std::errc{} && end == last;
}

/// Write points as CSV; if labelled, the label is the last column.
void save_csv(const PointSet& points, const std::string& path,
              bool with_labels = true);

/// Load CSV written by save_csv. `labelled` says whether the last column
/// holds integer labels. Every field must be one whole number (see
/// parse_field); a trailing '\r' and empty lines are ignored. Reads the
/// file in bounded chunks. Throws IoError naming the 1-based line number
/// on malformed input.
PointSet load_csv(const std::string& path, bool labelled);

/// Compact binary round-trip (header: n, dim, has_labels).
void save_binary(const PointSet& points, const std::string& path);
PointSet load_binary(const std::string& path);

/// Serialize one point as "v0,v1,...,vd" for MapReduce text records.
std::string point_to_record(std::span<const double> point);

/// Parse a record produced by point_to_record (same field rules as
/// load_csv). Throws IoError on a malformed or empty field.
std::vector<double> record_to_point(std::string_view record);

}  // namespace dasc::data
