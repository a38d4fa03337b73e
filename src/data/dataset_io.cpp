#include "data/dataset_io.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "common/error.hpp"

namespace dasc::data {

namespace {

// Text files are read and written one chunk at a time: save_csv formats
// into a chunk-sized buffer and flushes it with one write, load_csv holds
// at most one chunk of text (plus the longest line) beyond parsed values.
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

/// Append `value` (a double or an integer) as decimal text; a double is
/// written in its shortest round-trip form.
template <typename T>
void append_number(std::string& out, T value) {
  char digits[32];  // the longest double, "-2.2250738585072014e-308", is 24
  const auto result = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, result.ptr);
}

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File open_file(const std::string& path, const char* mode, const char* who) {
  File file(std::fopen(path.c_str(), mode));
  if (!file) throw IoError(std::string(who) + ": cannot open " + path);
  std::setvbuf(file.get(), nullptr, _IONBF, 0);  // chunks go straight through
  return file;
}

void write_chunk(std::FILE* file, std::string& buffer,
                 const std::string& path) {
  if (std::fwrite(buffer.data(), 1, buffer.size(), file) != buffer.size()) {
    throw IoError("save_csv: write failed for " + path);
  }
  buffer.clear();
}

/// Call on_line(line, line_number) for every line of `file` (without its
/// '\n'; numbers are 1-based), reading kChunkBytes at a time and carrying
/// the partial last line of each chunk into the next.
template <typename OnLine>
void for_each_line(std::FILE* file, const std::string& path,
                   OnLine&& on_line) {
  std::vector<char> buffer(kChunkBytes);
  std::size_t carried = 0;
  std::size_t line_number = 0;
  for (;;) {
    // A line longer than the buffer: grow it so the line fits whole.
    if (carried == buffer.size()) buffer.resize(2 * buffer.size());
    const std::size_t got = std::fread(buffer.data() + carried, 1,
                                       buffer.size() - carried, file);
    if (got == 0 && std::ferror(file)) {
      throw IoError("load_csv: read failed for " + path);
    }
    const char* begin = buffer.data();
    const char* const end = begin + carried + got;
    while (const void* newline = std::memchr(begin, '\n', end - begin)) {
      const char* const stop = static_cast<const char*>(newline);
      on_line(std::string_view(begin, stop), ++line_number);
      begin = stop + 1;
    }
    carried = static_cast<std::size_t>(end - begin);
    if (got == 0) {
      if (carried > 0) on_line(std::string_view(begin, end), ++line_number);
      return;
    }
    std::memmove(buffer.data(), begin, carried);
  }
}

/// Call on_field(field, is_last) for each comma-separated field of `line`.
template <typename OnField>
void for_each_field(std::string_view line, OnField&& on_field) {
  for (;;) {
    const std::size_t comma = line.find(',');
    on_field(line.substr(0, comma), comma == std::string_view::npos);
    if (comma == std::string_view::npos) return;
    line.remove_prefix(comma + 1);
  }
}

}  // namespace

void save_csv(const PointSet& points, const std::string& path,
              bool with_labels) {
  File file = open_file(path, "wb", "save_csv");
  const bool labels = with_labels && points.has_labels();
  std::string buffer;
  buffer.reserve(kChunkBytes + (points.dim() + 1) * 32);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto row = points.point(i);
    for (std::size_t d = 0; d < row.size(); ++d) {
      if (d > 0) buffer += ',';
      append_number(buffer, row[d]);
    }
    if (labels) {
      buffer += ',';
      append_number(buffer, points.label(i));
    }
    buffer += '\n';
    if (buffer.size() >= kChunkBytes) write_chunk(file.get(), buffer, path);
  }
  write_chunk(file.get(), buffer, path);
  if (std::fclose(file.release()) != 0) {
    throw IoError("save_csv: write failed for " + path);
  }
}

PointSet load_csv(const std::string& path, bool labelled) {
  const File file = open_file(path, "rb", "load_csv");

  AlignedVector values;  // adopted by the PointSet, never copied
  std::vector<int> labels;
  std::size_t dim = 0;
  std::size_t n = 0;
  for_each_line(file.get(), path, [&](std::string_view line,
                                      std::size_t line_number) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) return;
    const auto where = [&] {
      return " on line " + std::to_string(line_number) + " of " + path;
    };
    const std::size_t row_start = values.size();
    std::size_t columns = 0;
    for_each_field(line, [&](std::string_view field, bool last) {
      ++columns;
      if (labelled && last) {
        int label = 0;
        if (!parse_field(field, label)) {
          throw IoError("load_csv: malformed integer label '" +
                        std::string(field) + "'" + where());
        }
        labels.push_back(label);
        return;
      }
      double value = 0.0;
      if (!parse_field(field, value)) {
        throw IoError("load_csv: malformed number '" + std::string(field) +
                      "'" + where());
      }
      values.push_back(value);
    });
    if (labelled && columns < 2) {
      throw IoError("load_csv: labelled row needs >= 2 columns" + where());
    }
    const std::size_t row_dim = values.size() - row_start;
    if (n == 0) {
      dim = row_dim;
    } else if (row_dim != dim) {
      throw IoError("load_csv: inconsistent column count (" +
                    std::to_string(row_dim) + " values, expected " +
                    std::to_string(dim) + ")" + where());
    }
    ++n;
  });
  if (n == 0) throw IoError("load_csv: no data rows in " + path);

  PointSet points(n, dim, std::move(values));
  if (labelled) points.set_labels(std::move(labels));
  return points;
}

void save_binary(const PointSet& points, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("save_binary: cannot open " + path);
  const std::uint64_t n = points.size();
  const std::uint64_t dim = points.dim();
  const std::uint8_t has_labels = points.has_labels() ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  out.write(reinterpret_cast<const char*>(&has_labels), sizeof(has_labels));
  out.write(reinterpret_cast<const char*>(points.values().data()),
            static_cast<std::streamsize>(points.values().size() *
                                         sizeof(double)));
  if (has_labels) {
    out.write(reinterpret_cast<const char*>(points.labels().data()),
              static_cast<std::streamsize>(points.labels().size() *
                                           sizeof(int)));
  }
  if (!out) throw IoError("save_binary: write failed for " + path);
}

PointSet load_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("load_binary: cannot open " + path);
  std::uint64_t n = 0;
  std::uint64_t dim = 0;
  std::uint8_t has_labels = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&dim), sizeof(dim));
  in.read(reinterpret_cast<char*>(&has_labels), sizeof(has_labels));
  if (!in) throw IoError("load_binary: truncated header in " + path);

  AlignedVector values(n * dim);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(values.size() * sizeof(double)));
  if (!in) throw IoError("load_binary: truncated values in " + path);

  PointSet points(n, dim, std::move(values));
  if (has_labels) {
    std::vector<int> labels(n);
    in.read(reinterpret_cast<char*>(labels.data()),
            static_cast<std::streamsize>(labels.size() * sizeof(int)));
    if (!in) throw IoError("load_binary: truncated labels in " + path);
    points.set_labels(std::move(labels));
  }
  return points;
}

std::string point_to_record(std::span<const double> point) {
  // Format into a reused buffer and return an exact-size copy: records are
  // held by the million as MapReduce input.
  thread_local std::string scratch;
  scratch.clear();
  for (std::size_t d = 0; d < point.size(); ++d) {
    if (d > 0) scratch += ',';
    append_number(scratch, point[d]);
  }
  return scratch;
}

std::vector<double> record_to_point(std::string_view record) {
  std::vector<double> values;
  values.reserve(
      static_cast<std::size_t>(std::count(record.begin(), record.end(), ',')) +
      1);
  for_each_field(record, [&](std::string_view field, bool) {
    double value = 0.0;
    if (!parse_field(field, value)) {
      throw IoError("record_to_point: malformed number '" +
                    std::string(field) + "'");
    }
    values.push_back(value);
  });
  return values;
}

}  // namespace dasc::data
