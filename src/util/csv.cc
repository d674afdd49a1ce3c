#include "util/csv.h"

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace least {

namespace {

/// The fast path of the cell rule (see csv.h) for the cell at `p`: the
/// cell's end — the ',' or `end` where `from_chars` stopped, as no number
/// holds a ',' — or nullptr to send the cell to `ParseCellStrtod`.
const char* ParseCellFast(const char* p, const char* end, double* out) {
  if (p == end || !((*p >= '0' && *p <= '9') || *p == '-' || *p == '.')) {
    return nullptr;
  }
  const auto [ptr, ec] = std::from_chars(p, end, *out);
  if (ec != std::errc() || (ptr != end && *ptr != ',') ||
      !std::isfinite(*out) || !(std::fabs(*out) > DBL_MIN)) {
    return nullptr;
  }
  return ptr;
}

/// The rest of the cell rule: `strtod` on a NUL-terminated copy decides
/// every cell the fast path might decide differently.
Status ParseCellStrtod(std::string_view cell, size_t line_no,
                       const std::string& path, double* out) {
  const std::string c(cell);
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(c.c_str(), &end);
  // Learning data must be finite: strtod happily parses "nan"/"inf",
  // which would silently poison every downstream objective.
  const char* refusal = end == c.c_str() || errno == ERANGE ? "non-numeric"
                        : !std::isfinite(*out)              ? "non-finite"
                                                            : nullptr;
  if (refusal == nullptr) return Status::Ok();
  return Status::InvalidArgument(std::string(refusal) + " CSV cell '" + c +
                                 "' at line " + std::to_string(line_no) +
                                 " in '" + path + "'");
}

}  // namespace

bool NextCsvLine(std::string_view buffer, CsvLine* line) {
  while (line->end < buffer.size()) {
    line->begin = line->end;
    const size_t eol = std::min(buffer.find('\n', line->begin), buffer.size());
    line->end = std::min(eol + 1, buffer.size());
    ++line->line_no;
    line->text = buffer.substr(line->begin, eol - line->begin);
    if (line->text.ends_with('\r')) line->text.remove_suffix(1);
    if (!line->text.empty()) return true;
  }
  return false;
}

size_t CountCsvCells(std::string_view line) {
  return static_cast<size_t>(std::count(line.begin(), line.end(), ',')) + 1;
}

Status ParseCsvRow(std::string_view line, size_t line_no,
                   const std::string& path, double* out) {
  const char* p = line.data();
  const char* const end = p + line.size();
  for (;; ++out) {
    const char* cell_end = ParseCellFast(p, end, out);
    if (cell_end == nullptr) {
      cell_end = std::find(p, end, ',');
      const Status parsed = ParseCellStrtod(
          std::string_view(p, static_cast<size_t>(cell_end - p)), line_no,
          path, out);
      if (!parsed.ok()) return parsed;
    }
    if (cell_end == end) return Status::Ok();
    p = cell_end + 1;
  }
}

Status ForEachCsvDataLine(std::istream& in, const std::string& path,
                          bool has_header, std::vector<std::string>* header,
                          size_t* cols,
                          const std::function<Status(const CsvLine&)>& fn) {
  constexpr size_t kBlock = size_t{1} << 16;
  *cols = 0;
  std::string buffer;  // an unfinished line carried over, then one block
  uint64_t base = 0;   // stream offset of buffer[0]
  CsvLine at;          // cursor: `end` within `buffer`, `line_no` overall
  for (bool more = true; more;) {
    const size_t carried = buffer.size();
    buffer.resize(carried + kBlock);
    more = static_cast<bool>(in.read(buffer.data() + carried,
                                     static_cast<std::streamsize>(kBlock)));
    buffer.resize(carried + static_cast<size_t>(in.gcount()));
    // Complete lines only (rfind's npos + 1 wraps to 0) until the stream
    // ends; then the rest is its unterminated last line.
    const std::string_view lines = std::string_view(buffer).substr(
        0, more ? buffer.rfind('\n') + 1 : buffer.size());
    for (at.end = 0; NextCsvLine(lines, &at);) {
      const size_t cells = CountCsvCells(at.text);
      if (*cols == 0) {
        *cols = cells;
        if (has_header) {
          for (size_t pos = 0, comma = 0; comma != std::string_view::npos;
               pos = comma + 1) {
            comma = at.text.find(',', pos);
            header->emplace_back(at.text.substr(pos, comma - pos));
          }
          continue;
        }
      } else if (cells != *cols) {
        return Status::InvalidArgument(
            "ragged CSV row at line " + std::to_string(at.line_no) +
            " in '" + path + "'");
      }
      CsvLine line = at;
      line.begin += base;
      line.end += base;
      const Status visited = fn(line);
      if (!visited.ok()) return visited;
    }
    base += lines.size();
    buffer.erase(0, lines.size());
  }
  return Status::Ok();
}

Result<CsvTable> ReadCsv(const std::string& path, bool has_header) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  CsvTable table;
  size_t cols = 0;
  const Status read = ForEachCsvDataLine(
      in, path, has_header, &table.header, &cols, [&](const CsvLine& line) {
        table.rows.emplace_back(cols);
        return ParseCsvRow(line.text, line.line_no, path,
                           table.rows.back().data());
      });
  if (!read.ok()) return read;
  return table;
}

Status WriteCsv(const std::string& path,
                const std::vector<std::string>& header,
                const std::vector<std::vector<double>>& rows) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  if (!header.empty()) {
    for (size_t i = 0; i < header.size(); ++i) {
      out << header[i] << (i + 1 == header.size() ? "\n" : ",");
    }
  }
  out.precision(17);
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      out << row[i] << (i + 1 == row.size() ? "\n" : ",");
    }
  }
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::Ok();
}

}  // namespace least
