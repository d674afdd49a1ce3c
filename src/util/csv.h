/// \file csv.h
/// \brief Minimal CSV reading/writing for numeric tables.
///
/// Data matrices and learned edge lists can be exported for inspection or
/// imported from user files (e.g. a real MovieLens export). Values are
/// doubles; no quoting/escaping is supported (numeric payloads only, with an
/// optional header line of column names).
///
/// Every reader — `ReadCsv`, the shard scanner and the shard loader in
/// `core/data_source.cc` — goes through one zero-copy path: lines are
/// `std::string_view` slices of a buffer (`NextCsvLine`), cells are
/// split on ',' without allocating, and each cell is parsed straight into
/// the destination row (`ParseCsvRow`).
///
/// Cell rule. A cell is `strtod`'s leading numeric prefix (so "1.5x" reads
/// as 1.5 and " 1", "+1" and "0x10" are numbers); a cell with no numeric
/// prefix, or one that under- or overflows (`ERANGE`), is non-numeric, and
/// a nan/inf value is non-finite — both `kInvalidArgument`, since learning
/// data must be finite. The fast path: a cell that starts with a digit,
/// '-' or '.', that `std::from_chars` consumes whole with `errc{}`, and
/// whose value is finite with |v| > DBL_MIN takes that value (both parsers
/// round correctly, so the bits agree). Every other cell — empty, leading
/// space or '+', hex, trailing garbage, zero, subnormal, out of range, any
/// nan/inf spelling — falls back to `strtod` on a NUL-terminated copy, so
/// every verdict, message and parsed bit is `strtod`'s.

#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace least {

/// \brief A parsed CSV file: optional header plus a dense row-major table.
struct CsvTable {
  std::vector<std::string> header;        ///< empty if `has_header` was false
  std::vector<std::vector<double>> rows;  ///< each inner vector is one line
};

/// Reads a numeric CSV file. When `has_header` is true the first line is
/// returned in `CsvTable::header` instead of being parsed as numbers.
/// Fails with `kIoError` when the file cannot be opened and
/// `kInvalidArgument` on ragged rows (including rows disagreeing with the
/// header's column count) or non-numeric / non-finite cells — learning
/// data must be finite, so "nan"/"inf" are rejected rather than parsed.
Result<CsvTable> ReadCsv(const std::string& path, bool has_header);

/// \brief One non-blank line of a CSV buffer or stream, and the cursor
/// `NextCsvLine` advances.
struct CsvLine {
  std::string_view text;  ///< without its '\n' and one trailing '\r'
  size_t line_no = 0;     ///< 1-based; blank lines are counted
  uint64_t begin = 0;     ///< byte offset of the line's first char
  uint64_t end = 0;       ///< byte offset past its '\n' (or the end)
};

/// Zero-copy line splitter: advances `*line` (start from `CsvLine{}`) to
/// the next non-blank line of `buffer` after `line->end`, as a view into
/// `buffer`; false once the buffer is done. A final line without '\n' is
/// still a line.
bool NextCsvLine(std::string_view buffer, CsvLine* line);

/// Number of cells in a CSV line: one more than its commas, so a trailing
/// comma yields a trailing empty cell.
size_t CountCsvCells(std::string_view line);

/// Parses the `CountCsvCells(line)` cells of one data line into `out`
/// under the cell rule above. `line_no`/`path` only feed error messages.
Status ParseCsvRow(std::string_view line, size_t line_no,
                   const std::string& path, double* out);

/// Streams the data lines of a numeric CSV from `in` through `fn`, in
/// order, reading fixed-size blocks, so memory is bounded by one block
/// plus the longest line. With `has_header` the first non-blank line is
/// the header: its cells go to `*header` and `fn` never sees it. Every
/// line must have as many cells as the first, else `kInvalidArgument` (a
/// ragged row; `path` only feeds messages). `*cols` receives that count (0
/// when there is no non-blank line). Offsets and line numbers are relative
/// to the start of `in`.
Status ForEachCsvDataLine(std::istream& in, const std::string& path,
                          bool has_header, std::vector<std::string>* header,
                          size_t* cols,
                          const std::function<Status(const CsvLine&)>& fn);

/// Writes a numeric table (with optional header) to `path`.
Status WriteCsv(const std::string& path,
                const std::vector<std::string>& header,
                const std::vector<std::vector<double>>& rows);

}  // namespace least
