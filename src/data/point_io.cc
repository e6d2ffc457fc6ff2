#include "data/point_io.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "storage/output_file.h"
#include "util/failpoint.h"
#include "util/format.h"

namespace csj::io_internal {

Status WritePointsText(const std::string& path,
                       const std::vector<std::vector<double>>& rows) {
  // Atomic commit: a failed or killed save leaves the previous file at
  // `path` untouched.
  OutputFile file;
  CSJ_RETURN_IF_ERROR(file.Open(path, OutputFile::Options{.atomic = true}));
  std::string chunk;
  std::string line;
  char number[32];
  for (const auto& row : rows) {
    line.clear();
    for (size_t d = 0; d < row.size(); ++d) {
      const int n = std::snprintf(number, sizeof(number), "%.17g%c", row[d],
                                  d + 1 == row.size() ? '\n' : ' ');
      line.append(number, static_cast<size_t>(n));
    }
    if (chunk.size() + line.size() > kAppendChunkBytes) {
      CSJ_RETURN_IF_ERROR(file.Append(chunk));
      chunk.clear();
    }
    chunk += line;
  }
  if (!chunk.empty()) CSJ_RETURN_IF_ERROR(file.Append(chunk));
  return file.Close();
}

Result<std::vector<std::vector<double>>> ReadPointsText(
    const std::string& path, int expected_dims) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  std::vector<std::vector<double>> rows;
  char line[512];
  int line_no = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++line_no;
    if (CSJ_FAILPOINT("point_io.read")) {
      std::fclose(f);
      return Status::IoError(
          StrFormat("%s:%d: injected read fault", path.c_str(), line_no));
    }
    // A full buffer with no newline means the line kept going: reject it
    // rather than silently splitting one point across two parses. (The last
    // line of the file may legitimately lack a newline.)
    if (std::strchr(line, '\n') == nullptr && !std::feof(f)) {
      std::fclose(f);
      return Status::InvalidArgument(
          StrFormat("%s:%d: line exceeds %zu bytes", path.c_str(), line_no,
                    sizeof(line) - 1));
    }
    // Skip blank and comment lines.
    char* cursor = line;
    while (*cursor == ' ' || *cursor == '\t') ++cursor;
    if (*cursor == '\0' || *cursor == '\n' || *cursor == '\r' ||
        *cursor == '#') {
      continue;
    }

    std::vector<double> row;
    while (true) {
      char* end = nullptr;
      errno = 0;
      const double value = std::strtod(cursor, &end);
      if (end == cursor) break;
      // Coordinates must be finite: "nan"/"inf" literals and values whose
      // magnitude overflows a double (strtod returns ±HUGE_VAL with ERANGE)
      // would poison every distance computed from them. Underflow to zero
      // (e.g. 1e-400) is harmless and accepted.
      if (!std::isfinite(value)) {
        std::fclose(f);
        return Status::InvalidArgument(StrFormat(
            "%s:%d: column %zu is %s — coordinates must be finite",
            path.c_str(), line_no, row.size() + 1,
            std::isnan(value) ? "NaN"
                              : (errno == ERANGE
                                     ? "out of range for a double"
                                     : "infinite")));
      }
      row.push_back(value);
      cursor = end;
    }
    // Anything left that is not whitespace or a trailing comment is a token
    // strtod could not consume — report it instead of silently dropping it.
    while (*cursor == ' ' || *cursor == '\t') ++cursor;
    if (*cursor != '\0' && *cursor != '\n' && *cursor != '\r' &&
        *cursor != '#') {
      std::fclose(f);
      size_t token_len = 0;
      while (token_len < 12 && cursor[token_len] != '\0' &&
             cursor[token_len] != '\n' && cursor[token_len] != '\r') {
        ++token_len;
      }
      return Status::InvalidArgument(
          StrFormat("%s:%d: non-numeric token starting at '%.*s'",
                    path.c_str(), line_no, static_cast<int>(token_len),
                    cursor));
    }
    if (static_cast<int>(row.size()) != expected_dims) {
      std::fclose(f);
      return Status::InvalidArgument(
          StrFormat("%s:%d: expected %d columns, found %zu", path.c_str(),
                    line_no, expected_dims, row.size()));
    }
    rows.push_back(std::move(row));
  }
  if (std::ferror(f) != 0) {
    std::fclose(f);
    return Status::IoError("read failed: " + path);
  }
  std::fclose(f);
  if (rows.empty()) {
    return Status::InvalidArgument("no points in " + path);
  }
  return rows;
}

}  // namespace csj::io_internal
