// Minimal CSV writer used by the experiment harness to dump figure data.
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace rtpool::util {

/// Writes rows to a CSV file; values are escaped per RFC 4180 when needed.
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  /// Throws std::runtime_error if the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Append one row; the number of cells must match the header.
  void row(const std::vector<std::string>& cells);

  /// Convenience: build a row from heterogeneous values via operator<<.
  template <typename... Ts>
  void row_values(const Ts&... values) {
    row(cells(values...));
  }

  /// The cells `row_values(values...)` writes, for callers that also print
  /// them elsewhere.
  template <typename... Ts>
  static std::vector<std::string> cells(const Ts&... values) {
    std::vector<std::string> out;
    out.reserve(sizeof...(values));
    (out.push_back(to_cell(values)), ...);
    return out;
  }

  const std::string& path() const { return path_; }

 private:
  template <typename T>
  static std::string to_cell(const T& v) {
    std::ostringstream os;
    os << v;
    return os.str();
  }

  static std::string escape(const std::string& cell);

  std::string path_;
  std::ofstream out_;
  std::size_t columns_;
};

}  // namespace rtpool::util
