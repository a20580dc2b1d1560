#pragma once
// Markdown table emitter for the benchmark harness.  Every bench binary
// prints its results as a GitHub-flavoured markdown table (the same "rows"
// the paper's Table 1 / figures report).

#include <iosfwd>
#include <string>
#include <vector>

namespace disp {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent cell() calls fill it left to right.
  Table& row();
  Table& cell(const std::string& value);
  Table& cell(double value, int precision = 2);
  Table& cell(std::uint64_t value);
  Table& cell(std::int64_t value);
  Table& cell(int value);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& header() const { return header_; }
  /// Rendered cell strings, row-major (what markdown() emits).  Sinks
  /// use this to mirror rows into machine-readable formats.
  [[nodiscard]] const std::vector<std::vector<std::string>>& data() const {
    return rows_;
  }
  [[nodiscard]] std::string markdown() const;

  /// Prints the markdown rendering preceded by `# title`.
  void print(std::ostream& os, const std::string& title) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace disp
