#include "util/table.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>

#include "util/check.hpp"
#include "util/stats.hpp"

namespace disp {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  DISP_REQUIRE(!header_.empty(), "table needs at least one column");
}

Table& Table::row() {
  rows_.emplace_back();
  rows_.back().reserve(header_.size());
  return *this;
}

Table& Table::cell(const std::string& value) {
  DISP_REQUIRE(!rows_.empty(), "call row() before cell()");
  DISP_REQUIRE(rows_.back().size() < header_.size(), "row has too many cells");
  rows_.back().push_back(value);
  return *this;
}

Table& Table::cell(double value, int precision) { return cell(fmt(value, precision)); }
Table& Table::cell(std::uint64_t value) { return cell(std::to_string(value)); }
Table& Table::cell(std::int64_t value) { return cell(std::to_string(value)); }
Table& Table::cell(int value) { return cell(std::to_string(value)); }

std::string Table::markdown() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c) width[c] = std::max(width[c], r[c].size());

  std::ostringstream os;
  auto emitRow = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string{};
      os << ' ' << v << std::string(width[c] - v.size(), ' ') << " |";
    }
    os << '\n';
  };
  emitRow(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) os << std::string(width[c] + 2, '-') << '|';
  os << '\n';
  for (const auto& r : rows_) emitRow(r);
  return os.str();
}

void Table::print(std::ostream& os, const std::string& title) const {
  os << "\n## " << title << "\n\n" << markdown() << '\n';
}

}  // namespace disp
