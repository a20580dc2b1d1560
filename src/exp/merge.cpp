#include "exp/merge.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <utility>

#include "exp/json.hpp"

namespace disp::exp {

namespace {

const char* const kTelemetry[] = {
    "load_ms", "peak_rss_mb", "rss_lb_mb", "rss_ratio",
};

const char* const kCoordinates[] = {
    "sweep", "table", "family", "graph", "file",  "k",
    "l",     "placement", "sched", "algo", "faults", "seed",
};

template <std::size_t N>
bool oneOf(const char* const (&columns)[N], const std::string& column) {
  return std::find(std::begin(columns), std::end(columns), column) != std::end(columns);
}

struct ParsedRow {
  /// Coordinate columns present in the row, in (key, value) sorted order.
  std::vector<std::pair<std::string, std::string>> coords;
  /// Non-telemetry columns, sorted by key — the fact comparison payload.
  std::vector<std::pair<std::string, std::string>> facts;
};

/// Flattens a JSONL row into coordinate + fact views.  Values are the
/// rendered strings JsonlWriter wrote; non-string values (foreign JSONL)
/// compare by their compact dump.
ParsedRow flatten(const JsonValue& row) {
  ParsedRow out;
  for (const auto& [key, value] : row.members()) {
    const std::string rendered = value.isString() ? value.asString() : value.dump();
    if (oneOf(kCoordinates, key)) out.coords.emplace_back(key, rendered);
    if (!oneOf(kTelemetry, key)) out.facts.emplace_back(key, rendered);
  }
  std::sort(out.coords.begin(), out.coords.end());
  std::sort(out.facts.begin(), out.facts.end());
  return out;
}

std::string joinPairs(const std::vector<std::pair<std::string, std::string>>& kvs) {
  std::string out;
  for (const auto& [k, v] : kvs) {
    if (!out.empty()) out += " ";
    out += k + "=" + v;
  }
  return out;
}

/// Canonical identity: the coordinate columns when the row has any beyond
/// sweep/table; the whole fact payload otherwise (fit/note diagnostics).
std::string identityOf(const ParsedRow& row) {
  for (const auto& [k, v] : row.coords) {
    (void)v;
    if (k != "sweep" && k != "table") return joinPairs(row.coords);
  }
  return joinPairs(row.facts);
}

struct Keeper {
  ParsedRow row;
  std::string where;  // "path:line"
};

}  // namespace

MergeResult mergeJsonl(const std::vector<std::string>& paths,
                       const std::string& outPath) {
  MergeResult res;
  std::map<std::string, Keeper> seen;
  std::vector<std::string> kept;  // original line text, input order

  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      res.errors.push_back(path + ": cannot open");
      continue;
    }
    std::string line;
    for (std::size_t lineNo = 1; std::getline(in, line); ++lineNo) {
      if (line.empty()) continue;
      const std::string where = path + ":" + std::to_string(lineNo);
      JsonValue row;
      try {
        row = JsonValue::parse(line);
        if (!row.isObject()) throw std::runtime_error("row is not a JSON object");
      } catch (const std::exception& e) {
        res.errors.push_back(where + ": not JSON (" + e.what() + ")");
        continue;
      }
      ParsedRow parsed = flatten(row);
      const std::string id = identityOf(parsed);
      const auto it = seen.find(id);
      if (it == seen.end()) {
        seen.emplace(id, Keeper{std::move(parsed), where});
        kept.push_back(line);
        continue;
      }
      // Repeated identity: a divergence if any fact differs, else an overlap.
      const auto& a = it->second.row.facts;
      const auto& b = parsed.facts;
      std::string diffCol, valA, valB;
      auto ia = a.begin();
      auto ib = b.begin();
      while (ia != a.end() || ib != b.end()) {
        if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
          diffCol = ia->first; valA = ia->second; valB = "(absent)";
          break;
        }
        if (ia == a.end() || ib->first < ia->first) {
          diffCol = ib->first; valA = "(absent)"; valB = ib->second;
          break;
        }
        if (ia->second != ib->second) {
          diffCol = ia->first; valA = ia->second; valB = ib->second;
          break;
        }
        ++ia;
        ++ib;
      }
      if (!diffCol.empty()) {
        res.divergences.push_back(
            {id, diffCol, valA, valB, it->second.where, where});
        continue;
      }
      res.errors.push_back(where + ": duplicate row (also in " +
                           it->second.where + ") — overlapping shards?");
    }
  }

  res.ok = res.errors.empty() && res.divergences.empty();
  if (!res.ok) return res;
  std::ofstream out(outPath, std::ios::trunc);
  if (!out) {
    res.ok = false;
    res.errors.push_back(outPath + ": cannot write");
    return res;
  }
  for (const std::string& l : kept) out << l << "\n";
  out.flush();
  if (!out) {
    res.ok = false;
    res.errors.push_back(outPath + ": write failed");
    return res;
  }
  res.rowsOut = kept.size();
  return res;
}

}  // namespace disp::exp
