#pragma once
// Minimal command-line flag parsing for benches and examples.
// Accepts `--key=value` and `--flag`; anything else is a positional.
// Malformed flags (`--`, `--=value`) and non-numeric values for the typed
// accessors throw std::invalid_argument naming the offending flag.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace disp {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  /// True when the flag was given bare, as `--key` with no `=value`.  A
  /// caller whose flag names a file rejects that, since the value reads "1".
  [[nodiscard]] bool bare(const std::string& key) const;
  [[nodiscard]] std::string str(const std::string& key, const std::string& fallback) const;
  /// Strict full-token signed integer ("-12" ok; "4x", " 4", "+4" throw).
  [[nodiscard]] std::int64_t integer(const std::string& key, std::int64_t fallback) const;
  /// Strict full-token real ("0.5", ".5", "1e3", "-0.25" ok; "0.5x",
  /// " 1", "+1", "nan", "inf" throw).
  [[nodiscard]] double real(const std::string& key, double fallback) const;
  /// Comma-separated list value; empty vector when the flag is absent.
  [[nodiscard]] std::vector<std::string> list(const std::string& key) const;
  /// Semicolon-separated list value (for workload specs, whose own
  /// parameters use commas: --graphs='er;grid:rows=8,cols=8').
  [[nodiscard]] std::vector<std::string> specList(const std::string& key) const;
  /// Comma-separated unsigned list (e.g. --seeds=1,2,3); empty when absent.
  /// Throws std::invalid_argument on non-numeric elements.
  [[nodiscard]] std::vector<std::uint64_t> u64list(const std::string& key) const;
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }
  /// All parsed flags in sorted key order (bare flags map to "1").  Lets a
  /// caller reject flags it does not read.
  [[nodiscard]] const std::map<std::string, std::string>& flags() const { return flags_; }

 private:
  std::map<std::string, std::string> flags_;
  std::set<std::string> bare_;
  std::vector<std::string> positional_;
};

/// Strict unsigned parse of a whole token: digits only (no sign, space or
/// trailing junk).  Throws std::invalid_argument prefixed with `what`.
[[nodiscard]] std::uint64_t parseU64(const std::string& token, const std::string& what);

}  // namespace disp
