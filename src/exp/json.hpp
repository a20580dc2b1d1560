#pragma once
// Minimal JSON reader for the JSONL rows `disp_bench merge` audits.
//
// The rows are JSON the repo itself produced (JsonlWriter), so a small
// recursive-descent parser with strict errors is the whole requirement; no
// third-party dependency.  Objects preserve insertion order (dump()
// round-trips JsonlWriter rows byte-for-byte), numbers round-trip through
// the shortest form that re-parses, and parse errors carry a byte offset
// so a torn or corrupted line fails with a usable diagnostic.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace disp::exp {

class JsonValue {
 public:
  [[nodiscard]] bool isString() const { return kind_ == Kind::String; }
  [[nodiscard]] bool isObject() const { return kind_ == Kind::Object; }

  [[nodiscard]] const std::string& asString() const;
  /// Object members in insertion order.  The result refers into this
  /// value, so a temporary may not be asked: hold the parsed value in a
  /// named object first.
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members() const&;
  void members() const&& = delete;

  /// Compact single-line serialization (no trailing newline).
  [[nodiscard]] std::string dump() const;

  /// Parses exactly one JSON document (trailing non-whitespace is an
  /// error).  Throws std::runtime_error with a byte offset on malformed
  /// input.
  [[nodiscard]] static JsonValue parse(std::string_view text);

 private:
  friend struct JsonParser;
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  void dumpTo(std::string& out) const;
};

/// Escapes `s` as a JSON string literal including the quotes (the one
/// escaper: JsonlWriter writes every key and value through it).
[[nodiscard]] std::string jsonQuote(std::string_view s);

}  // namespace disp::exp
