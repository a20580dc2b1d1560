#include "util/cli.hpp"

#include <stdexcept>

namespace disp {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      const std::string key =
          eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
      // Bare `--` and `--=value` would mint an empty flag key that no
      // lookup can ever reach; reject instead of storing it silently.
      if (key.empty()) {
        throw std::invalid_argument("malformed flag '" + arg +
                                    "': expected --name or --name=value");
      }
      const bool bare = eq == std::string::npos;
      flags_[key] = bare ? "1" : arg.substr(eq + 1);
      if (bare) {
        bare_.insert(key);
      } else {
        bare_.erase(key);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool Cli::has(const std::string& key) const { return flags_.count(key) > 0; }

bool Cli::bare(const std::string& key) const { return bare_.count(key) > 0; }

std::string Cli::str(const std::string& key, const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

[[noreturn]] void badNumber(const std::string& key, const std::string& token,
                            const char* kind) {
  throw std::invalid_argument("--" + key + ": not " + kind + ": '" + token + "'");
}

bool isDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

std::int64_t Cli::integer(const std::string& key, std::int64_t fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string& token = it->second;
  // Full-token match only: raw std::stoll skips leading whitespace,
  // accepts a '+' sign and ignores trailing garbage ("4x" -> 4) —
  // inconsistent with parseU64 below.
  const std::size_t lead = token.rfind('-', 0) == 0 ? 1 : 0;
  if (token.size() == lead || !isDigit(token[lead])) {
    badNumber(key, token, "an integer");
  }
  std::size_t used = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(token, &used);
  } catch (const std::exception&) {
    badNumber(key, token, "an integer");
  }
  if (used != token.size()) badNumber(key, token, "an integer");
  return v;
}

namespace {

std::vector<std::string> splitOn(const std::string& value, char sep) {
  std::vector<std::string> out;
  std::string::size_type from = 0;
  while (from <= value.size()) {
    const auto at = value.find(sep, from);
    const auto to = at == std::string::npos ? value.size() : at;
    if (to > from) out.push_back(value.substr(from, to - from));
    if (at == std::string::npos) break;
    from = at + 1;
  }
  return out;
}

}  // namespace

std::vector<std::string> Cli::list(const std::string& key) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? std::vector<std::string>{} : splitOn(it->second, ',');
}

std::vector<std::string> Cli::specList(const std::string& key) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? std::vector<std::string>{} : splitOn(it->second, ';');
}

std::vector<std::uint64_t> Cli::u64list(const std::string& key) const {
  std::vector<std::uint64_t> out;
  for (const std::string& tok : list(key)) {
    out.push_back(parseU64(tok, "--" + key));
  }
  return out;
}

std::uint64_t parseU64(const std::string& token, const std::string& what) {
  // Reject sign/whitespace prefixes up front: std::stoull would accept a
  // leading '-' and wrap modulo 2^64.
  if (token.empty() || token[0] < '0' || token[0] > '9') {
    throw std::invalid_argument(what + ": not a number: " + token);
  }
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(token, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument(what + ": not a number: " + token);
  }
  if (used != token.size()) {
    throw std::invalid_argument(what + ": not a number: " + token);
  }
  return v;
}

}  // namespace disp
