#include "graph/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "util/check.hpp"

namespace disp {

namespace {

[[noreturn]] void parseFail(const std::string& text, const std::string& why) {
  throw std::invalid_argument("bad graph spec '" + text + "': " + why);
}

/// Full-token numeric check (sign-free); parse-time validation so a typo'd
/// value fails when the spec is read, not deep inside a sweep.
bool isNumber(const std::string& v) {
  if (v.empty()) return false;
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  return end == v.c_str() + v.size() && std::isfinite(d) && v[0] != '-' &&
         v[0] != '+';
}

/// Canonical value form: integers lose leading zeros ("064" -> "64") so the
/// canonical string is a usable cache identity; non-integers stay as
/// written.
std::string normalizeValue(const std::string& v) {
  if (v.find_first_not_of("0123456789") != std::string::npos) return v;
  return std::to_string(std::strtoull(v.c_str(), nullptr, 10));
}

// ------------------------------------------------- built-in family factory
// Each `make` reproduces the historical makeFamily() derivation rules
// byte-for-byte when no shape parameter is given, so legacy family strings
// stay exact aliases (the bench baseline depends on it).

GraphBuilder makeFamPath(const GraphSpec&, std::uint32_t n, std::uint64_t) {
  return makePath(n);
}
GraphBuilder makeFamCycle(const GraphSpec&, std::uint32_t n, std::uint64_t) {
  return makeCycle(n);
}
GraphBuilder makeFamStar(const GraphSpec&, std::uint32_t n, std::uint64_t) {
  return makeStar(n);
}
GraphBuilder makeFamWheel(const GraphSpec&, std::uint32_t n, std::uint64_t) {
  return makeWheel(n);
}
GraphBuilder makeFamComplete(const GraphSpec&, std::uint32_t n, std::uint64_t) {
  return makeComplete(n);
}
GraphBuilder makeFamBipartite(const GraphSpec& s, std::uint32_t n, std::uint64_t) {
  const std::uint32_t a = s.u32("a", n / 2);
  const std::uint32_t b = s.u32("b", n - n / 2);
  return makeCompleteBipartite(a, b);
}
GraphBuilder makeFamBintree(const GraphSpec&, std::uint32_t n, std::uint64_t) {
  return makeBinaryTree(n);
}
GraphBuilder makeFamRandtree(const GraphSpec&, std::uint32_t n, std::uint64_t seed) {
  return makeRandomTree(n, seed);
}
GraphBuilder makeFamCaterpillar(const GraphSpec& s, std::uint32_t n, std::uint64_t) {
  const std::uint32_t spine = s.u32("spine", std::max(1U, n / 4));
  const std::uint32_t legs = s.u32("legs", (n - spine) / std::max(1U, spine));
  return makeCaterpillar(spine, legs);
}
GraphBuilder makeFamGrid(const GraphSpec& s, std::uint32_t n, std::uint64_t) {
  const auto side = static_cast<std::uint32_t>(std::lround(std::sqrt(double(n))));
  const std::uint32_t rows = s.u32("rows", std::max(1U, side));
  const std::uint32_t cols = s.u32("cols", std::max(1U, side));
  return makeGrid(rows, cols);
}
GraphBuilder makeFamHypercube(const GraphSpec& s, std::uint32_t n, std::uint64_t) {
  std::uint32_t dims = 1;
  while ((1U << (dims + 1)) <= n) ++dims;
  return makeHypercube(s.u32("dims", dims));
}
GraphBuilder makeFamEr(const GraphSpec& s, std::uint32_t n, std::uint64_t seed) {
  // Expected degree ~ 2 ln n: safely above the connectivity threshold.
  const double p = s.real(
      "p", std::min(1.0, 2.0 * std::log(std::max(2.0, double(n))) / double(n)));
  // fast=1 opts into the O(m) geometric-skip sampler for web-scale n.  It
  // draws a different random stream, so the bare `er` baseline cells are
  // untouched by construction.
  if (s.u32("fast", 0) != 0) return makeErdosRenyiFast(n, p, seed);
  return makeErdosRenyiConnected(n, p, seed);
}
GraphBuilder makeFamBa(const GraphSpec& s, std::uint32_t n, std::uint64_t seed) {
  return makeBarabasiAlbert(n, s.u32("d", 4), seed);
}
GraphBuilder makeFamRmat(const GraphSpec& s, std::uint32_t n, std::uint64_t seed) {
  return makeRmat(n, s.u32("ef", 8), seed);
}
GraphBuilder makeFamRegular(const GraphSpec& s, std::uint32_t n, std::uint64_t seed) {
  const std::uint32_t d = s.u32("d", (n * 4 % 2 == 0) ? 4 : 3);
  return makeRandomRegular(std::max(6U, n), d, seed);
}
GraphBuilder makeFamLollipop(const GraphSpec& s, std::uint32_t n, std::uint64_t) {
  return makeLollipop(n, s.u32("clique", std::max(2U, n / 2)));
}
GraphBuilder makeFamBarbell(const GraphSpec& s, std::uint32_t n, std::uint64_t) {
  const std::uint32_t c = s.u32("clique", std::max(2U, n / 3));
  return makeBarbell(c, s.u32("path", n - 2 * c));
}
GraphBuilder makeFamExpander(const GraphSpec& s, std::uint32_t n, std::uint64_t seed) {
  const std::uint32_t d = s.u32("d", 8);
  // The generator wants n >= 2d; small context sizes are padded up like
  // `regular` pads to its feasibility floor.
  return makeExpander(std::max(n, 2 * d), d, seed);
}

}  // namespace

std::span<const GraphFamilyDef> graphFamilyRegistry() {
  static const GraphFamilyDef kFamilies[] = {
      {"path", "path graph (the Ω(k) lower-bound instance)", {}, {}, &makeFamPath},
      {"cycle", "cycle graph", {}, {}, &makeFamCycle},
      {"star", "star K_{1,n-1} (max-degree stress)", {}, {}, &makeFamStar},
      {"wheel", "wheel graph", {}, {}, &makeFamWheel},
      {"complete", "complete graph K_n", {}, {}, &makeFamComplete},
      {"bipartite", "complete bipartite K_{a,b}", {"a", "b"}, {"a", "b"},
       &makeFamBipartite},
      {"bintree", "complete binary tree", {}, {}, &makeFamBintree},
      {"randtree", "random recursive tree (seeded)", {}, {}, &makeFamRandtree},
      {"caterpillar", "spine path with pendant legs", {"spine", "legs"},
       {"spine", "legs"}, &makeFamCaterpillar},
      {"grid", "2D grid", {"rows", "cols"}, {"rows", "cols"}, &makeFamGrid},
      {"hypercube", "hypercube Q_dims", {"dims"}, {"dims"}, &makeFamHypercube},
      {"er",
       "Erdős–Rényi G(n,p) conditioned on connectivity (seeded; fast=1 "
       "selects the O(m) web-scale sampler)",
       {"p", "fast"},
       {},
       &makeFamEr},
      {"ba", "Barabási–Albert preferential attachment (power-law, seeded)",
       {"d"},
       {},
       &makeFamBa},
      {"rmat", "R-MAT recursive-quadrant sampler (Graph500 mix, seeded)",
       {"ef"},
       {},
       &makeFamRmat},
      {"regular", "random d-regular graph (seeded)", {"d"}, {}, &makeFamRegular},
      {"lollipop", "clique glued to a path", {"clique"}, {}, &makeFamLollipop},
      {"barbell", "two cliques joined by a path", {"clique", "path"}, {},
       &makeFamBarbell},
      {"expander", "random circulant expander (d-regular, seeded)", {"d"}, {},
       &makeFamExpander},
  };
  return kFamilies;
}

const GraphFamilyDef* findGraphFamily(std::string_view key) {
  for (const GraphFamilyDef& def : graphFamilyRegistry()) {
    if (key == def.key) return &def;
  }
  return nullptr;
}

const GraphFamilyDef& graphFamilyDef(std::string_view key) {
  if (const GraphFamilyDef* def = findGraphFamily(key)) return *def;
  std::string known = "file";
  for (const GraphFamilyDef& def : graphFamilyRegistry()) known += ", " + def.key;
  throw std::invalid_argument("unknown graph family: " + std::string(key) +
                              " (known: " + known + ")");
}

std::vector<std::string> graphFamilyKeys() {
  std::vector<std::string> keys;
  keys.reserve(graphFamilyRegistry().size());
  for (const GraphFamilyDef& def : graphFamilyRegistry()) keys.push_back(def.key);
  return keys;
}

GraphSpec GraphSpec::parse(const std::string& text) {
  if (text.empty()) parseFail(text, "empty spec");
  GraphSpec spec;
  const auto colon = text.find(':');
  spec.family_ = text.substr(0, colon);

  if (spec.family_ == "file") {
    if (colon == std::string::npos || colon + 1 == text.size()) {
      parseFail(text, "file spec needs a path (file:PATH)");
    }
    spec.filePath_ = text.substr(colon + 1);
    return spec;
  }

  const GraphFamilyDef& def = graphFamilyDef(spec.family_);
  if (colon == std::string::npos) return spec;  // bare legacy alias

  std::string args = text.substr(colon + 1);
  std::string::size_type from = 0;
  while (from <= args.size()) {
    const auto comma = args.find(',', from);
    const auto to = comma == std::string::npos ? args.size() : comma;
    const std::string tok = args.substr(from, to - from);
    if (!tok.empty()) {
      const auto eq = tok.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == tok.size()) {
        parseFail(text, "parameter '" + tok + "' is not key=value");
      }
      const std::string key = tok.substr(0, eq);
      const std::string value = tok.substr(eq + 1);
      if (key != "n" && std::find(def.params.begin(), def.params.end(), key) ==
                            def.params.end()) {
        std::string known = "n";
        for (const std::string& p : def.params) known += ", " + p;
        parseFail(text, "family '" + def.key + "' has no parameter '" + key +
                            "' (known: " + known + ")");
      }
      if (!isNumber(value)) parseFail(text, "parameter '" + key + "' value '" +
                                                value + "' is not a number");
      if (!spec.params_.emplace(key, normalizeValue(value)).second) {
        parseFail(text, "duplicate parameter '" + key + "'");
      }
    }
    if (comma == std::string::npos) break;
    from = comma + 1;
  }

  // Size-parameter groups are all-or-none: a half-specified grid would
  // silently fall back to the sqrt(n) rule for the missing dimension.
  if (!def.sizeParams.empty()) {
    std::size_t given = 0;
    for (const std::string& sp : def.sizeParams) given += spec.has(sp);
    if (given != 0 && given != def.sizeParams.size()) {
      std::string group;
      for (const std::string& sp : def.sizeParams) {
        if (!group.empty()) group += ",";
        group += sp;
      }
      parseFail(text, "size parameters {" + group + "} must be given together");
    }
  }
  return spec;
}

std::string GraphSpec::toString() const {
  if (isFile()) return "file:" + filePath_;
  std::string out = family_;
  bool first = true;
  for (const auto& [key, value] : params_) {
    out += first ? ':' : ',';
    first = false;
    out += key + '=' + value;
  }
  return out;
}

bool GraphSpec::sizeBound() const {
  if (isFile() || has("n")) return true;
  const GraphFamilyDef* def = findGraphFamily(family_);
  if (def == nullptr || def->sizeParams.empty()) return false;
  for (const std::string& sp : def->sizeParams) {
    if (!has(sp)) return false;
  }
  return true;
}

std::string GraphSpec::instanceKey(std::uint32_t contextN, std::uint64_t seed) const {
  if (isFile()) return toString();
  std::string key = toString();
  if (!sizeBound()) key += "|n=" + std::to_string(contextN);
  key += "|seed=" + std::to_string(seed);
  return key;
}

Graph GraphSpec::instantiate(std::uint32_t contextN, std::uint64_t seed,
                             PortLabeling labeling) const {
  if (isFile()) return loadAnyGraph(filePath_);
  const GraphFamilyDef& def = graphFamilyDef(family_);
  const std::uint32_t n = u32("n", contextN);
  return def.make(*this, n, seed).build(labeling, seed);
}

bool GraphSpec::has(const std::string& name) const {
  return params_.count(name) > 0;
}

std::uint32_t GraphSpec::u32(const std::string& name, std::uint32_t fallback) const {
  const auto it = params_.find(name);
  if (it == params_.end()) return fallback;
  // Digits only: parse-time isNumber() also admits strtod forms ("1e3",
  // "0.5") that strtoull would silently truncate to the wrong size.
  const bool digits =
      it->second.find_first_not_of("0123456789") == std::string::npos;
  const unsigned long long v =
      digits ? std::strtoull(it->second.c_str(), nullptr, 10) : 0;
  DISP_REQUIRE(digits && v <= 0xffffffffULL,
               "spec parameter '" + name + "' = '" + it->second +
                   "' is not a 32-bit unsigned integer");
  return static_cast<std::uint32_t>(v);
}

double GraphSpec::real(const std::string& name, double fallback) const {
  const auto it = params_.find(name);
  if (it == params_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

Graph makeGraph(const std::string& spec, std::uint32_t n, std::uint64_t seed,
                PortLabeling labeling) {
  return GraphSpec::parse(spec).instantiate(n, seed, labeling);
}

}  // namespace disp
