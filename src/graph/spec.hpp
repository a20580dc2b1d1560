#pragma once
// Parsed, printable graph workload specs — the input grammar of the
// Scenario API (DESIGN.md §8).
//
// A GraphSpec names either a generator family with optional key=value
// shape parameters, or a graph file on disk:
//
//   er                          legacy alias: n from context, p = 2 ln n / n
//   er:n=2048,p=0.01            explicit size and density
//   grid:rows=64,cols=64        explicit dimensions (n = rows*cols)
//   lollipop:n=1024,clique=64
//   file:data/roads.e           loaded from disk (graph_io.hpp formats)
//
// Specs round-trip: parse(toString(s)) == s, with parameters printed in
// sorted key order, so the canonical string is a stable identity — the
// batch runner keys its graph-sharing cache on instanceKey(), which is the
// canonical string plus whatever context (default size, seed) the spec
// actually consumes.  Every legacy family name parses as an alias whose
// instantiation is byte-identical to the historical makeFamily() rules.
//
// Families live in one constant table, keyed by name like the algorithm
// table (algo/registry.hpp); a new family is one more row in spec.cpp.
// `file:` is a built-in special form (the loader fixes the ports, so
// neither the context size, the seed nor the labeling apply).

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace disp {

class GraphSpec;

/// One generator family.  `make` receives the parsed spec (for
/// shape parameters), the effective node count n (the spec's own n= if
/// given, else the caller's context size) and the seed.
struct GraphFamilyDef {
  std::string key;      ///< canonical family name (parse head)
  std::string summary;  ///< one-line description for help/errors
  /// Recognized shape parameters besides the universal `n` (unknown keys
  /// are a parse error).
  std::vector<std::string> params;
  /// Subset of `params` that jointly pin the node count without `n`
  /// (e.g. grid rows+cols).  All-or-none: giving some but not all is a
  /// parse error.
  std::vector<std::string> sizeParams;
  GraphBuilder (*make)(const GraphSpec&, std::uint32_t n, std::uint64_t seed);
};

/// A parsed graph workload spec (see file header for the grammar).
class GraphSpec {
 public:
  /// Parses `family[:k=v,...]` or `file:PATH`.  Throws std::invalid_argument
  /// on an unknown family, an unrecognized or malformed parameter, or a
  /// partially-given size-parameter group.
  [[nodiscard]] static GraphSpec parse(const std::string& text);

  /// Canonical form: family name, parameters in sorted key order with
  /// integer values normalized.  parse(toString()) round-trips.
  [[nodiscard]] std::string toString() const;

  [[nodiscard]] const std::string& family() const { return family_; }
  [[nodiscard]] bool isFile() const { return family_ == "file"; }
  [[nodiscard]] const std::string& filePath() const { return filePath_; }

  /// True when the spec itself fixes the node count (an explicit n= or a
  /// complete size-parameter group, or a file) — the context size is then
  /// ignored.
  [[nodiscard]] bool sizeBound() const;

  /// Cache identity of a concrete instance: the canonical string plus the
  /// context size (when the spec doesn't pin one) and the seed (files are
  /// seed-free — their loader labels ports deterministically).  Two equal
  /// instance keys always materialize byte-identical graphs.
  [[nodiscard]] std::string instanceKey(std::uint32_t contextN,
                                        std::uint64_t seed) const;

  /// Materializes the graph.  `contextN` is the default node count for
  /// specs that don't pin their size (the experiment layer passes
  /// k * nOverK); `seed` drives generator randomness and the port labeling.
  /// `file:` specs load from disk with the loader's deterministic ports and
  /// ignore all three arguments.
  [[nodiscard]] Graph instantiate(std::uint32_t contextN, std::uint64_t seed,
                                  PortLabeling labeling) const;

  // Typed parameter access (used by family `make` callbacks).
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::uint32_t u32(const std::string& name,
                                  std::uint32_t fallback) const;
  [[nodiscard]] double real(const std::string& name, double fallback) const;

 private:
  std::string family_;
  std::string filePath_;                      // family_ == "file" only
  std::map<std::string, std::string> params_;  // sorted → canonical print
};

/// Parses and materializes in one call — the everyday entry point:
///   Graph g = makeGraph("er", 256, seed);
///   Graph h = makeGraph("grid:rows=8,cols=8", 0, seed);
[[nodiscard]] Graph makeGraph(
    const std::string& spec, std::uint32_t n, std::uint64_t seed,
    PortLabeling labeling = PortLabeling::RandomPermutation);

/// Every generator family, in table order.
[[nodiscard]] std::span<const GraphFamilyDef> graphFamilyRegistry();

/// Lookup by family key; nullptr when unknown (`file` is not in the table
/// — it is a parse special form).
[[nodiscard]] const GraphFamilyDef* findGraphFamily(std::string_view key);

/// Lookup that throws std::invalid_argument listing the known families.
[[nodiscard]] const GraphFamilyDef& graphFamilyDef(std::string_view key);

/// Canonical family keys in table order (CLI help, tests).
[[nodiscard]] std::vector<std::string> graphFamilyKeys();

}  // namespace disp
