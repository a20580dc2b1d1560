#pragma once
// Graph file I/O.  Two readable formats, one writable:
//
//  * plain edge lists — one `u v` pair per line, `#`/`%` comments and blank
//    lines ignored; node ids are arbitrary non-negative integers, remapped
//    to 0..n-1 in sorted-id order.
//
//  * Graphalytics `.v`/`.e` pairs — the `.v` file lists one vertex id per
//    line (extra value columns ignored), the `.e` file one `src dst
//    [weight]` edge per line; ids map to their `.v` line order.
//
// Neither format stores ports.  A loaded graph gets a *deterministic*
// labeling: edges are sorted by remapped endpoints and ports assigned in
// insertion order, so the same file always materializes the identical
// port-labeled graph (the `file:` GraphSpec relies on this for
// replayability).  A generated graph needs no archive: its spec string and
// seed rebuild it byte for byte (GraphSpec::instanceKey).
//
// Every parse error reports the source name and 1-based line number
// ("path:line: what"); duplicate edges, self-loops and unknown or
// non-numeric ids are all rejected.  Loaded graphs must be connected (the
// paper's model assumes it).

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace disp {

/// Reads a plain edge list (see file header).  `source` names the stream
/// in errors.
[[nodiscard]] Graph readEdgeList(std::istream& is,
                                 const std::string& source = "<stream>");

/// Reads a Graphalytics vertex/edge file pair.
[[nodiscard]] Graph readGraphalytics(std::istream& vs, std::istream& es,
                                     const std::string& vSource = "<v-stream>",
                                     const std::string& eSource = "<e-stream>");

/// Writes `base.v` (ids 0..n-1, one per line) and `base.e` (one `u v` per
/// undirected edge) — the Graphalytics pair the readers above consume.
/// Ports are not stored; reloading applies the deterministic labeling.
void writeGraphalytics(const std::string& basePath, const Graph& g);

/// Accepts `base`, `base.v` or `base.e`; loads the `.v`/`.e` pair.
[[nodiscard]] Graph loadGraphalytics(const std::string& path);

/// The `file:` GraphSpec entry point: a `.v`/`.e` extension selects the
/// Graphalytics pair, anything else parses as a plain edge list.
[[nodiscard]] Graph loadAnyGraph(const std::string& path);

}  // namespace disp
