#pragma once
// The audited merge of shard JSONL outputs behind `disp_bench merge`.
//
// Rows are the self-describing dictionaries JsonlWriter emits.  Columns
// split two ways (kCoordinates in merge.cpp is the one list of them):
//
//   coordinates — the keys that identify which cell a row describes
//                 (sweep, table, family, graph, file, k, l, placement,
//                 sched, algo, faults, seed)
//   facts       — everything else, compared column for column
//
// The shards of one sweep are disjoint (--shard=I/N), so every identity
// must appear once, and every repeat is an error.  A repeated row that is
// identical column for column is reported as "overlapping shards?"; any
// other repeat is a *divergence* — the run was not deterministic, a file
// was corrupted, or two runs of one cell differ in a measured column such
// as peak_rss_mb — reported with the first differing column.  A torn or
// non-JSON line is an error naming path:line, and a missing file (a shard
// that stopped early publishes none) one naming the path: rerun that shard
// and merge again.
//
// Rows whose only coordinates are sweep/table (fit lines, notes) use their
// entire fact content as identity.

#include <cstdint>
#include <string>
#include <vector>

namespace disp::exp {

struct Divergence {
  std::string identity;  ///< canonical coordinate identity of the cell
  std::string column;    ///< first differing column
  std::string valueA, valueB;
  std::string whereA, whereB;  ///< "path:line" provenance
};

struct MergeResult {
  bool ok = false;
  std::uint64_t rowsOut = 0;
  std::vector<Divergence> divergences;
  /// Non-divergence failures (unparseable lines, repeated rows, I/O),
  /// formatted "path:line: why".
  std::vector<std::string> errors;
};

/// Merges `paths` in order into `outPath`, which is written only when the
/// result is ok.  Never throws on data problems — they land in the result.
[[nodiscard]] MergeResult mergeJsonl(const std::vector<std::string>& paths,
                                     const std::string& outPath);

}  // namespace disp::exp
