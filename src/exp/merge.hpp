#pragma once
// The audited merge of shard JSONL outputs behind `disp_bench merge`.
//
// Rows are the self-describing dictionaries JsonlWriter emits.  Columns
// split three ways (scripts/compare_bench_baseline.sh keeps its own copy
// of the identity columns):
//
//   coordinates — the keys that identify which cell a row describes
//                 (sweep, table, family, graph, file, k, l, placement,
//                 sched, algo, faults, seed)
//   telemetry   — memory and load-time columns that may differ between
//                 two runs of one cell (load_ms, peak_rss_mb, rss_lb_mb,
//                 rss_ratio)
//   facts       — everything else: deterministic simulation results
//
// The shards of one sweep are disjoint (--shard=I/N), so every identity
// must appear once.  A repeated identity whose facts agree column for
// column is an error ("overlapping shards?"); one whose facts differ is a
// *divergence* — the run was not deterministic or a file was corrupted —
// reported with a cell-level diff.  Telemetry columns take no part in the
// comparison.  A torn or non-JSON line (a shard killed mid-write) is an
// error naming path:line: rerun that shard and merge again.
//
// Rows whose only coordinates are sweep/table (fit lines, notes) use their
// entire fact content as identity.

#include <cstdint>
#include <string>
#include <vector>

namespace disp::exp {

struct Divergence {
  std::string identity;  ///< canonical coordinate identity of the cell
  std::string column;    ///< first differing fact column
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
