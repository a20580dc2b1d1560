#pragma once
// Collector — merges shard JSONL outputs and audits duplicates.
//
// Rows are the self-describing dictionaries JsonlWriter emits.  Columns
// split three ways (the same split scripts/compare_bench_baseline.sh
// gates on):
//
//   coordinates — the keys that identify which cell a row describes
//                 (sweep, table, family, graph, file, k, l, placement,
//                 sched, algo, faults, seed)
//   telemetry   — wallclock / throughput / memory columns that may
//                 legitimately differ between attempts (ms, Mact/s,
//                 Mmoves/s, load_ms, peak_rss_mb, rss_lb_mb, rss_ratio)
//   facts       — everything else: deterministic simulation results
//
// Two rows with the same coordinates must agree on every fact column.
// Agreement → the duplicate is dropped (DupPolicy::Dedup — retries and
// cross-shard repeats of shared rows are expected) or reported
// (DupPolicy::Error — the "overlapping shards?" contract for hand-run
// shards that must be disjoint).  Disagreement is a *divergence*: the run was not
// deterministic (or a file was corrupted) and the merge fails loudly with
// a cell-level diff either way.
//
// Rows whose only coordinates are sweep/table (fit lines, notes) use their
// entire fact content as identity: they are shard-local diagnostics, never
// cross-attempt comparable beyond exact equality.

#include <cstdint>
#include <string>
#include <vector>

namespace disp::fleet {

enum class DupPolicy { Error, Dedup };

struct MergeInput {
  std::string path;
  /// Attempt files from SIGKILL'd workers may end mid-line; when set, an
  /// unparseable *final* line is dropped (counted) instead of failing.
  bool allowPartialTail = false;
};

struct Divergence {
  std::string identity;  ///< canonical coordinate identity of the cell
  std::string column;    ///< first differing fact column
  std::string valueA, valueB;
  std::string whereA, whereB;  ///< "path:line" provenance
};

struct MergeResult {
  bool ok = false;
  std::uint64_t rowsIn = 0;
  std::uint64_t rowsOut = 0;
  std::uint64_t dupsDropped = 0;
  std::uint64_t partialTails = 0;
  std::vector<Divergence> divergences;
  /// Non-divergence failures (unparseable lines, duplicate-under-Error,
  /// I/O), formatted "path:line: why".
  std::vector<std::string> errors;
};

/// Merges `inputs` in order into `outPath` (written only when the result
/// is ok).  Never throws on data problems — they land in the result.
[[nodiscard]] MergeResult mergeJsonl(const std::vector<MergeInput>& inputs,
                                     DupPolicy policy, const std::string& outPath);

/// Distinct cell identities among {"table": "cell"} rows across `paths` —
/// the resume scan: how many of a shard's cells already have durable rows.
/// Unreadable files and unparseable lines count as zero rows, not errors.
[[nodiscard]] std::uint64_t countDistinctCellRows(const std::vector<std::string>& paths);

/// True iff `column` is telemetry (exempt from the fact comparison).
[[nodiscard]] bool isTelemetryColumn(const std::string& column);

}  // namespace disp::fleet
