#pragma once
// Result sinks for the experiment driver.
//
// Every bench renders GitHub-markdown tables to a stream (unchanged from
// the historical binaries, byte for byte).  When a JSON-lines sink is
// attached, each printed table row is mirrored as one JSON object whose
// keys are the column headers and whose values are the rendered cell
// strings — exactly the row dictionaries scripts/record_bench_baseline.sh
// has always parsed out of the markdown, so BENCH_table1.json stays
// format-compatible.  Growth-fit lines are mirrored as {"fit": ...}.

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exp/batch_runner.hpp"
#include "util/table.hpp"

namespace disp::exp {

/// Writes one JSON object per line; values are emitted as JSON strings.
class JsonlWriter {
 public:
  explicit JsonlWriter(std::ostream& os) : os_(os) {}

  void record(const std::vector<std::pair<std::string, std::string>>& fields);

 private:
  std::ostream& os_;
};

/// Everything a bench body needs: the markdown stream, an optional JSONL
/// mirror, execution options, and the optional axis overrides (seeds,
/// graph/placement specs, k values) that the --seeds/--graphs/
/// --placements/--ks flags install.
struct BenchContext {
  std::ostream& out;
  JsonlWriter* jsonl = nullptr;
  BatchOptions batch;
  /// When non-empty, replaces each bench's historical single seed.
  std::vector<std::uint64_t> seedOverride{};
  /// When non-empty, replaces a sweep's graph axis (GraphSpec strings).
  std::vector<std::string> graphOverride{};
  /// When non-empty, replaces a sweep's placement axis (PlacementSpec strings).
  std::vector<std::string> placementOverride{};
  /// When non-empty, replaces a sweep's k axis.
  std::vector<std::uint32_t> kOverride{};
  /// When non-empty, replaces a sweep's fault axis (FaultSpec strings).
  std::vector<std::string> faultsOverride{};

  [[nodiscard]] std::vector<std::uint64_t> seedsOr(std::uint64_t fallback) const {
    return seedOverride.empty() ? std::vector<std::uint64_t>{fallback} : seedOverride;
  }
  [[nodiscard]] std::vector<std::string> graphsOr(
      std::vector<std::string> fallback) const {
    return graphOverride.empty() ? std::move(fallback) : graphOverride;
  }
  [[nodiscard]] std::vector<std::string> placementsOr(
      std::vector<std::string> fallback) const {
    return placementOverride.empty() ? std::move(fallback) : placementOverride;
  }
  [[nodiscard]] std::vector<std::uint32_t> ksOr(
      std::vector<std::uint32_t> fallback) const {
    return kOverride.empty() ? std::move(fallback) : kOverride;
  }
  [[nodiscard]] std::vector<std::string> faultsOr(
      std::vector<std::string> fallback) const {
    return faultsOverride.empty() ? std::move(fallback) : faultsOverride;
  }
  [[nodiscard]] BatchRunner runner() const { return BatchRunner(batch); }
};

/// Prints `# title` + the table to ctx.out and mirrors every row to the
/// JSONL sink (tagged with the sweep name and table title).
void emitTable(BenchContext& ctx, const std::string& sweep, const std::string& title,
               const Table& t);

/// Prints a diagnostic line (warnings, notes) and mirrors it to JSONL
/// under the given field name.
void emitNote(BenchContext& ctx, const std::string& sweep, const std::string& field,
              const std::string& line);

/// emitNote under the "fit" field, for a growth fit over the sweep's cells
/// — except in a sharded run, which writes none: a fit over one shard's
/// cells is not the sweep's fit.  Fits come only from unsharded runs.
void emitFit(BenchContext& ctx, const std::string& sweep, const std::string& line);

/// Adds the time cell for an aggregated sweep cell: the exact integer for a
/// single replicate (historical format), the mean otherwise.
void timeCell(Table& t, const Cell& c);

/// Header helper for replicated sweeps: appends `name` and, when `ci`,
/// a "name ±95" column right after it (single-seed tables stay
/// byte-identical to the historical layout by passing ci = false).
void timeHeader(std::vector<std::string>& header, const std::string& name, bool ci);

/// timeCell plus, when `ci`, the per-cell 95% confidence half-width of the
/// mean time over the non-errored replicates.
void timeCellCi(Table& t, const Cell& c, bool ci);

/// Thread-safe JSON-lines sink for run traces (disp_bench --trace).  Its
/// observe() hook matches BatchOptions::observe: each replicate gets an
/// onEvent stream plus sampled snapshot rows, every line self-describing
/// with the cell key and seed (concurrent replicates interleave by line,
/// never within one).  Schema (all values JSON strings, validated by
/// scripts/check_trace.sh):
///   {"cell", "seed", "event": move|settle|meeting|subsume|collapse|freeze|
///    oscillation_duty|fault_crash|fault_restart|fault_edge|fault_silent,
///    "t", "agent", "node", "a", "b"}
///   {"cell", "seed", "event": "sample", "t", "epochs", "settled", "moves"}
/// "-" stands for no-agent / no-node / no-label fields.
class TraceJsonl {
 public:
  /// Snapshot cadence per run: every `sampleEvery` rounds/activations.
  TraceJsonl(std::ostream& os, std::uint64_t sampleEvery)
      : writer_(os), sampleEvery_(sampleEvery) {}

  /// BatchOptions::observe-compatible hook.
  void observe(const CellKey& key, std::uint64_t seed, RunOptions& opts);

 private:
  std::mutex mutex_;
  JsonlWriter writer_;
  std::uint64_t sampleEvery_;
};

/// Plotting-friendly settled/moves trajectory sink (disp_bench
/// --trajectory): one CSV row per sampled snapshot,
///   cell,seed,t,epochs,settled,moves
/// with the header emitted on construction.  Thread-safe like TraceJsonl;
/// rows from concurrent replicates interleave but each is self-describing.
class TrajectoryCsv {
 public:
  /// Snapshot cadence per run: every `sampleEvery` rounds/activations.
  TrajectoryCsv(std::ostream& os, std::uint64_t sampleEvery);

  /// BatchOptions::observe-compatible hook.
  void observe(const CellKey& key, std::uint64_t seed, RunOptions& opts);

 private:
  std::mutex mutex_;
  std::ostream& os_;
  std::uint64_t sampleEvery_;
};

}  // namespace disp::exp
