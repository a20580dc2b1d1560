#pragma once
// Declarative experiment sweeps.
//
// A SweepSpec names a cross-product of experiment axes — graph workload
// specs × agent counts k × placement specs × ASYNC schedulers × algorithms
// — plus a list of replicate seeds.  The graph and placement axes are
// *spec strings* (graph/spec.hpp, algo/placement.hpp): legacy family names
// ("er") and cluster counts stay valid as aliases, and any parseable
// workload — parameterized generators, `file:PATH` graphs, adversarial
// placements — drops into the same cross-product.  Each point of the
// cross-product is a *cell*; each cell is simulated once per seed (the
// seed drives graph construction, placement and the run itself).  Every
// generated graph gets the seeded random port labeling
// (PortLabeling::RandomPermutation).
// BatchRunner (batch_runner.hpp) executes a spec over a thread pool,
// sharing each immutable Graph across every run with an equal
// GraphSpec::instanceKey, and aggregates replicates per cell.
//
// Scale knob: DISP_BENCH_SCALE ∈ {0.5, 1, 2, 4} scales kSweep() the same
// way it always scaled the hand-rolled bench loops.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/runner.hpp"
#include "graph/spec.hpp"
#include "util/stats.hpp"

namespace disp::exp {

/// DISP_BENCH_SCALE as a validated positive factor (1.0 when unset).
/// Throws std::invalid_argument on a malformed or non-positive value — a
/// silent atof-style 0.0 would collapse every kSweep to the minimum.
[[nodiscard]] inline double scale() {
  const char* s = std::getenv("DISP_BENCH_SCALE");
  if (s == nullptr || *s == '\0') return 1.0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
    throw std::invalid_argument("DISP_BENCH_SCALE='" + std::string(s) +
                                "' is not a positive number");
  }
  return v;
}

/// k values 2^lo .. 2^hi scaled by DISP_BENCH_SCALE (minimum 8).
[[nodiscard]] std::vector<std::uint32_t> kSweep(std::uint32_t lo = 5,
                                                std::uint32_t hi = 9);

/// One simulation point: every input runSession needs, from one seed.
struct CaseSpec {
  std::string graph = "er";  ///< GraphSpec string (graph/spec.hpp)
  std::uint32_t k = 0;
  std::string algorithm = "rooted_sync";  ///< registry key (algo/registry.hpp)
  std::string placement = "rooted";  ///< PlacementSpec string (algo/placement.hpp)
  std::string scheduler = "round_robin";
  std::uint64_t seed = 17;  ///< drives graph, placement and run
  double nOverK = 2.0;  ///< default sizing n = k * nOverK for size-unbound specs
  std::uint64_t limit = 0;  ///< round/activation cap; 0 = auto (RunOptions)
  /// Fault load (FaultSpec string, core/faults.hpp; "none" = fault-free).
  std::string faults = "none";
  /// Observer plumbing: when set, invoked on the run's RunOptions right
  /// before runSession, to attach onEvent/onRound/... hooks (BatchRunner
  /// binds its BatchOptions::observe hook here per replicate).
  std::function<void(RunOptions&)> observe{};
};

/// Outcome of one simulated case plus the graph's vital statistics.
struct RunRecord {
  RunResult run;
  std::uint32_t n = 0;
  std::uint32_t maxDegree = 0;
  std::uint64_t edges = 0;
  /// Non-empty when the run threw (limit hit — protocol bug or too-small
  /// cap).  BatchRunner records the error instead of aborting the sweep;
  /// errored replicates count as undispersed and are excluded from `time`.
  std::string error;
};

/// Builds the case's graph and placement and runs it once.
[[nodiscard]] RunRecord runCell(const CaseSpec& c);

/// Same, against a prebuilt graph (must equal the case's GraphSpec
/// instance for its k/nOverK/seed — BatchRunner uses this to share graphs).
[[nodiscard]] RunRecord runCell(const Graph& g, const CaseSpec& c);

/// The cross-product of experiment axes.  Every vector axis must be
/// non-empty; `seeds` are the replicates aggregated per cell.
struct SweepSpec {
  std::string name;  ///< registry / JSONL identifier
  std::vector<std::string> graphs;  ///< GraphSpec strings
  std::vector<std::uint32_t> ks;
  std::vector<std::string> algorithms;  ///< registry keys
  std::vector<std::string> placements{"rooted"};  ///< PlacementSpec strings
  std::vector<std::string> schedulers{"round_robin"};
  /// Fault-load axis (FaultSpec strings, core/faults.hpp).  Defaults to the
  /// single fault-free load, so existing sweeps are unchanged.
  std::vector<std::string> faults{"none"};
  std::vector<std::uint64_t> seeds{17};
  double nOverK = 2.0;
  std::uint64_t limit = 0;  ///< per-run round/activation cap; 0 = auto
  /// Multiplies the k axis at enumeration time (each k clamped to >= 8,
  /// duplicates dropped).  1.0 = run `ks` as written.  Sweeps whose ks are
  /// spelled out literally (e.g. table1_scale's 2^10..2^14) set this from
  /// scale() so DISP_BENCH_SCALE still shrinks or grows them; sweeps built
  /// via kSweep() already folded the env scale into `ks` and keep 1.0.
  double scale = 1.0;

  /// The k axis after applying `scale`.
  [[nodiscard]] std::vector<std::uint32_t> scaledKs() const;

  [[nodiscard]] std::size_t cellCount() const {
    return graphs.size() * scaledKs().size() * algorithms.size() *
           placements.size() * schedulers.size() * faults.size();
  }
};

/// Coordinates of one cell inside a sweep (the seed axis is aggregated).
/// enumerateCells stores the canonical spec strings; SweepResult::at
/// canonicalizes its probe, so lookups may use any equivalent spelling.
struct CellKey {
  std::string graph;
  std::uint32_t k = 0;
  std::string placement = "rooted";
  std::string scheduler = "round_robin";
  std::string algorithm = "rooted_sync";  ///< registry key
  /// FaultSpec string; last so historical five-field brace inits stay valid.
  std::string faults = "none";

  [[nodiscard]] bool operator==(const CellKey&) const = default;
  [[nodiscard]] std::string describe() const;
};

/// One aggregated cell: replicate runs (index-parallel with spec.seeds)
/// plus summary statistics over the time metric.  A cell outside this
/// process's shard (BatchOptions::shardIndex/shardCount) keeps its key but
/// has no replicates: ran() == false.
struct Cell {
  CellKey key;
  std::vector<RunRecord> replicates;
  Summary time;  ///< rounds (SYNC) / epochs (ASYNC) over non-errored replicates
  /// Process peak RSS (MiB) sampled when the cell's last replicate landed,
  /// with the kernel watermark reset before its first.  0 unless requested
  /// (BatchOptions::resetPeakRss) and attributable (serial cells).
  double peakRssMb = 0.0;

  /// False for cells skipped by sharding (no replicates executed here).
  [[nodiscard]] bool ran() const { return !replicates.empty(); }
  [[nodiscard]] const RunRecord& first() const {
    DISP_CHECK(!replicates.empty(), "cell " + key.describe() + " did not run");
    return replicates.front();
  }
  [[nodiscard]] bool allDispersed() const;
  /// Mean time over replicates (the single value for single-seed sweeps).
  [[nodiscard]] double meanTime() const { return time.mean; }
  /// Memory high-water mark across replicates (the claim is a worst case).
  [[nodiscard]] std::uint64_t maxMemoryBits() const;
};

/// Result of executing a SweepSpec: cells in deterministic enumeration
/// order (graph ▸ k ▸ placement ▸ scheduler ▸ algorithm ▸ faults, each axis
/// in spec order) — independent of thread count.
struct SweepResult {
  SweepSpec spec;
  std::vector<Cell> cells;

  /// Cell lookup (spec strings canonicalized first); throws
  /// std::out_of_range naming the missing key.
  [[nodiscard]] const Cell& at(const CellKey& key) const;
};

/// Enumerates the cell keys of a spec in canonical order, validating every
/// axis (graph/placement specs parsed, algorithm keys resolved).
[[nodiscard]] std::vector<CellKey> enumerateCells(const SweepSpec& spec);

/// 95% confidence-interval half-width of the mean (normal approximation);
/// 0 for fewer than two samples.
[[nodiscard]] double ci95(const Summary& s);

/// The "fit[label]: ..." growth-diagnosis line benches print under each
/// table (Table-1 model check: exponent of time ~ k^p plus flat-ratio
/// columns).
[[nodiscard]] std::string growthDiagnosisLine(const std::string& label,
                                              const std::vector<double>& ks,
                                              const std::vector<double>& times);

}  // namespace disp::exp
