#pragma once
// Named registry of experiment suites.
//
// Every former bench binary is one registered suite; `disp_bench` selects
// suites by name (`disp_bench table1_sync_rooted`).
//
// Common flags (parsed by runBenches, which rejects any other flag with
// exit code 2):
//   --threads=N      worker threads (0 = hardware concurrency, the default)
//   --seeds=a,b,c    replicate seeds overriding each suite's single
//                    historical seed; time cells become per-cell means and
//                    tables gain per-cell "±95" CI columns
//   --jsonl=PATH     mirror every table row / fit line as JSON-lines
//   --trace=PATH     stream every run's typed trace events + sampled
//                    snapshots as JSON-lines (schema in exp/sink.hpp,
//                    validated by scripts/check_trace.sh)
//   --trajectory=PATH  plotting-friendly settled/moves CSV time series
//                    (one row per sampled snapshot; exclusive with --trace)
//   --sample=N       snapshot cadence for --trace/--trajectory (default 1
//                    = every round/activation)
//   --graphs=S;S     override a suite's graph axis with ';'-separated
//                    GraphSpec strings (graph/spec.hpp grammar, e.g.
//                    'grid:rows=64,cols=64;file:roads.e')
//   --placements=S;S override the placement axis with ';'-separated
//                    PlacementSpec strings ('rooted;adversarial:far')
//   --ks=a,b,c       override the k axis (suites that take it)
//   --faults=S;S     override the fault-load axis with ';'-separated
//                    FaultSpec strings ('none;crash:rate=0.25,restart=64')
//   --shard=I/N      run only cells with index ≡ I (mod N) of each suite's
//                    deterministic enumeration; merge the JSONL shard
//                    outputs with `disp_bench merge` (exp/merge.hpp).
//                    Canonical form only: decimal I and N, no leading
//                    zeros, 0 <= I < N <= 4096
//   --stream-cells   with --jsonl: mirror every finished cell as one
//                    {"table": "cell", ...} row the moment its replicates
//                    land, so a killed run keeps its completed cells
//                    durable (suites with their own cell streams —
//                    table1_scale, scale_real — keep their richer rows)

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/sink.hpp"
#include "util/cli.hpp"

namespace disp::exp {

struct BenchDef {
  const char* name;
  const char* summary;
  void (*fn)(BenchContext&);
  /// Excluded from `disp_bench all`: must be named explicitly (multi-GB /
  /// multi-minute campaigns like scale_real).
  bool heavy = false;
  /// True when every cell the suite runs goes through BatchRunner's
  /// canonical enumeration, so --shard partitions it disjointly.
  /// Hand-rolled loops (the fig suites) are not shardable: every shard
  /// would rerun them whole, and runBenches rejects the combination.
  bool shardable = true;
};

[[nodiscard]] const std::vector<BenchDef>& benchRegistry();
[[nodiscard]] const BenchDef* findBench(const std::string& name);

/// Strict --shard=I/N parse: "I/N" with decimal digits only, no leading
/// zeros ("0" itself is fine), I < N <= 4096.  Returns {index, count};
/// throws std::invalid_argument naming --shard on any other form
/// ("01/4", "1/4/2", "1/", "I/0", spaces, signs).
[[nodiscard]] std::pair<unsigned, unsigned> parseShardFlag(const std::string& value);

/// Runs the named suites with options from `cli`; returns a process exit
/// code (diagnostics on stderr).
[[nodiscard]] int runBenches(const std::vector<std::string>& names, const Cli& cli);

}  // namespace disp::exp
