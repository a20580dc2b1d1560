#pragma once
// Parallel execution of SweepSpecs.
//
// BatchRunner enumerates a spec's cells, constructs every distinct graph
// exactly once (immutable Graph instances are shared by const reference
// across all concurrent runs whose GraphSpec::instanceKey matches —
// `file:` graphs load once for *all* seeds; runSession builds all mutable
// state per call, see DESIGN.md §5), then executes the (cell × seed) work
// items over a std::thread pool.  Results land in preallocated slots, so
// the output is bit-identical for any worker count.
//
// Sharding (DESIGN.md §8): shardIndex/shardCount partition the canonical
// cell enumeration by index — cell i runs iff i % shardCount == shardIndex
// — so N disp_bench processes with --shard=0/N .. N-1/N cover a sweep
// disjointly and deterministically.  Skipped cells keep their key with no
// replicates (Cell::ran() == false); `disp_bench merge` recombines the
// shards' JSONL outputs.

#include <cstddef>
#include <cstdint>
#include <functional>

#include "exp/sweep.hpp"

namespace disp::exp {

struct BatchOptions {
  /// Worker threads; 0 = hardware_concurrency, 1 = run inline.
  unsigned threads = 0;
  /// Deterministic cell partition: run cell i iff i % shardCount ==
  /// shardIndex.  Default 0/1 = run everything.
  unsigned shardIndex = 0;
  unsigned shardCount = 1;
  /// When set, invoked once per cell as soon as its last replicate lands
  /// (summary already computed), in completion order — NOT canonical order.
  /// Calls are serialized under a runner-internal mutex, so the callback
  /// needs no locking of its own.  Large-k sweeps use this to stream rows
  /// to JSONL so a killed run keeps its completed cells.  Never invoked
  /// for cells outside this shard.
  std::function<void(const Cell&)> onCellDone;
  /// Memory telemetry: when true and threads == 1 (cells run one at a
  /// time, in order), the kernel peak-RSS watermark is reset right before
  /// each cell's first replicate and sampled into Cell::peakRssMb after
  /// its last — a per-cell high-water mark that still counts everything
  /// resident (shared Graph included).  Under concurrent cells the sample
  /// would be cross-cell noise, so it is skipped (peakRssMb stays 0).
  bool resetPeakRss = false;
  /// Observer plumbing: when set, invoked for every (cell, replicate)
  /// right before its run to install trace/snapshot hooks on the run's
  /// RunOptions.  Called concurrently from worker threads — both the hook
  /// and the observers it installs must be thread-safe (disp_bench's
  /// --trace sink serializes writes under its own mutex).  Observers never
  /// change run facts (DESIGN.md §7), so thread-count invariance holds.
  std::function<void(const CellKey&, std::uint64_t seed, RunOptions&)> observe;
};

/// Runs fn(0) .. fn(jobs-1), work-stealing over `threads` workers
/// (0 = hardware_concurrency).  fn must write only to per-index state.
/// The first exception thrown by any job is rethrown after all workers
/// drain.
void parallelFor(unsigned threads, std::size_t jobs,
                 const std::function<void(std::size_t)>& fn);

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {}) : options_(options) {}

  /// Executes every (cell, seed) of the spec owned by this shard; cells
  /// come back in canonical enumeration order regardless of scheduling.
  [[nodiscard]] SweepResult run(const SweepSpec& spec) const;

 private:
  BatchOptions options_;
};

}  // namespace disp::exp
