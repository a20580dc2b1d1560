#pragma once
// The fleet coordinator: manifest-driven shard dispatch over a local
// worker pool, heartbeat-by-progress supervision, bounded retry with
// exponential backoff, restart-resume from flushed JSONL rows, and the
// final collect + divergence audit (DESIGN.md §13).
//
// Role split (the proposer/acceptor/learner shape, minus consensus —
// workers are fail-stop and the manifest is the single durable authority):
//
//   coordinator  owns the manifest and the worker lifecycle
//   workers      disp_bench --shard=I/N --jsonl=… --stream-cells …
//   collector    merges attempt files, audits duplicate cells
//
// Every state transition is durable before it is acted on: the manifest is
// saved (atomic rename) before each spawn and after each exit, so a
// SIGKILL'd coordinator resumes exactly — shards with all cells already
// flushed are marked done without relaunch, everything else restarts with
// a fresh attempt whose file is separate (attempt outputs are never
// overwritten; the collector dedups equal rows and fails on divergent
// ones).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace disp::fleet {

struct FleetOptions {
  std::vector<std::string> sweeps;
  /// disp_bench pass-through flags, verbatim (recorded in the manifest;
  /// a resume must present the same list).
  std::vector<std::string> benchArgs;
  std::string fleetSpec = "local:2";
  std::string benchBinary = "disp_bench";
  /// Run directory: manifest, events, shard attempt files, merged output.
  std::string dir = ".";
  std::uint32_t shardCount = 0;
  /// Cells owned by each shard per the coordinator's --list-cells
  /// enumeration (size == shardCount).
  std::vector<std::uint64_t> shardCells;
  std::uint64_t totalCells = 0;
  /// Failed attempts per shard per coordinator run before the poison
  /// verdict (a later --resume grants a fresh budget).
  std::uint32_t maxAttempts = 3;
  /// Heartbeat-by-progress: a worker whose attempt JSONL has not grown for
  /// this long is presumed hung and SIGKILL'd (counts as a failed attempt).
  double stallTimeoutSec = 300.0;
  /// Retry backoff: base * 2^(failures-1) seconds, capped at 60s.
  double backoffBaseSec = 0.5;
  double pollIntervalSec = 0.05;
  bool resume = false;
  /// Fault-injection hook for tests/CI: SIGKILL the first running worker
  /// once its attempt file holds this many rows (0 = off).  Fires once per
  /// coordinator run.
  std::uint64_t chaosKillRows = 0;
  /// Progress narration (nullptr = quiet).
  std::ostream* log = nullptr;
};

/// Runs the campaign to completion (or poison/divergence verdict).
/// Returns 0 on success — all shards done, merged output written and
/// audit-clean — and 1 on any terminal failure.  Throws only on
/// programming/setup errors (bad options, unwritable dir).
[[nodiscard]] int runFleet(const FleetOptions& options);

/// Shard attempt artifact names, shared with tests:
/// "shard_<I>of<N>.attempt<A>.jsonl" / ".log".
[[nodiscard]] std::string shardAttemptName(std::uint32_t index, std::uint32_t count,
                                           std::uint32_t attempt, const char* ext);

inline constexpr const char* kManifestFile = "fleet_manifest.json";
inline constexpr const char* kEventsFile = "fleet_events.jsonl";
inline constexpr const char* kMergedFile = "merged.jsonl";

}  // namespace disp::fleet
