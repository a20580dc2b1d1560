#pragma once
// Observable run sessions over every dispersion algorithm in the library.
// This is the public API examples, benches and the exp/ driver use:
//
//   Graph g = makeGraph("er", 256, seed);
//   Placement p = rootedPlacement(g, 128, 0, seed);
//   RunOptions opts;
//   opts.algorithm = "rooted_sync";          // registry key (algo/registry.hpp)
//   opts.onEvent = [](const TraceEvent& e) { ... };   // typed trace stream
//   opts.captureTrajectory = true;           // settled/moves time series
//   RunResult r = runSession(g, p, opts);
//
// Algorithms are resolved by name through the string-keyed registry
// (algo/registry.hpp); `disp_bench --list` and algorithmKeys() enumerate
// them.  Paper mapping of the six built-ins:
//   rooted_sync   — RootedSyncDisp, Theorem 6.1 (O(k) rounds).  For k < 7
//                   the seeker machinery is vacuous; falls back to ks_sync
//                   (documented in DESIGN.md §4.5).
//   rooted_async  — RootedAsyncDisp, Theorem 7.1 (O(k log k) epochs).
//   general_sync  — §8.1-style multi-source dispersion with KS subsumption
//                   (doubling growing phase; with ℓ=1 this is the Sudo-style
//                   O(k log k) baseline of Table 1).
//   general_async — Theorem 8.2: the RootedAsyncDisp growing phase composed
//                   with KS subsumption, collapse walks and squatting, in
//                   the ASYNC model (O(k log k) epochs).
//   ks_sync/ks_async — the O(min{m, kΔ}) group-DFS baseline (Table 1 rows
//                   [24]); both require rooted placements.
//
// Observability (DESIGN.md §7): RunOptions carries optional observer hooks
// — an onEvent stream of typed TraceEvents (Move, Settle, Meeting, Subsume,
// Collapse, Freeze, OscillationDuty), sampled onRound/onActivation
// snapshots with settled counts and a positions view, an early-stop
// predicate, and a captured trajectory on RunResult.  Observers never
// perturb the run: an observed session reports facts identical to the
// unobserved one at the same seed, and the zero-observer path is the exact
// pre-observer hot path.
//
// RunOptions is an aggregate, so a one-off run can name only what it sets:
//   runSession(g, p, {.algorithm = "rooted_async", .scheduler = "uniform", .seed = 7});

#include <cstdint>
#include <functional>
#include <string>

#include "algo/placement.hpp"
#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "graph/graph.hpp"

namespace disp {

/// Everything a run session needs: the algorithm (registry key or display
/// name), model knobs, and the optional observer hooks.
struct RunOptions {
  std::string algorithm = "rooted_sync";
  /// ASYNC only: round_robin | shuffled | uniform | weighted[:SKEW[:SLOW]].
  std::string scheduler = "round_robin";
  std::uint64_t seed = 1;
  /// Safety cap on rounds (SYNC) / activations (ASYNC); 0 = auto.
  std::uint64_t limit = 0;
  /// Threads per run: fixed at 1 (every run executes on the calling
  /// thread; sweeps parallelize across runs instead).  runSession rejects
  /// any other value.  Kept so callers that pin it explicitly still build.
  unsigned runThreads = 1;
  /// Fault load (core/faults.hpp grammar; DESIGN.md §11): "none", or e.g.
  /// "crash:rate=0.25,restart=64", "churn:edges=4,every=32",
  /// "silent:count=2".  The schedule is materialized from this spec, the
  /// instance (graph, k) and `seed`, so it is deterministic.  Under a
  /// fault load the run cannot hard-fail: the round/activation cap becomes
  /// RunResult::limitHit, a protocol invariant violation becomes
  /// RunResult::protocolError, and RunResult::recovered/recoveredAt score
  /// self-stabilization.
  std::string faults = "none";

  // --- observability (all optional; see core/trace.hpp) ---
  // Every field has a default member initializer, so designated
  // initializers that skip the hooks stay clean under -Wextra.
  /// Typed trace-event stream, emitted by the engine and the protocol.
  std::function<void(const TraceEvent&)> onEvent{};
  /// Sampled snapshots: onRound fires for SYNC algorithms, onActivation
  /// for ASYNC ones (every sampleEvery rounds/activations, plus a final
  /// off-cadence snapshot at run end).
  std::function<void(const StepSnapshot&)> onRound{};
  std::function<void(const StepSnapshot&)> onActivation{};
  /// Snapshot / trajectory cadence; 1 = every round/activation.
  std::uint64_t sampleEvery = 1;
  /// Early-stop predicate, checked at the sampling cadence: return true to
  /// end the run; RunResult::stoppedEarly reports the truncation.
  std::function<bool(const StepSnapshot&)> stopWhen{};
  /// Capture a {time, settled, totalMoves} series at the sampling cadence
  /// into RunResult::trajectory.
  bool captureTrajectory = false;
};

/// Runs the named algorithm as an observable session and reports the
/// outcome.  Throws std::invalid_argument on an unknown algorithm or a
/// spec/placement mismatch and std::runtime_error if the limit is hit
/// (protocol bug or too-small cap).
///
/// Thread safety: every piece of mutable state (engine, fibers, scheduler,
/// memory ledger, Rngs) is constructed per call, and Graph is immutable
/// after build, so concurrent calls — including on a shared Graph — are
/// safe and deterministic per seed (the exp/ BatchRunner relies on this;
/// see DESIGN.md §5).  Observer hooks are invoked on the calling thread.
[[nodiscard]] RunResult runSession(const Graph& g, const Placement& placement,
                                   const RunOptions& opts);

// ------------------------------------------------------------ scenario API

/// One-call scenario runner over the parsed spec grammar (DESIGN.md §8):
///
///   RunResult r = runScenario("grid:rows=16,cols=16", "adversarial:far",
///                             /*k=*/128, opts);
///
/// `graphSpec` is a GraphSpec string (graph/spec.hpp: legacy family
/// aliases, parameterized families, or file:PATH); `placementSpec` a
/// PlacementSpec string (algo/placement.hpp).  `n` sizes graph specs that
/// don't pin their own node count; 0 applies the Table 1 default n = 2k.
/// The run seed (opts.seed) also drives graph construction and placement,
/// exactly like the experiment driver's per-replicate seeds.
[[nodiscard]] RunResult runScenario(const std::string& graphSpec,
                                    const std::string& placementSpec,
                                    std::uint32_t k, const RunOptions& opts = {},
                                    std::uint32_t n = 0);

}  // namespace disp
