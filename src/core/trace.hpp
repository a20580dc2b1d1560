#pragma once
// Typed trace events and observer hooks for run sessions.
//
// A run session (algo/runner.hpp::runSession) can attach an EngineObserver
// to either engine.  The observer sees
//  * a stream of TraceEvent records — the protocol-level facts (moves,
//    settles, meetings, subsumption cascades, oscillation duty churn) that
//    the paper's trajectory claims are about — emitted by the engines and
//    by every protocol as the run unfolds, and
//  * periodic StepSnapshot records (every `sampleEvery` rounds in SYNC /
//    activations in ASYNC) carrying the settled count, the move total and a
//    positions view, with an optional early-stop predicate.
//
// Determinism contract (tested in tests/trace_test.cpp): observers are
// strictly read-only taps.  Emission points never branch protocol control
// flow, touch an Rng, or reorder fibers, so a run with any combination of
// observers and any sampling cadence reports byte-identical facts
// (dispersed/time/activations/moves/memory/positions) to the unobserved
// run at the same seed — and the zero-observer path stays on the exact
// pre-observer hot path.

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/world.hpp"
#include "graph/graph.hpp"

namespace disp {

/// Protocol-level event taxonomy (DESIGN.md §7 documents each emitter).
enum class TraceEventKind : std::uint8_t {
  /// An agent traversed an edge.  node = destination, a = source node,
  /// b = port taken.  SYNC: emitted at round commit; ASYNC: at the move.
  Move,
  /// An agent settled at `node`.  a = group/tree label (kNoTraceLabel for
  /// single-tree protocols).
  Settle,
  /// Two DFS trees detected each other (general protocols).  node = where,
  /// agent = detecting group's leader, a = detecting label, b = met label.
  Meeting,
  /// A subsumption was decided.  a = winner label, b = loser label,
  /// agent = winner's leader, node = meeting node.
  Subsume,
  /// A settled agent was unsettled/collected (loser-tree collapse walk,
  /// Backtrack_Move leaf trim).  node = where it sat, a = its old label,
  /// b = collecting label (kNoTraceLabel when not a subsumption).
  Collapse,
  /// A group was frozen at a safe point pending collapse.  a = frozen
  /// label, b = winner label, agent = frozen group's leader.
  Freeze,
  /// Oscillation coverage duty changed (§5.2 settlers).  agent = the
  /// oscillator, node = its home, a = 1 gained / 0 dropped, b = stop count.
  OscillationDuty,
  /// Fault injection (core/faults.hpp, DESIGN.md §11).  An agent
  /// crash-stopped: node = where it sits, a = b = kNoTraceLabel.
  FaultCrash,
  /// A crashed agent restarted in place.  node = where it sits.
  FaultRestart,
  /// Edge churn state change.  agent = kNoAgent, node = smaller endpoint,
  /// a = larger endpoint, b = 1 edge went down / 0 edge came back up.
  FaultEdge,
  /// An agent was marked byzantine-silent at t = 0 (present but inert).
  /// node = its start node, a = b = kNoTraceLabel.
  FaultSilent,
};

/// Label value for events outside any multi-tree context.
inline constexpr std::uint32_t kNoTraceLabel = static_cast<std::uint32_t>(-1);

/// Stable lowercase identifier ("move", "settle", ...): the kind's one
/// spelling, which the JSONL trace stream writes and `disp_bench check`
/// reads back (exp/sink.hpp).  "?" for a value outside the enum.
[[nodiscard]] const char* traceEventKindName(TraceEventKind k);

/// The kind whose traceEventKindName is `name`; nullopt for any other string.
[[nodiscard]] std::optional<TraceEventKind> traceEventKindFromName(std::string_view name);

/// One trace record.  `time` is rounds committed so far (SYNC) or
/// activations completed so far (ASYNC) at emission; events within one run
/// are emitted in non-decreasing `time` order.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::Move;
  std::uint64_t time = 0;
  AgentIx agent = kNoAgent;
  NodeId node = kInvalidNode;
  std::uint32_t a = 0;  ///< kind-specific, see TraceEventKind
  std::uint32_t b = 0;  ///< kind-specific, see TraceEventKind
};

/// Periodic run snapshot handed to onStep / stopWhen.  `positions` points
/// at engine-owned storage and is only valid during the callback.
struct StepSnapshot {
  std::uint64_t time = 0;    ///< rounds (SYNC) / activations (ASYNC)
  std::uint64_t epochs = 0;  ///< ASYNC: completed epochs; SYNC: == time
  std::uint32_t settled = 0;
  std::uint64_t totalMoves = 0;
  const std::vector<NodeId>* positions = nullptr;  ///< per agent index
};

/// Observer bundle installed on an engine before run().  Any subset of the
/// hooks may be set; all-empty behaves exactly like no observer.
struct EngineObserver {
  /// Typed event stream (Move/Settle/Meeting/...).
  std::function<void(const TraceEvent&)> onEvent;
  /// Sampled snapshots: every `sampleEvery` rounds (SYNC) / activations
  /// (ASYNC), plus one final snapshot when the run ends off-cadence.
  std::function<void(const StepSnapshot&)> onStep;
  /// Early-stop predicate, checked at the same cadence as onStep (after
  /// it).  Returning true ends the run at the next step boundary; the
  /// session reports the partial facts with RunResult::stoppedEarly set.
  std::function<bool(const StepSnapshot&)> stopWhen;
  /// Snapshot cadence; 1 = every round/activation.  Must be >= 1.
  std::uint64_t sampleEvery = 1;

  [[nodiscard]] bool any() const {
    return onEvent != nullptr || onStep != nullptr || stopWhen != nullptr;
  }
};

/// Shared observer state machine embedded in both engines: settled-count
/// bookkeeping, event emission, cadence-gated snapshot delivery with the
/// early-stop check, and the close-the-series epilogue.  The engine owns
/// time (rounds vs activations) and the positions fill; everything else
/// lives here once so a fix never needs applying twice.
class TraceHost {
 public:
  /// Installs the observer (validates the cadence).
  void install(EngineObserver observer) {
    if (observer.sampleEvery < 1) {
      throw std::invalid_argument("observer sampleEvery must be >= 1");
    }
    observer_ = std::move(observer);
    observing_ = observer_.any();
    traceEvents_ = observer_.onEvent != nullptr;
  }

  [[nodiscard]] bool observing() const noexcept { return observing_; }
  [[nodiscard]] bool tracing() const noexcept { return traceEvents_; }
  [[nodiscard]] std::uint32_t settledCount() const noexcept { return settled_; }
  [[nodiscard]] bool stopRequested() const noexcept { return stopRequested_; }
  void requestStop() noexcept { stopRequested_ = true; }

  void emit(const TraceEvent& e) {
    if (traceEvents_) observer_.onEvent(e);
  }
  void settle(std::uint64_t time, AgentIx a, NodeId node, std::uint32_t label) {
    ++settled_;
    if (traceEvents_) {
      observer_.onEvent({TraceEventKind::Settle, time, a, node, label, 0});
    }
  }
  void unsettle(std::uint64_t time, AgentIx a, NodeId node, std::uint32_t oldLabel,
                std::uint32_t byLabel) {
    if (settled_ == 0) {
      throw std::logic_error("traceUnsettle without a matching traceSettle");
    }
    --settled_;
    if (traceEvents_) {
      observer_.onEvent({TraceEventKind::Collapse, time, a, node, oldLabel, byLabel});
    }
  }

  /// Cadence-gated snapshot: delivers onStep and evaluates stopWhen when
  /// `time` is a sampling point.  `fill(positions)` materializes the
  /// positions view (invoked only when a snapshot is actually delivered;
  /// the vector arrives pre-sized to `agents`).  Returns the stopWhen
  /// verdict (false off-cadence).
  template <typename Fill>
  [[nodiscard]] bool sampleAtCadence(std::uint64_t time, std::uint64_t epochs,
                                     std::uint64_t moves, std::uint32_t agents,
                                     Fill&& fill) {
    if (!observing_) return false;
    if (observer_.sampleEvery > 1 && (time % observer_.sampleEvery) != 0) return false;
    if (!observer_.onStep && !observer_.stopWhen) return false;
    return deliver(time, epochs, moves, agents, fill);
  }

  /// Close-the-series epilogue: the run may end off-cadence, and final
  /// settles can land after the last commit — deliver one terminal
  /// snapshot unless the latest delivered one already matches.
  template <typename Fill>
  void closeSeries(std::uint64_t time, std::uint64_t epochs, std::uint64_t moves,
                   std::uint32_t agents, Fill&& fill) {
    if (!observing_ || !observer_.onStep) return;
    if (lastTime_ == time && lastSettled_ == settled_ && lastMoves_ == moves) return;
    (void)deliver(time, epochs, moves, agents, fill);
  }

 private:
  template <typename Fill>
  bool deliver(std::uint64_t time, std::uint64_t epochs, std::uint64_t moves,
               std::uint32_t agents, Fill&& fill) {
    scratch_.resize(agents);
    fill(scratch_);
    const StepSnapshot snap{time, epochs, settled_, moves, &scratch_};
    lastTime_ = time;
    lastSettled_ = settled_;
    lastMoves_ = moves;
    if (observer_.onStep) observer_.onStep(snap);
    return observer_.stopWhen && observer_.stopWhen(snap);
  }

  EngineObserver observer_;
  bool observing_ = false;
  bool traceEvents_ = false;
  bool stopRequested_ = false;
  std::uint32_t settled_ = 0;
  std::vector<NodeId> scratch_;  ///< positions view storage
  std::uint64_t lastTime_ = ~0ULL;
  std::uint32_t lastSettled_ = 0;
  std::uint64_t lastMoves_ = 0;
};

}  // namespace disp
