#pragma once
// Fault injection as a first-class scenario axis (DESIGN.md §11).
//
// FaultSpec is the parsed, printable fault-load grammar — the third spec
// axis next to GraphSpec and PlacementSpec:
//
//   none                          failure-free (the default; zero overhead)
//   crash:rate=R                  each agent independently crash-stops with
//                                 probability R at a uniform time in the
//                                 crash window (never acts again)
//   crash:rate=R,restart=T        ... and restarts T time units later
//                                 (crash-restart: its program resumes where
//                                 it stopped, its position unchanged)
//   crash:rate=R,window=W         explicit crash window (default ~2k)
//   churn:edges=E,every=T         edge churn: every T time units a fresh
//                                 set of E edges goes down (the previous
//                                 set comes back up); after `count` events
//                                 (default 8) all edges are restored, so
//                                 the final graph equals the input graph
//   churn:edges=E,every=T,count=N explicit churn-event count
//   silent:count=C                C byzantine-silent agents: physically
//                                 present (they occupy their start node and
//                                 are seen by co-located agents) but never
//                                 execute a step, from t = 0
//
// Times are "rounds-equivalent": in the SYNC model one unit is one round;
// in the ASYNC model the injector scales every time parameter by k, so one
// unit is k activations — roughly one scheduler pass.  parse(toString())
// round-trips; parameters print in canonical sorted order.
//
// FaultInjector materializes one seed-deterministic schedule per run (all
// randomness drawn up front from the run seed — independent of scheduler
// state and observer presence) and answers the engines' boundary
// queries: who is crashed, which edges are down, and — for the
// self-stabilization verdict — whether the configuration re-dispersed
// after the last injected fault and stayed dispersed to run end.
//
// Determinism contract: the schedule is a pure function of (spec, graph,
// k, seed, model) and the engines consult it only at round/activation
// boundaries, so a fault run reports the same facts every time it is
// repeated.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "core/world.hpp"
#include "graph/graph.hpp"

namespace disp {

/// A parsed fault-load spec (see file header for the grammar).
class FaultSpec {
 public:
  enum class Kind { None, Crash, Churn, Silent };

  /// Throws std::invalid_argument on an unknown kind, a missing required
  /// parameter, a duplicate, or an out-of-range value.
  [[nodiscard]] static FaultSpec parse(const std::string& text);

  /// Canonical form (parameters in sorted key order, values normalized);
  /// parse(toString()) round-trips.
  [[nodiscard]] std::string toString() const;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool any() const noexcept { return kind_ != Kind::None; }

  // --- typed parameters (valid for the matching kind) ---
  /// Crash: per-agent crash probability, in (0, 1].
  [[nodiscard]] double rate() const noexcept { return rate_; }
  /// Crash: restart delay in time units; 0 = crash-stop (no restart).
  [[nodiscard]] std::uint64_t restart() const noexcept { return restart_; }
  /// Crash: crash-window length in time units; 0 = auto (2k + 16).
  [[nodiscard]] std::uint64_t window() const noexcept { return window_; }
  /// Churn: edges taken down per churn event.
  [[nodiscard]] std::uint32_t edges() const noexcept { return edges_; }
  /// Churn: cadence between churn events, in time units.
  [[nodiscard]] std::uint64_t every() const noexcept { return every_; }
  /// Churn: total churn events (the last one restores every edge).
  /// Silent: number of byzantine-silent agents.
  [[nodiscard]] std::uint32_t count() const noexcept { return count_; }

  [[nodiscard]] bool operator==(const FaultSpec&) const = default;

 private:
  Kind kind_ = Kind::None;
  std::map<std::string, std::string> params_;  ///< as given, normalized
  double rate_ = 0.0;
  std::uint64_t restart_ = 0;
  std::uint64_t window_ = 0;
  std::uint32_t edges_ = 0;
  std::uint64_t every_ = 0;
  std::uint32_t count_ = 0;
};

/// One materialized fault-schedule entry (exposed for determinism tests).
struct FaultEvent {
  enum class Type : std::uint8_t { Silent, Crash, Restart, ChurnSet };
  Type type = Type::Crash;
  std::uint64_t time = 0;       ///< rounds (SYNC) / activations (ASYNC)
  AgentIx agent = kNoAgent;     ///< Silent / Crash / Restart
  std::uint32_t churnIndex = 0; ///< ChurnSet: which down-set takes effect

  [[nodiscard]] bool operator==(const FaultEvent&) const = default;
};

/// Per-run fault machinery: the materialized schedule plus the engines'
/// boundary queries and the self-stabilization bookkeeping.  Non-owning
/// references only; one injector per run, installed on the engine before
/// run() (algo/runner.cpp owns the lifecycle).
class FaultInjector {
 public:
  /// Materializes the full schedule up front.  `async` selects the time
  /// scale (ASYNC time parameters are multiplied by k so spec units stay
  /// rounds-equivalent).  Seed-deterministic: same inputs, same schedule.
  FaultInjector(const FaultSpec& spec, const Graph& g, std::uint32_t k,
                std::uint64_t seed, bool async);

  // --- engine consultation (boundary calls) ---
  /// Applies every scheduled event with time <= now, emitting the fault
  /// trace events (fault_crash/fault_restart/fault_edge/fault_silent)
  /// stamped `now` through `trace`.
  void advanceTo(std::uint64_t now, const World& world, TraceHost& trace);
  /// True while agent `a` is crashed (or byzantine-silent): its staged
  /// moves are dropped (SYNC) / its fiber is not resumed (ASYNC).
  [[nodiscard]] bool crashed(AgentIx a) const { return crashed_[a] != 0; }
  /// True iff any edge is currently down (guards the per-move edgeDown
  /// lookup so churn-free runs skip it entirely).
  [[nodiscard]] bool edgeFaultsActive() const noexcept { return !down_.empty(); }
  /// True iff the (undirected) edge {u, v} is currently down.
  [[nodiscard]] bool edgeDown(NodeId u, NodeId v) const;

  // --- self-stabilization bookkeeping ---
  /// Seeds the excess-collision counter from the starting configuration;
  /// call once at run start, before any move.
  void initConfig(const World& world);
  /// Records one applied move given the *pre-move* occupant counts of its
  /// endpoints (O(1) incremental excess maintenance; the engines call this
  /// right before World::applyMove/applyMoveStaged).
  void noteMove(std::uint32_t fromCountBefore, std::uint32_t toCountBefore) {
    if (fromCountBefore >= 2) --excess_;
    if (toCountBefore >= 1) ++excess_;
  }
  /// Boundary check: extends or resets the "continuously dispersed since"
  /// watermark.  Call after every committed round / activation.
  void noteConfig(std::uint64_t now) {
    if (excess_ != 0) {
      dispersedSince_ = kNever;
    } else if (dispersedSince_ == kNever) {
      dispersedSince_ = now;
    }
  }

  // --- verdict (valid after the run) ---
  /// True iff the configuration is dispersed at run end and stayed
  /// dispersed continuously from recoveredAt() on — i.e. the protocol
  /// settled and remained stable after the last injected fault.
  [[nodiscard]] bool recovered() const noexcept { return dispersedSince_ != kNever; }
  /// Earliest time from which the configuration was continuously dispersed
  /// through run end, clamped to the last applied fault (0 if !recovered()).
  [[nodiscard]] std::uint64_t recoveredAt() const noexcept {
    if (!recovered()) return 0;
    return dispersedSince_ > lastAppliedTime_ ? dispersedSince_ : lastAppliedTime_;
  }
  /// Time of the last fault event actually applied (0 if none fired).
  [[nodiscard]] std::uint64_t lastFaultTime() const noexcept {
    return lastAppliedTime_;
  }
  /// Number of schedule entries applied so far.
  [[nodiscard]] std::uint64_t applied() const noexcept { return applied_; }

  /// The full materialized schedule, time-sorted (determinism tests).
  [[nodiscard]] const std::vector<FaultEvent>& schedule() const noexcept {
    return schedule_;
  }
  /// The down-edge set of churn event i, as canonical (min<<32|max) keys.
  [[nodiscard]] const std::vector<std::uint64_t>& churnSet(std::uint32_t i) const {
    return downSets_.at(i);
  }

 private:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  std::vector<FaultEvent> schedule_;  ///< sorted by (time, type, agent)
  std::size_t cursor_ = 0;            ///< first unapplied schedule entry
  std::vector<std::uint8_t> crashed_; ///< per agent; restarts clear it
  /// Per churn event: the sorted canonical edge keys that go down.
  std::vector<std::vector<std::uint64_t>> downSets_;
  std::vector<std::uint64_t> down_;   ///< current down set (sorted keys)
  std::uint64_t lastAppliedTime_ = 0;
  std::uint64_t applied_ = 0;
  std::int64_t excess_ = 0;           ///< sum over nodes of max(0, count-1)
  std::uint64_t dispersedSince_ = kNever;
};

}  // namespace disp
