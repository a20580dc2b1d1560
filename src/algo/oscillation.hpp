#pragma once
// Oscillating settlers (§5.2, Figs. 2–4).
//
// A settler assigned coverage duty loops over its covered empty nodes
// continuously, one edge per round:
//   Children type: home → c1 → home → c2 → home → c3 → home   (≤ 6 rounds)
//   Siblings type: home → P → a → P → b → P → home            (≤ 6 rounds)
// Because the cycle is at most 6 rounds, every covered node (and the home
// node itself) is visited at least once in any window of 7 consecutive
// round commits — which is exactly why Sync_Probe's 6-round wait at a
// neighbor always detects tree membership (Lemma 4), and why "wait for the
// custodian" costs at most 6 rounds anywhere in the SYNC algorithms.
//
// Route knowledge is strictly local: stops are stored as ports (child port
// at home; parent port plus sibling port at the parent); return hops use
// the agent's own pin.
//
// Between assignment changes a trip is a fixed cycle of at most 6 (node,
// pin, stop) states, so the system keeps each oscillator's cycle and the
// round it was last brought up to date, and moves it in the World only
// when something reads it (SyncEngine's DeferredMover slot): a query at a
// node of its route, found through a per-node route index; a read of its
// position, pin, idle, stop or duty state; an assignment change; or the end
// of the run.  Its hops are counted one per round on duty.  When the engine
// refuses deferral (an observer or a fault injector is installed), a round
// hook stages one move per oscillating agent per round instead; that eager
// stepper alone emits the per-round Move stream and meets the crash and
// churn vetoes, and debug builds replay every deferred catch-up with its
// rules.
//
// Assignment changes require co-location, mirroring the paper's local
// communication: new stops may only be added while the oscillator is at
// home (callers arrange co-location and at-home-ness first), and a stop may
// only be dropped while the oscillator is standing on it.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/sync_engine.hpp"
#include "graph/graph.hpp"

namespace disp {

class OscillatorSystem final : private DeferredMover {
 public:
  explicit OscillatorSystem(SyncEngine& engine);

  /// Starts the oscillators moving: as the engine's deferred mover, or
  /// through a round hook when the engine observes or injects faults.
  /// Call once, after the engine's observer and fault injector.
  void install();

  /// Adds a covered child: agent (at home) will visit neighbor(home, childPort).
  /// Requires: agent at home; children-type or fresh; at most 3 stops.
  void addChildStop(AgentIx agent, Port childPort);

  /// Adds a covered sibling: agent (at home) will visit it via its parent:
  /// home --parentPort--> P --siblingPortAtParent--> sibling.
  /// Requires: agent at home; sibling-type or fresh; at most 2 stops;
  /// consistent parentPort.
  void addSiblingStop(AgentIx agent, Port parentPort, Port siblingPortAtParent);

  /// True iff the agent currently has coverage duty (stops assigned or a
  /// trip still in flight).  A flat-array byte load after the catch-up:
  /// memory accounting calls this at every checkpoint.
  [[nodiscard]] bool isOscillating(AgentIx agent) const {
    syncAgent(agent);
    return duty_[agent] != 0;
  }

  /// True iff the agent is at home *between* trips — the only moment new
  /// stops may be added, so that every stop is visited within 6 rounds of
  /// assignment.  Occurs at least once every 6 rounds.
  [[nodiscard]] bool isIdleAtHome(AgentIx agent) const;

  /// If the agent is currently standing on one of its covered stops,
  /// returns that stop's port key (child port / sibling port at parent).
  [[nodiscard]] std::optional<Port> currentStopPort(AgentIx agent) const;

  /// Drops the stop the agent currently stands on (see currentStopPort).
  /// When the last stop is dropped the agent finishes its trip home and
  /// stops oscillating.
  void dropCurrentStop(AgentIx agent);

  /// Removes the agent from the system entirely (e.g. the settler was
  /// collected during subsumption).  Requires the agent holds no stops or
  /// is being forcibly collected with its covered records already moved.
  void retire(AgentIx agent);

  /// Longest cycle length currently assigned (test introspection; Lemma 2
  /// says <= 6).
  [[nodiscard]] std::uint32_t maxCycleRounds() const;

  /// True iff every registered oscillator is idle at its home node (no
  /// pending trip hops).  Protocols wait for this before terminating: an
  /// ex-oscillator must end settled at home.
  [[nodiscard]] bool allIdleAtHome() const;

 private:
  // One planned hop: move via an explicit port, via the agent's pin, or via
  // the remembered port from the parent back home (sibling trips).
  struct Hop {
    enum class Kind : std::uint8_t { Literal, Pin, HomeReturn } kind;
    Port port = kNoPort;        // Literal
    Port stopKey = kNoPort;     // set on hops that ARRIVE at a covered stop
  };

  /// Where a hop lands: node, incoming port, and the stop key when the
  /// node is a covered stop (kNoPort otherwise).
  struct Spot {
    NodeId node = kInvalidNode;
    Port pin = kNoPort;
    Port stop = kNoPort;
  };

  /// Route index entry: the oscillator may stand on `node`.  Entries of one
  /// node form a doubly linked list through the oscillators' route records;
  /// an entry's id is agent * kRouteSlots + slot.
  struct RouteLink {
    NodeId node = kInvalidNode;
    std::uint32_t prev = kNoLink;
    std::uint32_t next = kNoLink;
  };
  static constexpr std::uint32_t kNoLink = 0xffffffffu;
  /// Home plus at most three children, or home, parent and two siblings.
  static constexpr std::uint32_t kRouteSlots = 4;

  struct Osc {
    AgentIx agent = kNoAgent;
    bool siblingType = false;
    Port parentPort = kNoPort;       // sibling type only
    Port homeReturn = kNoPort;       // port at parent leading home (learned)
    std::vector<Port> stops;         // child ports / sibling ports at parent
    std::vector<Hop> plan;           // remaining hops of the current cycle
    std::size_t planIx = 0;
    NodeId home = kInvalidNode;      // engine bookkeeping
    Port atStop = kNoPort;           // stop the agent stands on now (else 0)
    // Deferred mode only.
    std::uint64_t syncedTo = 0;      // hooks of rounds < syncedTo are applied
    bool replan = true;              // stops changed since `plan` was built
    std::array<Spot, 6> spots{};     // where each hop of `plan` lands
    std::array<RouteLink, kRouteSlots> route{};  // its route index entries
  };

  // DeferredMover: the engine's read paths.
  void catchUpAgent(AgentIx agent) override { syncAgent(agent); }
  void catchUpNode(NodeId v) override;
  void catchUpAll() override;

  /// Brings the agent's oscillator, if any, up to the current round
  /// (deferred mode; a no-op otherwise).
  void syncAgent(AgentIx agent) const {
    if (world_ == nullptr) return;
    const AgentIx ix = ixOf_[agent];
    if (ix != kNoAgent) sync(oscs_[ix]);
  }
  void sync(Osc& osc) const {
    if (osc.syncedTo != engine_.round()) advance(osc);
  }
  /// Applies the round hooks since osc.syncedTo in closed form.
  void advance(Osc& osc) const;
  /// Fills osc.spots (and, for sibling trips, osc.homeReturn) from the plan.
  void planSpots(Osc& osc) const;
  /// Points the route index at exactly the nodes osc's trips can reach.
  void indexRoute(Osc& osc);
  void unindexRoute(Osc& osc);
  [[nodiscard]] RouteLink& linkAt(std::uint32_t id) const {
    return oscs_[ixOf_[id / kRouteSlots]].route[id % kRouteSlots];
  }
#ifndef NDEBUG
  /// Replays `hooks` round hooks of `sim` (a copy of the oscillator before
  /// the catch-up, standing on `at` with `pin`) hop by hop with the eager
  /// stepper's rules and requires the catch-up's result `after`.
  void checkCatchUp(Osc sim, NodeId at, Port pin, bool duty, std::uint64_t hooks,
                    const Osc& after, std::uint64_t hops) const;
#endif

  [[nodiscard]] Osc* find(AgentIx agent);
  [[nodiscard]] const Osc* find(AgentIx agent) const;
  Osc& findOrCreate(AgentIx agent);
  void rebuildPlan(Osc& osc) const;
  /// One oscillator's per-round step: stages its move (and its duty-off
  /// event) on the engine.
  void stepOscillator(Osc& osc);
  void stageMoves();

  SyncEngine& engine_;
  /// The engine's World in deferred mode (null when eager or not
  /// installed): oscillators are relocated in it on read.
  World* world_ = nullptr;
  /// Caught up from const reads, which leave the observable state as the
  /// per-round moves would have.
  mutable std::vector<Osc> oscs_;
  /// Agent -> index into oscs_ (kNoAgent = none): find() is O(1), which
  /// matters because per-agent memory accounting queries isOscillating().
  std::vector<AgentIx> ixOf_;
  /// Mirror of `!stops.empty() || !plan.empty()` per agent, maintained at
  /// the duty transitions (stop added, retired trip cleared, retire()).
  mutable std::vector<std::uint8_t> duty_;
  /// Deferred mode: per node, the first route index entry (kNoLink = none).
  std::vector<std::uint32_t> routeHead_;
  bool installed_ = false;
};

}  // namespace disp
