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
// the agent's own pin.  The system stages one move per oscillating agent
// per round through a SyncEngine round hook.
//
// Assignment changes require co-location, mirroring the paper's local
// communication: new stops may only be added while the oscillator is at
// home (callers arrange co-location and at-home-ness first), and a stop may
// only be dropped while the oscillator is standing on it.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/sync_engine.hpp"
#include "graph/graph.hpp"

namespace disp {

class OscillatorSystem {
 public:
  explicit OscillatorSystem(SyncEngine& engine);

  /// Registers the round hook with the engine.  Call once.
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
  /// trip still in flight).  One flat-array byte load: memory accounting
  /// calls this for every agent at every checkpoint.
  [[nodiscard]] bool isOscillating(AgentIx agent) const {
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
  };

  [[nodiscard]] Osc* find(AgentIx agent);
  [[nodiscard]] const Osc* find(AgentIx agent) const;
  Osc& findOrCreate(AgentIx agent);
  void rebuildPlan(Osc& osc) const;
  /// One oscillator's per-round step: stages its move (and its duty-off
  /// event) on the engine.
  void stepOscillator(Osc& osc);
  void stageMoves();

  SyncEngine& engine_;
  std::vector<Osc> oscs_;
  /// Agent -> index into oscs_ (kNoAgent = none): find() is O(1), which
  /// matters because per-agent memory accounting queries isOscillating()
  /// for every agent (O(k * oscillators) per snapshot otherwise).
  std::vector<AgentIx> ixOf_;
  /// Mirror of `!stops.empty() || !plan.empty()` per agent, maintained at
  /// the duty transitions (stop added, retired trip cleared, retire()).
  std::vector<std::uint8_t> duty_;
  bool installed_ = false;
};

}  // namespace disp
