#pragma once
// The ASYNC growing phase (paper §7, Theorem 7.1): one implementation for
// rooted_async (async_rooted.*) and general_async (general_async.*, which
// runs it in every group, §8.2 / Theorem 8.2).
//
//  * Async_Probe (Algorithm 3, probePhase): the idle probers at the
//    leader's node w probe distinct unchecked ports in parallel; a prober
//    that finds an own-label home settler recruits it back to w as a guest
//    helper, doubling the probing force — O(log k) iterations to find a
//    fully unsettled neighbor.  A probe that sees a foreign label reports
//    it (general_async's meetings).
//  * Guest_See_Off (Algorithm 4, seeOffPhase): before the group leaves w,
//    guests are escorted home in pairs (one settles, one returns), halving
//    the guest set per sweep — O(log k) epochs; this is what makes
//    "neighbor looks empty" mean "fully unsettled" despite asynchrony
//    (DESIGN.md §4.3).
//  * the participant errands (participantStep): probe, report, guest trip,
//    guest registration, walk home, chaperone, escort and follow.
//
// Coordination is strictly local: the leader writes orders into co-located
// agents' memory; transient probe counters live on the home settler of the
// current node (always present), so probers can report even while the
// leader is itself out probing.  A participant with no errand parks on the
// engine (hasErrand is its idle predicate), and every order written into
// another agent goes through orderInto, which wakes it.
//
// AsyncGrowth<Protocol> is a CRTP base like KsSubsumption: it calls into
// the protocol directly, with no virtual dispatch.  The protocol supplies
// engine_ (an AsyncEngine), st_ (per-agent records deriving from
// AsyncGrowthState) and stats_ (deriving from AsyncGrowthStats), and keeps
// proberIdx_ in step with settles, unsettles and moves.  Every query is
// scoped to a label: a general group's label is its index, and rooted_async
// labels every agent 0, so its label filters and foreign-label branches
// never fire.  The one per-protocol value is the probe's port limit, passed
// to probePhase: deg(w) for rooted_async, min(deg(w), k) for general_async.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "algo/probe_index.hpp"
#include "algo/protocol_common.hpp"
#include "core/async_engine.hpp"
#include "core/fiber.hpp"
#include "graph/graph.hpp"
#include "util/check.hpp"

namespace disp {

/// The growth fields of an agent's persistent record.
struct AsyncGrowthState {
  Label label = kNoLabel;
  bool settled = false;
  bool isGuest = false;
  NodeId settledAt = kInvalidNode;  // simulation-side assertion key
  Port parentPort = kNoPort;        // settler: DFS-tree parent

  // --- settler blackboard (the α(w).* variables + probe counters) ---
  Port checked = 0;          // Async_Probe progress at this node
  Port nextFound = kNoPort;  // smallest empty port reported this iteration
  std::uint32_t outCount = 0;
  std::uint32_t retCount = 0;
  std::uint32_t guestExpected = 0;
  std::uint32_t guestArrived = 0;
  std::uint32_t seeOffExpected = 0;
  std::uint32_t seeOffReturned = 0;

  // --- orders written by the leader / probers (communicate phase) ---
  Port orderProbePort = kNoPort;   // follower/guest: probe this port of w
  Port orderGuestGoTo = kNoPort;   // settler at a probed neighbor: go to w
  bool orderGoHome = false;        // guest: exit w via its own entry port
  Port orderChaperone = kNoPort;   // guest: escort partner via this port
  Port orderEscort = kNoPort;      // settler α(w): escort the last guest
  Port orderFollow = kNoPort;      // follower: group move via this port

  // --- guest / prober bookkeeping ---
  Port guestEntryPort = kNoPort;  // port of w through which it entered w
  bool needRegister = false;      // guest must report arrival at w
  bool needReport = false;        // prober must report results at w
  bool reportEmpty = false;
  bool reportGuest = false;
  Label reportMet = kNoLabel;     // smallest foreign label seen, if any
};

/// The counters the growing phase bumps.
struct AsyncGrowthStats {
  std::uint64_t probes = 0;
  std::uint64_t probeIterations = 0;
  std::uint64_t guestsRecruited = 0;
  std::uint64_t seeOffSweeps = 0;
};

template <typename Protocol>
class AsyncGrowth {
 protected:
  /// Sizes the prober index and enrolls every agent: all start unsettled.
  explicit AsyncGrowth(const AsyncEngine& engine)
      : proberIdx_(engine.agentCount(), engine.graph().nodeCount()) {
    for (AgentIx a = 0; a < engine.agentCount(); ++a) {
      proberIdx_.insert(a, engine.positionOf(a));
    }
  }

  /// Sizes the per-label probe outputs for labels 0 .. count-1.
  void initLabels(std::uint32_t count) {
    probeNext_.assign(count, kNoPort);
    probeMet_.assign(count, {});
  }

  /// True iff the agent has a participant errand pending: an order from
  /// the leader or a prober, or a report or registration still owed.
  /// Without one an activation changes nothing, so the agent may park:
  /// reports and registrations are set by the agent itself, and every
  /// order reaches it through orderInto, which wakes it.
  [[nodiscard]] bool hasErrand(AgentIx self) const {
    const auto& s = st(self);
    return s.orderProbePort != kNoPort || s.needReport || s.orderGuestGoTo != kNoPort ||
           s.needRegister || s.orderGoHome || s.orderChaperone != kNoPort ||
           s.orderEscort != kNoPort || s.orderFollow != kNoPort;
  }
  /// Agent `a`'s record, for writing it an order: wakes `a` if it is
  /// parked.  Every write of an order into another agent goes through
  /// here, so no order can wait on a parked agent.
  auto& orderInto(AgentIx a) {
    engine().wake(a);
    return st(a);
  }
  /// Handles the agent's pending errand (probe, report, guest trip,
  /// registration, walk home, chaperone, escort or follow); call only when
  /// hasErrand(self).  May span several activations internally; returns
  /// with the current activation still owned by the caller.
  Task participantStep(AgentIx self);

  /// Async_Probe at the leader's node w over ports checked+1 .. limit.
  /// Result: probeNext_[label] (the smallest empty port found, or kNoPort
  /// once the ports are exhausted) and probeMet_[label] (foreign labels
  /// seen, with the port of w they were seen through, in report order).
  Task probePhase(Label label, AgentIx self, Port limit);
  /// Guest_See_Off at the leader's node: returns once every own-label guest
  /// there is home and α(w) is back.
  Task seeOffPhase(Label label, AgentIx self);

  /// Followers + guest helpers bucketed by node: availableProbersAt reads
  /// the w bucket instead of scanning every occupant of w (DESIGN.md §9.4).
  /// The protocol maintains membership at settle and unsettle; the growth
  /// phase at recruit and see-off; positions ride the engine's move hook.
  IdleProberIndex proberIdx_;
  std::vector<Port> probeNext_;                                // per label
  std::vector<std::vector<std::pair<Label, Port>>> probeMet_;  // per label

 private:
  /// What a probe saw at the probed node, plus any recruitment performed.
  struct ProbeSight {
    AgentIx settler = kNoAgent;  // own-label home settler (now recruited)
    Label met = kNoLabel;        // smallest foreign label present, if any
    bool empty = false;          // prober stands there alone
  };
  /// Communicate step of a probe at the prober's current node: classify
  /// and recruit.  Shared by participant probers and leader trips.
  ProbeSight observeAndRecruit(AgentIx self, Label label);
  /// The leader probes a port itself (it has the max ID: drafted last).
  Task leaderProbeTrip(Label label, AgentIx self, Port port);
  [[nodiscard]] const std::vector<AgentIx>& availableProbersAt(NodeId w,
                                                               Label label) const;

  Protocol& proto() { return static_cast<Protocol&>(*this); }
  const Protocol& proto() const { return static_cast<const Protocol&>(*this); }
  AsyncEngine& engine() const { return proto().engine_; }
  auto& st(AgentIx a) { return proto().st_[a]; }
  const auto& st(AgentIx a) const { return proto().st_[a]; }

  /// Scratch for availableProbersAt (consumed before any co_await).
  mutable std::vector<AgentIx> probersScratch_;
};

// ------------------------------------------------------------------ helpers

template <typename Protocol>
const std::vector<AgentIx>& AsyncGrowth<Protocol>::availableProbersAt(
    NodeId w, Label label) const {
  // Own-label unsettled agents and guest helpers, idle (no pending orders),
  // ascending by ID so the leader (max ID) is drafted as late as its ID
  // allows.  The index bucket already holds exactly the followers and
  // guests at w; the label and the fast-changing order flags are filtered
  // here (DESIGN.md §9.4).  Scratch reuse is safe: every caller consumes
  // the list before its next co_await (single-threaded engine), so no
  // interleaved call clobbers it.
  std::vector<AgentIx>& avail = probersScratch_;
  avail.clear();
  for (const AgentIx a : proberIdx_.membersAt(w)) {
    const auto& s = st(a);
    if (s.label != label) continue;
    if (s.orderProbePort != kNoPort || s.needReport || s.needRegister) continue;
    if (s.orderGoHome || s.orderChaperone != kNoPort) continue;
    if (s.orderFollow != kNoPort) continue;
    avail.push_back(a);
  }
  const AsyncEngine& eng = engine();
  std::sort(avail.begin(), avail.end(),
            [&](AgentIx a, AgentIx b) { return eng.idOf(a) < eng.idOf(b); });
#ifndef NDEBUG
  // Cross-check the index against the naive occupant scan it replaced.
  std::vector<AgentIx> naive;
  for (const AgentIx a : eng.agentsAt(w)) {
    const auto& s = st(a);
    if (s.label != label) continue;
    const bool follower = !s.settled;
    const bool guest = s.settled && s.isGuest;
    if (!follower && !guest) continue;
    if (s.orderProbePort != kNoPort || s.needReport || s.needRegister) continue;
    if (s.orderGoHome || s.orderChaperone != kNoPort) continue;
    if (s.orderFollow != kNoPort) continue;
    naive.push_back(a);
  }
  std::sort(naive.begin(), naive.end(),
            [&](AgentIx a, AgentIx b) { return eng.idOf(a) < eng.idOf(b); });
  DISP_CHECK(avail == naive, "IdleProberIndex drifted from the world");
#endif
  return avail;
}

template <typename Protocol>
auto AsyncGrowth<Protocol>::observeAndRecruit(AgentIx self, Label label) -> ProbeSight {
  // Classify the probed node and recruit an own-label home settler as a
  // guest helper, routed back through the prober's pin.
  AsyncEngine& eng = engine();
  const NodeId ui = eng.positionOf(self);
  ProbeSight sight;
  sight.settler = homeSettlerAt(eng, proto().st_, ui, label);
  for (const AgentIx b : eng.agentsAt(ui)) {
    if (b != self && st(b).label != label) {
      if (sight.met == kNoLabel || st(b).label < sight.met) sight.met = st(b).label;
    }
  }
  sight.empty = (eng.countAt(ui) == 1);
  if (sight.settler != kNoAgent) {
    orderInto(sight.settler).orderGuestGoTo = eng.pinOf(self);
    st(sight.settler).isGuest = true;
    proberIdx_.insert(sight.settler, ui);  // guests are prober-eligible
  }
  return sight;
}

// -------------------------------------------------------------- participant

template <typename Protocol>
Task AsyncGrowth<Protocol>::participantStep(AgentIx self) {
  AsyncEngine& eng = engine();
  auto& me = st(self);

  // --- prober errand (followers and guests) ---
  if (me.orderProbePort != kNoPort) {
    const Port p = me.orderProbePort;
    me.orderProbePort = kNoPort;
    eng.move(self, p);  // arrive at the neighbor u_i
    co_await eng.nextActivation(self);
    const ProbeSight sight = observeAndRecruit(self, me.label);
    me.reportEmpty = sight.empty;
    me.reportGuest = (sight.settler != kNoAgent);
    me.reportMet = sight.met;
    eng.move(self, eng.pinOf(self));  // return to w
    me.needReport = true;
    co_return;
  }

  // --- report probe results at w (next activation after returning) ---
  if (me.needReport) {
    me.needReport = false;
    const AgentIx aw = homeSettlerAt(eng, proto().st_, eng.positionOf(self), me.label);
    DISP_CHECK(aw != kNoAgent, "probe report: no settler at w");
    auto& bb = st(aw);
    ++bb.retCount;
    if (me.reportEmpty) {
      // The port of w this prober was assigned is recoverable from its own
      // pin: it returned through the same edge.
      const Port portOfW = eng.pinOf(self);
      if (bb.nextFound == kNoPort || portOfW < bb.nextFound) bb.nextFound = portOfW;
    }
    if (me.reportGuest) ++bb.guestExpected;
    if (me.reportMet != kNoLabel) {
      probeMet_[me.label].emplace_back(me.reportMet, eng.pinOf(self));
    }
    me.reportEmpty = me.reportGuest = false;
    me.reportMet = kNoLabel;
    co_return;
  }

  // --- settled agent recruited as guest: travel to w ---
  if (me.orderGuestGoTo != kNoPort) {
    const Port p = me.orderGuestGoTo;
    me.orderGuestGoTo = kNoPort;
    me.needRegister = true;
    eng.move(self, p);
    co_return;
  }
  if (me.needRegister) {
    me.needRegister = false;
    me.guestEntryPort = eng.pinOf(self);  // port of w back toward home
    const AgentIx aw = homeSettlerAt(eng, proto().st_, eng.positionOf(self), me.label);
    DISP_CHECK(aw != kNoAgent, "guest registration: no settler at w");
    ++st(aw).guestArrived;
    co_return;
  }

  // --- see-off: guest walking home ---
  if (me.orderGoHome) {
    me.orderGoHome = false;
    eng.move(self, me.guestEntryPort);
    me.guestEntryPort = kNoPort;
    me.isGuest = false;  // home again (position == settledAt)
    proberIdx_.erase(self);
    co_return;
  }

  // --- see-off: guest chaperoning a partner to the partner's home ---
  if (me.orderChaperone != kNoPort) {
    const Port p = me.orderChaperone;
    me.orderChaperone = kNoPort;
    eng.move(self, p);
    // Wait at the partner's home until the partner (a settled own-label
    // occupant) is present, then return to w and report.
    for (;;) {
      co_await eng.nextActivation(self);
      if (homeSettlerAt(eng, proto().st_, eng.positionOf(self), me.label) != kNoAgent) {
        eng.move(self, eng.pinOf(self));
        break;
      }
    }
    co_await eng.nextActivation(self);
    const AgentIx aw = homeSettlerAt(eng, proto().st_, eng.positionOf(self), me.label);
    DISP_CHECK(aw != kNoAgent, "chaperone report: no settler at w");
    ++st(aw).seeOffReturned;
    co_return;
  }

  // --- settler α(w) escorting the final guest home ---
  if (me.orderEscort != kNoPort) {
    const Port p = me.orderEscort;
    me.orderEscort = kNoPort;
    eng.move(self, p);
    for (;;) {
      co_await eng.nextActivation(self);
      if (homeSettlerAt(eng, proto().st_, eng.positionOf(self), me.label) != kNoAgent) {
        eng.move(self, eng.pinOf(self));
        break;
      }
    }
    co_return;  // back at w; the leader detects the settler's presence
  }

  // --- plain group move order ---
  DISP_DCHECK(me.orderFollow != kNoPort, "participantStep without an errand");
  const Port p = me.orderFollow;
  me.orderFollow = kNoPort;
  eng.move(self, p);
}

// -------------------------------------------------------------------- probe

template <typename Protocol>
Task AsyncGrowth<Protocol>::leaderProbeTrip(Label label, AgentIx self, Port port) {
  AsyncEngine& eng = engine();
  eng.move(self, port);
  co_await eng.nextActivation(self);
  const ProbeSight sight = observeAndRecruit(self, label);
  eng.move(self, eng.pinOf(self));
  co_await eng.nextActivation(self);
  // Report (the leader is back at w).
  const AgentIx aw = homeSettlerAt(eng, proto().st_, eng.positionOf(self), label);
  DISP_CHECK(aw != kNoAgent, "leader probe report: no settler at w");
  auto& bb = st(aw);
  ++bb.retCount;
  if (sight.empty) {
    const Port portOfW = eng.pinOf(self);
    if (bb.nextFound == kNoPort || portOfW < bb.nextFound) bb.nextFound = portOfW;
  }
  if (sight.settler != kNoAgent) ++bb.guestExpected;
  if (sight.met != kNoLabel) probeMet_[label].emplace_back(sight.met, eng.pinOf(self));
}

template <typename Protocol>
Task AsyncGrowth<Protocol>::probePhase(Label label, AgentIx self, Port limit) {
  AsyncEngine& eng = engine();
  auto& stats = proto().stats_;
  ++stats.probes;
  const NodeId w = eng.positionOf(self);
  const AgentIx aw = homeSettlerAt(eng, proto().st_, w, label);
  DISP_CHECK(aw != kNoAgent, "probe at a node without an own settler");

  probeNext_[label] = kNoPort;
  probeMet_[label].clear();

  for (;;) {
    auto& bb = st(aw);
    if (bb.checked >= limit) break;  // exhausted: probeNext_ stays ⊥

    const auto& avail = availableProbersAt(w, label);
    DISP_CHECK(!avail.empty(), "Async_Probe with no available agents");
    const Port delta = static_cast<Port>(std::min<std::uint32_t>(
        static_cast<std::uint32_t>(avail.size()), limit - bb.checked));
    ++stats.probeIterations;

    bb.outCount = delta;
    bb.retCount = 0;
    bb.guestExpected = 0;
    bb.guestArrived = 0;
    bb.nextFound = kNoPort;

    bool selfProbes = false;
    Port selfPort = kNoPort;
    for (Port i = 0; i < delta; ++i) {
      const Port port = bb.checked + 1 + i;
      if (avail[i] == self) {
        selfProbes = true;  // the leader has the max ID: only drafted last
        selfPort = port;
      } else {
        orderInto(avail[i]).orderProbePort = port;
      }
    }
    if (selfProbes) co_await leaderProbeTrip(label, self, selfPort);

    // Wait for every prober's report and every recruited guest's arrival.
    for (;;) {
      const auto& bbr = st(aw);
      if (bbr.retCount == bbr.outCount && bbr.guestArrived == bbr.guestExpected) break;
      co_await eng.nextActivation(self);
    }
    stats.guestsRecruited += st(aw).guestArrived;

    if (st(aw).nextFound != kNoPort) {
      probeNext_[label] = st(aw).nextFound;
      break;  // checked intentionally not advanced (Algorithm 3 line 14–15)
    }
    st(aw).checked = st(aw).checked + delta;
  }
}

// ------------------------------------------------------------------ see-off

template <typename Protocol>
Task AsyncGrowth<Protocol>::seeOffPhase(Label label, AgentIx self) {
  AsyncEngine& eng = engine();
  const NodeId w = eng.positionOf(self);
  const auto isGuestHere = [&](AgentIx a) {
    return st(a).label == label && st(a).settled && st(a).isGuest;
  };
  for (;;) {
    // Collect co-located own-label guests, ascending by ID (Algorithm 4
    // line 6).
    std::vector<AgentIx> guests;
    for (const AgentIx a : eng.agentsAt(w)) {
      if (isGuestHere(a)) guests.push_back(a);
    }
    if (guests.empty()) co_return;
    std::sort(guests.begin(), guests.end(),
              [&](AgentIx a, AgentIx b) { return eng.idOf(a) < eng.idOf(b); });
    ++proto().stats_.seeOffSweeps;

    const AgentIx aw = homeSettlerAt(eng, proto().st_, w, label);
    DISP_CHECK(aw != kNoAgent, "see-off without a settler at w");
    if (guests.size() == 1) {
      // α(w) escorts the last guest home (Algorithm 4 lines 2–4).
      const AgentIx g = guests.front();
      orderInto(aw).orderEscort = st(g).guestEntryPort;
      orderInto(g).orderGoHome = true;
      // Wait until the guest is gone and the settler is back *with its
      // escort order consumed*.  Without the order check the guest can walk
      // home on its own before the settler ever leaves, the leader would
      // move on, and the stale escort order would later pull the settler
      // away from w mid-protocol — exactly the §4.3 in-transit hazard.
      for (;;) {
        co_await eng.nextActivation(self);
        bool guestGone = true;
        for (const AgentIx a : eng.agentsAt(w)) guestGone &= !isGuestHere(a);
        const AgentIx back = homeSettlerAt(eng, proto().st_, w, label);
        if (guestGone && back != kNoAgent && st(back).orderEscort == kNoPort) co_return;
      }
    }

    // Pair (g1,g2), (g3,g4), ...: the pair walks to the odd member's home;
    // the even member chaperones and returns.  A trailing unpaired guest
    // waits for the next sweep.
    const auto pairs = static_cast<std::uint32_t>(guests.size() / 2);
    st(aw).seeOffExpected = pairs;
    st(aw).seeOffReturned = 0;
    for (std::uint32_t i = 0; i < pairs; ++i) {
      const AgentIx gHome = guests[2 * i];
      const AgentIx gBack = guests[2 * i + 1];
      orderInto(gBack).orderChaperone = st(gHome).guestEntryPort;
      orderInto(gHome).orderGoHome = true;
    }
    while (st(aw).seeOffReturned != st(aw).seeOffExpected) {
      co_await eng.nextActivation(self);
    }
  }
}

}  // namespace disp
