#include "algo/oscillation.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace disp {

namespace {

/// The port a hop leaves through: its literal port, the agent's pin, or
/// the remembered port from the parent back home.
template <typename Hop>
Port hopPort(const Hop& hop, Port pin, Port homeReturn) {
  switch (hop.kind) {
    case Hop::Kind::Literal:
      return hop.port;
    case Hop::Kind::Pin:
      return pin;
    case Hop::Kind::HomeReturn:
      return homeReturn;
  }
  return kNoPort;
}

}  // namespace

OscillatorSystem::OscillatorSystem(SyncEngine& engine)
    : engine_(engine),
      ixOf_(engine.agentCount(), kNoAgent),
      duty_(engine.agentCount(), 0) {}

void OscillatorSystem::install() {
  DISP_CHECK(!installed_, "OscillatorSystem installed twice");
  installed_ = true;
  world_ = engine_.deferMoves(*this);
  if (world_ == nullptr) {
    engine_.addRoundHook([this] { stageMoves(); });
    return;
  }
  DISP_REQUIRE(engine_.agentCount() <= kNoLink / kRouteSlots,
               "too many agents for the oscillator route index");
  routeHead_.assign(engine_.graph().nodeCount(), kNoLink);
  // Stops added before install have not moved yet.
  for (Osc& osc : oscs_) {
    osc.syncedTo = engine_.round();
    indexRoute(osc);
  }
}

OscillatorSystem::Osc* OscillatorSystem::find(AgentIx agent) {
  const AgentIx ix = ixOf_[agent];
  return ix == kNoAgent ? nullptr : &oscs_[ix];
}

const OscillatorSystem::Osc* OscillatorSystem::find(AgentIx agent) const {
  const AgentIx ix = ixOf_[agent];
  return ix == kNoAgent ? nullptr : &oscs_[ix];
}

OscillatorSystem::Osc& OscillatorSystem::findOrCreate(AgentIx agent) {
  if (Osc* osc = find(agent)) return *osc;
  Osc fresh;
  fresh.agent = agent;
  fresh.home = engine_.positionOf(agent);
  fresh.syncedTo = engine_.round();
  ixOf_[agent] = static_cast<AgentIx>(oscs_.size());
  oscs_.push_back(fresh);
  return oscs_.back();
}

bool OscillatorSystem::isIdleAtHome(AgentIx agent) const {
  const Osc* osc = find(agent);
  if (osc == nullptr) return true;  // never oscillated: always at home
  syncAgent(agent);
  return engine_.positionOf(agent) == osc->home && osc->planIx >= osc->plan.size();
}

void OscillatorSystem::addChildStop(AgentIx agent, Port childPort) {
  Osc& osc = findOrCreate(agent);
  DISP_CHECK(isIdleAtHome(agent), "stops may only be added at a cycle boundary at home");
  DISP_CHECK(!osc.siblingType || osc.stops.empty(),
             "an oscillator covers children or siblings, never both (Lemma 3)");
  osc.siblingType = false;
  DISP_CHECK(osc.stops.size() < 3, "children-type oscillator covers at most 3 nodes");
  DISP_CHECK(std::find(osc.stops.begin(), osc.stops.end(), childPort) == osc.stops.end(),
             "duplicate stop");
  osc.stops.push_back(childPort);
  osc.replan = true;
  if (world_ != nullptr) indexRoute(osc);
  if (duty_[agent] == 0) {
    engine_.traceEvent(TraceEventKind::OscillationDuty, agent, osc.home, 1,
                       static_cast<std::uint32_t>(osc.stops.size()));
  }
  duty_[agent] = 1;
}

void OscillatorSystem::addSiblingStop(AgentIx agent, Port parentPort,
                                      Port siblingPortAtParent) {
  Osc& osc = findOrCreate(agent);
  DISP_CHECK(isIdleAtHome(agent), "stops may only be added at a cycle boundary at home");
  DISP_CHECK(osc.siblingType || osc.stops.empty(),
             "an oscillator covers children or siblings, never both (Lemma 3)");
  DISP_CHECK(osc.stops.empty() || osc.parentPort == parentPort,
             "sibling stops must share the parent");
  osc.siblingType = true;
  osc.parentPort = parentPort;
  DISP_CHECK(osc.stops.size() < 2, "sibling-type oscillator covers at most 2 nodes");
  DISP_CHECK(std::find(osc.stops.begin(), osc.stops.end(), siblingPortAtParent) ==
                 osc.stops.end(),
             "duplicate stop");
  osc.stops.push_back(siblingPortAtParent);
  osc.replan = true;
  if (world_ != nullptr) indexRoute(osc);
  if (duty_[agent] == 0) {
    engine_.traceEvent(TraceEventKind::OscillationDuty, agent, osc.home, 1,
                       static_cast<std::uint32_t>(osc.stops.size()));
  }
  duty_[agent] = 1;
}

std::optional<Port> OscillatorSystem::currentStopPort(AgentIx agent) const {
  const Osc* osc = find(agent);
  if (osc == nullptr) return std::nullopt;
  syncAgent(agent);
  if (osc->atStop == kNoPort) return std::nullopt;
  return osc->atStop;
}

void OscillatorSystem::dropCurrentStop(AgentIx agent) {
  Osc* osc = find(agent);
  syncAgent(agent);
  DISP_CHECK(osc != nullptr && osc->atStop != kNoPort,
             "dropCurrentStop: agent is not standing on a covered stop");
  const auto it = std::find(osc->stops.begin(), osc->stops.end(), osc->atStop);
  DISP_CHECK(it != osc->stops.end(), "stop list desynchronized");
  osc->stops.erase(it);
  // The remaining hops of the current cycle still lead home; the shorter
  // stop list takes effect at the next rebuild.  The route index keeps the
  // dropped stop until the next add or retire, since this trip still
  // reaches it.
  osc->replan = true;
}

void OscillatorSystem::retire(AgentIx agent) {
  const AgentIx ix = ixOf_[agent];
  if (ix == kNoAgent) return;
  if (world_ != nullptr) {
    syncAgent(agent);
    unindexRoute(oscs_[ix]);
  }
  // Erase preserving order — stageMoves() iterates oscs_ and staged-move
  // order is part of the reproducible trace — then reindex the tail.
  oscs_.erase(oscs_.begin() + static_cast<std::ptrdiff_t>(ix));
  ixOf_[agent] = kNoAgent;
  if (duty_[agent] != 0) {
    engine_.traceEvent(TraceEventKind::OscillationDuty, agent,
                       engine_.positionOf(agent), 0, 0);
  }
  duty_[agent] = 0;
  for (AgentIx i = ix; i < oscs_.size(); ++i) ixOf_[oscs_[i].agent] = i;
}

bool OscillatorSystem::allIdleAtHome() const {
  for (const auto& osc : oscs_) {
    syncAgent(osc.agent);
    if (engine_.positionOf(osc.agent) != osc.home || osc.planIx < osc.plan.size()) {
      return false;
    }
  }
  return true;
}

std::uint32_t OscillatorSystem::maxCycleRounds() const {
  std::uint32_t best = 0;
  for (const auto& osc : oscs_) {
    const auto stops = static_cast<std::uint32_t>(osc.stops.size());
    if (stops == 0) continue;
    best = std::max(best, osc.siblingType ? 2 + 2 * stops : 2 * stops);
  }
  return best;
}

void OscillatorSystem::rebuildPlan(Osc& osc) const {
  osc.plan.clear();
  osc.planIx = 0;
  if (osc.stops.empty()) return;
  if (!osc.siblingType) {
    // home → c_i → home per stop.
    for (const Port p : osc.stops) {
      osc.plan.push_back({Hop::Kind::Literal, p, p});
      osc.plan.push_back({Hop::Kind::Pin, kNoPort, kNoPort});
    }
  } else {
    // home → P → s_1 → P [→ s_2 → P] → home.
    osc.plan.push_back({Hop::Kind::Literal, osc.parentPort, kNoPort});
    for (const Port s : osc.stops) {
      osc.plan.push_back({Hop::Kind::Literal, s, s});
      osc.plan.push_back({Hop::Kind::Pin, kNoPort, kNoPort});
    }
    osc.plan.push_back({Hop::Kind::HomeReturn, kNoPort, kNoPort});
  }
  DISP_CHECK(osc.plan.size() <= 6, "Lemma 2 violated: trip exceeds 6 rounds");
}

void OscillatorSystem::stepOscillator(Osc& osc) {
  if (osc.planIx >= osc.plan.size()) {
    // Fast path: no duty left (stops dropped) and no trip in flight —
    // skip the per-round plan rebuild for every retired oscillator.
    if (osc.stops.empty()) {
      if (!osc.plan.empty()) {
        osc.plan.clear();
        osc.planIx = 0;
      }
      if (duty_[osc.agent] != 0) {
        engine_.traceEvent(TraceEventKind::OscillationDuty, osc.agent, osc.home, 0, 0);
      }
      duty_[osc.agent] = 0;
      return;
    }
    // At home between cycles; start a new one if duty remains.
    rebuildPlan(osc);
    if (osc.plan.empty()) return;
  }
  // Sibling trips: right after the first hop landed at the parent, the
  // pin is the port leading home — remember it for the final hop.
  if (osc.siblingType && osc.planIx == 1) osc.homeReturn = engine_.pinOf(osc.agent);

  const Hop& hop = osc.plan[osc.planIx];
  const Port via = hopPort(hop, engine_.pinOf(osc.agent), osc.homeReturn);
  DISP_CHECK(via != kNoPort, "oscillator lost its route");
  engine_.stageMove(osc.agent, via);
  osc.atStop = hop.stopKey;  // where this hop will land (kNoPort if not a stop)
  ++osc.planIx;
}

void OscillatorSystem::stageMoves() {
  for (auto& osc : oscs_) stepOscillator(osc);
}

// ------------------------------------------------------- deferred mode

void OscillatorSystem::planSpots(Osc& osc) const {
  // Walk the plan from home with the eager stepper's rules.
  const Graph& g = engine_.graph();
  NodeId at = osc.home;
  Port pin = kNoPort;  // the first hop of a plan is always literal
  for (std::size_t i = 0; i < osc.plan.size(); ++i) {
    if (osc.siblingType && i == 1) osc.homeReturn = pin;
    const Hop& hop = osc.plan[i];
    const Port via = hopPort(hop, pin, osc.homeReturn);
    DISP_CHECK(via != kNoPort, "oscillator lost its route");
    pin = g.reversePort(at, via);
    at = g.neighbor(at, via);
    osc.spots[i] = {at, pin, hop.stopKey};
  }
}

void OscillatorSystem::advance(Osc& osc) const {
  std::uint64_t hooks = engine_.round() - osc.syncedTo;
  osc.syncedTo = engine_.round();
#ifndef NDEBUG
  const Osc before = osc;
  const NodeId fromNode = world_->positionOf(osc.agent);
  const Port fromPin = world_->pinOf(osc.agent);
  const bool fromDuty = duty_[osc.agent] != 0;
  const std::uint64_t allHooks = hooks;
#endif
  // The rest of the current cycle, one hop per hook ...
  std::uint64_t hops = std::min<std::uint64_t>(hooks, osc.plan.size() - osc.planIx);
  osc.planIx += static_cast<std::size_t>(hops);
  hooks -= hops;
  const Spot* land = hops > 0 ? &osc.spots[osc.planIx - 1] : nullptr;
  if (hooks > 0) {
    if (osc.stops.empty()) {
      // ... then, with no stops left, the next hook takes the duty off.
      osc.plan.clear();
      osc.planIx = 0;
      duty_[osc.agent] = 0;
    } else {
      // ... then whole cycles over the current stops, one hop per hook.
      if (osc.replan) {
        rebuildPlan(osc);
        planSpots(osc);
        osc.replan = false;
      }
      osc.planIx = static_cast<std::size_t>((hooks - 1) % osc.plan.size()) + 1;
      hops += hooks;
      land = &osc.spots[osc.planIx - 1];
    }
  }
  if (land != nullptr) {
    world_->relocate(osc.agent, land->node, land->pin);
    world_->creditMoves(hops);
    osc.atStop = land->stop;
  }
#ifndef NDEBUG
  checkCatchUp(before, fromNode, fromPin, fromDuty, allHooks, osc, hops);
#endif
}

#ifndef NDEBUG
void OscillatorSystem::checkCatchUp(Osc sim, NodeId at, Port pin, bool duty,
                                    std::uint64_t hooks, const Osc& after,
                                    std::uint64_t hops) const {
  const Graph& g = engine_.graph();
  std::uint64_t replayed = 0;
  for (std::uint64_t h = 0; h < hooks; ++h) {
    if (sim.planIx >= sim.plan.size()) {
      if (sim.stops.empty()) {
        sim.plan.clear();
        sim.planIx = 0;
        duty = false;
        break;  // every later hook is idle too
      }
      rebuildPlan(sim);
    }
    if (sim.siblingType && sim.planIx == 1) sim.homeReturn = pin;
    const Hop& hop = sim.plan[sim.planIx];
    const Port via = hopPort(hop, pin, sim.homeReturn);
    DISP_CHECK(via != kNoPort, "oscillator lost its route");
    const NodeId next = g.neighbor(at, via);
    pin = g.reversePort(at, via);
    at = next;
    sim.atStop = hop.stopKey;
    ++sim.planIx;
    ++replayed;
  }
  DISP_CHECK(at == world_->positionOf(after.agent) && pin == world_->pinOf(after.agent) &&
                 sim.planIx == after.planIx && sim.plan.size() == after.plan.size() &&
                 sim.atStop == after.atStop && duty == (duty_[after.agent] != 0) &&
                 replayed == hops,
             "deferred oscillator catch-up disagrees with the per-round replay");
}
#endif

void OscillatorSystem::catchUpNode(NodeId v) {
  for (std::uint32_t id = routeHead_[v]; id != kNoLink; id = linkAt(id).next) {
    sync(oscs_[ixOf_[id / kRouteSlots]]);
  }
}

void OscillatorSystem::catchUpAll() {
  for (Osc& osc : oscs_) sync(osc);
}

void OscillatorSystem::indexRoute(Osc& osc) {
  unindexRoute(osc);
  // Stops are only added at home between cycles, so the trips to come
  // reach exactly home and the current stops' route.
  const Graph& g = engine_.graph();
  std::array<NodeId, kRouteSlots> nodes{};
  std::uint32_t count = 0;
  const auto add = [&](NodeId v) {
    if (std::find(nodes.begin(), nodes.begin() + count, v) == nodes.begin() + count) {
      DISP_CHECK(count < kRouteSlots, "oscillator route exceeds its index record");
      nodes[count++] = v;
    }
  };
  add(osc.home);
  const NodeId base = osc.siblingType ? g.neighbor(osc.home, osc.parentPort) : osc.home;
  if (osc.siblingType) add(base);
  for (const Port p : osc.stops) add(g.neighbor(base, p));
  for (std::uint32_t slot = 0; slot < count; ++slot) {
    const std::uint32_t id = osc.agent * kRouteSlots + slot;
    RouteLink& link = osc.route[slot];
    link.node = nodes[slot];
    link.prev = kNoLink;
    link.next = routeHead_[link.node];
    if (link.next != kNoLink) linkAt(link.next).prev = id;
    routeHead_[link.node] = id;
  }
}

void OscillatorSystem::unindexRoute(Osc& osc) {
  for (RouteLink& link : osc.route) {
    if (link.node == kInvalidNode) continue;
    if (link.prev == kNoLink) {
      routeHead_[link.node] = link.next;
    } else {
      linkAt(link.prev).next = link.next;
    }
    if (link.next != kNoLink) linkAt(link.next).prev = link.prev;
    link = RouteLink{};
  }
}

}  // namespace disp
