#include "algo/oscillation.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace disp {

OscillatorSystem::OscillatorSystem(SyncEngine& engine)
    : engine_(engine),
      ixOf_(engine.agentCount(), kNoAgent),
      duty_(engine.agentCount(), 0) {}

void OscillatorSystem::install() {
  DISP_CHECK(!installed_, "OscillatorSystem installed twice");
  installed_ = true;
  engine_.addRoundHook([this] { stageMoves(); });
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
  ixOf_[agent] = static_cast<AgentIx>(oscs_.size());
  oscs_.push_back(fresh);
  return oscs_.back();
}

bool OscillatorSystem::isIdleAtHome(AgentIx agent) const {
  const Osc* osc = find(agent);
  if (osc == nullptr) return true;  // never oscillated: always at home
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
  if (duty_[agent] == 0) {
    engine_.traceEvent(TraceEventKind::OscillationDuty, agent, osc.home, 1,
                       static_cast<std::uint32_t>(osc.stops.size()));
  }
  duty_[agent] = 1;
}

std::optional<Port> OscillatorSystem::currentStopPort(AgentIx agent) const {
  const Osc* osc = find(agent);
  if (osc == nullptr || osc->atStop == kNoPort) return std::nullopt;
  return osc->atStop;
}

void OscillatorSystem::dropCurrentStop(AgentIx agent) {
  Osc* osc = find(agent);
  DISP_CHECK(osc != nullptr && osc->atStop != kNoPort,
             "dropCurrentStop: agent is not standing on a covered stop");
  const auto it = std::find(osc->stops.begin(), osc->stops.end(), osc->atStop);
  DISP_CHECK(it != osc->stops.end(), "stop list desynchronized");
  osc->stops.erase(it);
  // The remaining hops of the current cycle still lead home; the shorter
  // stop list takes effect at the next rebuild.
}

void OscillatorSystem::retire(AgentIx agent) {
  const AgentIx ix = ixOf_[agent];
  if (ix == kNoAgent) return;
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
  Port via = kNoPort;
  switch (hop.kind) {
    case Hop::Kind::Literal:
      via = hop.port;
      break;
    case Hop::Kind::Pin:
      via = engine_.pinOf(osc.agent);
      break;
    case Hop::Kind::HomeReturn:
      via = osc.homeReturn;
      break;
  }
  DISP_CHECK(via != kNoPort, "oscillator lost its route");
  engine_.stageMove(osc.agent, via);
  osc.atStop = hop.stopKey;  // where this hop will land (kNoPort if not a stop)
  ++osc.planIx;
}

void OscillatorSystem::stageMoves() {
  for (auto& osc : oscs_) stepOscillator(osc);
}

}  // namespace disp
