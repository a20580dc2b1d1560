#include "algo/runner.hpp"

#include <utility>

#include <memory>

#include "algo/registry.hpp"
#include "core/async_engine.hpp"
#include "core/faults.hpp"
#include "core/scheduler.hpp"
#include "core/sync_engine.hpp"
#include "graph/spec.hpp"
#include "util/check.hpp"

namespace disp {

namespace {

RunResult finishSync(SyncEngine& engine, bool dispersed) {
  RunResult r;
  r.dispersed = dispersed;
  r.time = engine.round();
  // In the SYNC model every agent performs one CCM cycle per round, so the
  // activation count is exactly rounds * k (used for throughput telemetry).
  r.activations = engine.round() * engine.agentCount();
  r.totalMoves = engine.totalMoves();
  r.maxMemoryBits = engine.memory().maxBits();
  r.finalPositions = engine.positionsSnapshot();
  r.stoppedEarly = engine.stopRequested();
  return r;
}

RunResult finishAsync(AsyncEngine& engine, bool dispersed) {
  RunResult r;
  r.dispersed = dispersed;
  r.time = engine.epochs();
  r.activations = engine.activations();
  r.totalMoves = engine.totalMoves();
  r.maxMemoryBits = engine.memory().maxBits();
  r.finalPositions = engine.positionsSnapshot();
  r.stoppedEarly = engine.stopRequested();
  return r;
}

/// Builds the engine-level observer from the session options; when the
/// trajectory is captured, the sampled-step hook tees into `trajectory`
/// before forwarding to the user's callback.
EngineObserver buildObserver(const RunOptions& opts, bool async,
                             std::vector<TrajectoryPoint>* trajectory) {
  EngineObserver obs;
  obs.sampleEvery = opts.sampleEvery;
  obs.onEvent = opts.onEvent;
  obs.stopWhen = opts.stopWhen;
  const auto& userStep = async ? opts.onActivation : opts.onRound;
  if (opts.captureTrajectory) {
    obs.onStep = [trajectory, &userStep](const StepSnapshot& s) {
      trajectory->push_back({s.time, s.settled, s.totalMoves});
      if (userStep) userStep(s);
    };
  } else {
    obs.onStep = userStep;
  }
  return obs;
}

/// Runs the engine.  Under faults a protocol whose belief desynced (vetoed
/// moves, crashed peers) may violate its own DISP_CHECK invariants; that is
/// a robustness verdict, not a harness bug — report the message instead of
/// throwing.  Fault-free runs keep throwing (invariants then mean bugs).
template <typename Engine>
std::string runEngine(Engine& engine, std::uint64_t limit, bool faulted) {
  if (!faulted) {
    engine.run(limit);
    return {};
  }
  try {
    engine.run(limit);
    return {};
  } catch (const std::logic_error& e) {
    return e.what();
  }
}

/// Fills the fault-mode verdict fields.  Under faults the protocol's own
/// dispersed() claim is re-checked against the actual configuration (its
/// belief may have desynced from vetoed moves); without faults, recovery
/// trivially mirrors dispersal.
void fillFaultVerdicts(RunResult& r, const FaultInjector* inj, bool limitHit,
                       std::string protocolError) {
  if (inj == nullptr) {
    r.recovered = r.dispersed;
    return;
  }
  r.dispersed = r.dispersed && protocolError.empty() && isDispersed(r.finalPositions);
  r.limitHit = limitHit;
  r.faultsInjected = inj->applied();
  r.protocolError = std::move(protocolError);
  if (r.protocolError.empty()) {
    r.recovered = inj->recovered();
    r.recoveredAt = inj->recoveredAt();
  }
}

}  // namespace

RunResult runSession(const Graph& g, const Placement& placement,
                     const RunOptions& opts) {
  const AlgorithmDef& def = algorithmDef(opts.algorithm);
  const auto k = static_cast<std::uint32_t>(placement.positions.size());
  DISP_REQUIRE(k >= 1, "placement is empty");
  DISP_REQUIRE(opts.sampleEvery >= 1, "sampleEvery must be >= 1");
  DISP_REQUIRE(opts.runThreads == 1, "runThreads must be 1 (runs are single-threaded)");
  if (def.traits.requiresRooted) {
    for (const NodeId v : placement.positions) {
      DISP_REQUIRE(v == placement.positions.front(),
                   "algorithm '" + def.traits.key +
                       "' requires a rooted placement (all agents on one node)");
    }
  }

  std::vector<TrajectoryPoint> trajectory;

  // Fault load: parse once, materialize the seed-deterministic schedule per
  // engine model (ASYNC time parameters scale by k; see FaultInjector).
  const FaultSpec faultSpec = FaultSpec::parse(opts.faults);

  if (!def.traits.isAsync) {
    const std::uint64_t limit =
        opts.limit ? opts.limit : 20000ULL * k + 40ULL * g.edgeCount() + 400000;
    SyncEngine engine(g, placement.positions, placement.ids);
    EngineObserver obs = buildObserver(opts, /*async=*/false, &trajectory);
    if (obs.any()) engine.installObserver(std::move(obs));
    std::unique_ptr<FaultInjector> inj;
    if (faultSpec.any()) {
      inj = std::make_unique<FaultInjector>(faultSpec, g, k, opts.seed,
                                            /*async=*/false);
      engine.installFaults(inj.get());
    }
    const auto algo = def.makeSync(engine);
    algo->start();
    std::string protoErr = runEngine(engine, limit, inj != nullptr);
    RunResult r = finishSync(engine, protoErr.empty() && algo->dispersed());
    fillFaultVerdicts(r, inj.get(), engine.limitHit(), std::move(protoErr));
    r.trajectory = std::move(trajectory);
    return r;
  }

  const std::uint64_t limit =
      opts.limit ? opts.limit
                 : 4000ULL * k * k + 800ULL * k * g.maxDegree() + 8000000ULL;
  AsyncEngine engine(g, placement.positions, placement.ids,
                     makeSchedulerByName(opts.scheduler, k, opts.seed));
  EngineObserver obs = buildObserver(opts, /*async=*/true, &trajectory);
  if (obs.any()) engine.installObserver(std::move(obs));
  std::unique_ptr<FaultInjector> inj;
  if (faultSpec.any()) {
    inj = std::make_unique<FaultInjector>(faultSpec, g, k, opts.seed,
                                          /*async=*/true);
    engine.installFaults(inj.get());
  }
  const auto algo = def.makeAsync(engine);
  algo->start();
  std::string protoErr = runEngine(engine, limit, inj != nullptr);
  RunResult r = finishAsync(engine, protoErr.empty() && algo->dispersed());
  fillFaultVerdicts(r, inj.get(), engine.limitHit(), std::move(protoErr));
  r.trajectory = std::move(trajectory);
  return r;
}

RunResult runScenario(const std::string& graphSpec, const std::string& placementSpec,
                      std::uint32_t k, const RunOptions& opts, std::uint32_t n) {
  DISP_REQUIRE(k >= 1, "k must be >= 1");
  const Graph g = GraphSpec::parse(graphSpec)
                      .instantiate(n != 0 ? n : 2 * k, opts.seed,
                                   PortLabeling::RandomPermutation);
  const Placement p = PlacementSpec::parse(placementSpec).place(g, k, opts.seed);
  return runSession(g, p, opts);
}

}  // namespace disp
