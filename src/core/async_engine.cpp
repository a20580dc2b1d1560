#include "core/async_engine.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace disp {

AsyncEngine::AsyncEngine(const Graph& g, std::vector<NodeId> startPositions,
                         std::vector<AgentId> ids, std::unique_ptr<Scheduler> scheduler)
    : world_(g, std::move(startPositions), std::move(ids)),
      memory_(world_.agentCount()),
      scheduler_(std::move(scheduler)),
      fibers_(world_.agentCount()),
      lastActiveStamp_(world_.agentCount(), 0) {
  DISP_REQUIRE(scheduler_ != nullptr, "scheduler required");
}

StepAwait AsyncEngine::nextActivation(AgentIx a) {
  DISP_CHECK(a == current_, "agent awaited activation outside its own turn");
  return StepAwait{&fibers_[a].slot};
}

AsyncEngine::ParkAwait AsyncEngine::park(AgentIx a) {
  DISP_CHECK(a == current_, "agent parked outside its own turn");
  return ParkAwait{&fibers_[a].parked, &auditing_};
}

void AsyncEngine::move(AgentIx a, Port p) {
  DISP_CHECK(a == current_, "only the activated agent may move");
  DISP_CHECK(!inSetup_, "no moves before the first activation (time starts at t=0)");
  DISP_CHECK(!movedThisActivation_, "an activation allows at most one move");
  const NodeId from = world_.positionOf(a);
  if (faults_ != nullptr) [[unlikely]] {
    // Fault mode: the attempt consumes the activation's move budget whether
    // or not it succeeds.  A port invalid for the agent's *actual* position
    // (its protocol's belief desynced by an earlier vetoed move) or a
    // churned-down edge makes this a failed traversal — the agent stays put.
    movedThisActivation_ = true;
    if (p < 1 || p > graph().degree(from)) return;
    if (faults_->edgeFaultsActive() && faults_->edgeDown(from, graph().neighbor(from, p))) {
      return;
    }
    faults_->noteMove(world_.countAt(from), world_.countAt(graph().neighbor(from, p)));
  }
  world_.applyMove(a, p);
  movedThisActivation_ = true;
  if (moveHook_) moveHook_(a, from, world_.positionOf(a));
  trace_.emit({TraceEventKind::Move, activations_, a, world_.positionOf(a), from, p});
}

void AsyncEngine::setAgentFiber(AgentIx a, Task task) {
  DISP_REQUIRE(a < agentCount(), "agent out of range");
  DISP_REQUIRE(task.valid(), "fiber task is empty");
  DISP_REQUIRE(!fibers_[a].task.valid(), "agent already has a fiber");
  fibers_[a].task = std::move(task);
}

void AsyncEngine::run(std::uint64_t maxActivations) {
  for (AgentIx a = 0; a < agentCount(); ++a) {
    DISP_REQUIRE(fibers_[a].task.valid(), "every agent needs a fiber before run()");
  }

  // Kick every fiber to its first `co_await nextActivation(...)` or
  // `park(...)`.  This is t = 0 setup, not an activation: no moves are
  // permitted yet.
  inSetup_ = true;
  for (AgentIx a = 0; a < agentCount(); ++a) {
    FiberState& fiber = fibers_[a];
    if (fiber.started) continue;
    fiber.started = true;
    resume(a, fiber.task.rootHandle());
  }
  inSetup_ = false;

  if (faults_ != nullptr) {
    // Seed the excess counter and apply t = 0 faults (byzantine-silent
    // agents) before the first activation.
    faults_->initConfig(world_);
    faults_->advanceTo(activations_, world_, trace_);
    faults_->noteConfig(activations_);
  }
  while (!finished_) {
    if (activations_ >= maxActivations) {
      if (faults_ != nullptr) {
        // Under faults a protocol may legitimately never terminate (e.g.
        // crash-stopped agents it waits for); the cap is a verdict, not a
        // bug — report it and let the session score recovery.
        limitHit_ = true;
        break;
      }
      throw std::runtime_error(
          "AsyncEngine: activation cap exceeded (deadlock or bug); activations=" +
          std::to_string(activations_));
    }
    const AgentIx a = scheduler_->next();
    DISP_CHECK(a < agentCount(), "scheduler returned bad agent");

    // Dispatch is hoisted behind the armed() check: an activation of an
    // agent whose fiber already returned (it keeps being scheduled until
    // finish()) or is parked skips the resume bookkeeping entirely but
    // still counts toward the epoch, exactly as before.  Crashed agents are
    // likewise scheduled-but-not-resumed: their activations keep counting
    // toward epochs, so crash-stop cannot freeze time.
    FiberState& fiber = fibers_[a];
    if (!(faults_ != nullptr && faults_->crashed(a))) {
      if (fiber.slot.armed()) {
        resume(a, fiber.slot.take());
      }
#ifndef NDEBUG
      else if (fiber.parked.armed()) {
        // Idle audit: the parked fiber runs this activation with its park
        // reporting "not woken" and checks that it still has nothing to do.
        auditing_ = true;
        resume(a, fiber.parked.take());
        auditing_ = false;
      }
#endif
    }

    ++activations_;
    // Epoch-stamp accounting: instead of clearing a per-agent flag array at
    // every epoch boundary (an O(k) std::fill on the hot path), each agent
    // records the stamp of the epoch it was last active in; bumping the
    // stamp retires all k flags at once.
    if (lastActiveStamp_[a] != epochStamp_) {
      lastActiveStamp_[a] = epochStamp_;
      if (++activeCount_ == agentCount()) {
        ++epochs_;
        activeCount_ = 0;
        ++epochStamp_;
      }
    }
    if (faults_ != nullptr) {
      // Activation boundary: the configuration is stable here (agents rest
      // on nodes between cycles), so score recovery and apply any faults
      // scheduled at or before this activation.
      faults_->noteConfig(activations_);
      faults_->advanceTo(activations_, world_, trace_);
    }
    const auto fill = [this](std::vector<NodeId>& v) {
      for (AgentIx b = 0; b < agentCount(); ++b) v[b] = positionOf(b);
    };
    if (trace_.sampleAtCadence(activations_, epochs_, totalMoves(), agentCount(),
                               fill) &&
        !finished_) {
      // Early stop: remaining fibers stay suspended (destroyed with the
      // engine); the session reports the partial facts with stoppedEarly.
      // A stopWhen firing on the very activation the protocol finished is
      // moot — the run completed.
      trace_.requestStop();
      break;
    }
  }
  // A partially elapsed epoch still counts as time spent.
  if (activeCount_ > 0) ++epochs_;
  // Close the series on the terminal state (off-cadence run end).
  trace_.closeSeries(activations_, epochs_, totalMoves(), agentCount(),
                     [this](std::vector<NodeId>& v) {
                       for (AgentIx b = 0; b < agentCount(); ++b) v[b] = positionOf(b);
                     });
}

void AsyncEngine::resume(AgentIx a, std::coroutine_handle<> h) {
  current_ = a;
  movedThisActivation_ = false;
  h.resume();
  current_ = kNoAgent;
  if (fibers_[a].task.done()) fibers_[a].task.rethrowIfFailed();
}

std::vector<NodeId> AsyncEngine::positionsSnapshot() const {
  std::vector<NodeId> out(agentCount());
  for (AgentIx a = 0; a < agentCount(); ++a) out[a] = positionOf(a);
  return out;
}

}  // namespace disp
