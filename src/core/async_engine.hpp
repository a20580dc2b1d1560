#pragma once
// ASYNC model: agents are activated one at a time by a fair adversarial
// scheduler; an activation is one full Communicate–Compute–Move cycle
// (reads of co-located memory, local computation, at most one edge
// traversal — atomic per activation, matching the paper's guarantee that
// agents rest on nodes between cycles).
//
// Time is measured in *epochs* (paper §2): epoch i ends at the first moment
// every agent has completed at least one full cycle since epoch i-1 ended.
//
// Protocol code runs in one fiber per agent: a loop of
// `co_await engine.nextActivation(a)` punctuated by at most one
// `engine.move(a, port)` per activation.  A protocol signals global
// termination via `engine.finish()` (e.g. when the last leader settles).
//
// An agent with nothing to do parks instead (`co_await engine.park(a)`):
// its activations still count toward activations and epochs, and the
// scheduler makes the same draws, but its fiber is not resumed until
// another agent writes it work and calls `engine.wake(a)`.  Such an
// activation would change no state, so skipping it changes no fact.  In
// !NDEBUG builds the engine resumes parked agents anyway, with the park
// reporting "not woken", so the protocol can check that its idle predicate
// still holds (DESIGN.md §6).

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/faults.hpp"
#include "core/fiber.hpp"
#include "core/memory.hpp"
#include "core/scheduler.hpp"
#include "core/trace.hpp"
#include "core/world.hpp"
#include "graph/graph.hpp"
#include "util/check.hpp"

namespace disp {

class AsyncEngine {
 public:
  AsyncEngine(const Graph& g, std::vector<NodeId> startPositions,
              std::vector<AgentId> ids, std::unique_ptr<Scheduler> scheduler);

  // --- world queries ---
  [[nodiscard]] const Graph& graph() const noexcept { return world_.graph(); }
  [[nodiscard]] std::uint32_t agentCount() const noexcept { return world_.agentCount(); }
  [[nodiscard]] AgentId idOf(AgentIx a) const { return world_.idOf(a); }
  [[nodiscard]] NodeId positionOf(AgentIx a) const { return world_.positionOf(a); }
  [[nodiscard]] Port pinOf(AgentIx a) const { return world_.pinOf(a); }
  [[nodiscard]] const std::vector<AgentIx>& agentsAt(NodeId v) const {
    return world_.agentsAt(v);
  }
  /// O(1) co-location count (agentsAt(v).size() without materializing).
  [[nodiscard]] std::uint32_t countAt(NodeId v) const { return world_.countAt(v); }
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }
  [[nodiscard]] std::uint64_t activations() const noexcept { return activations_; }
  [[nodiscard]] std::uint64_t totalMoves() const noexcept { return world_.totalMoves(); }
  [[nodiscard]] MemoryLedger& memory() noexcept { return memory_; }

  // --- observability (core/trace.hpp) ---
  /// Installs the observer; call before run().  Snapshots fire every
  /// observer.sampleEvery completed activations.
  void installObserver(EngineObserver observer) { trace_.install(std::move(observer)); }
  /// True iff an onEvent hook is installed.
  [[nodiscard]] bool tracing() const noexcept { return trace_.tracing(); }
  /// True iff stopWhen truncated the run before the protocol finished.
  [[nodiscard]] bool stopRequested() const noexcept { return trace_.stopRequested(); }
  /// Settled-agent count per the protocol's traceSettle/traceUnsettle.
  [[nodiscard]] std::uint32_t settledCount() const noexcept {
    return trace_.settledCount();
  }

  /// Protocol-side trace taps (see SyncEngine for the shared contract);
  /// events are stamped with the current activation index.
  void traceSettle(AgentIx a, std::uint32_t label = kNoTraceLabel) {
    trace_.settle(activations_, a, world_.positionOf(a), label);
  }
  void traceUnsettle(AgentIx a, std::uint32_t oldLabel = kNoTraceLabel,
                     std::uint32_t byLabel = kNoTraceLabel) {
    trace_.unsettle(activations_, a, world_.positionOf(a), oldLabel, byLabel);
  }
  void traceEvent(TraceEventKind kind, AgentIx agent, NodeId node, std::uint32_t a,
                  std::uint32_t b) {
    trace_.emit({kind, activations_, agent, node, a, b});
  }

  // --- protocol-side API (only valid inside fibers) ---
  /// Awaitable: suspends agent `a` until the scheduler activates it again.
  [[nodiscard]] StepAwait nextActivation(AgentIx a);

  /// Awaitable returned by park(): `co_await` yields true once wake() has
  /// ended the park and the agent is activated; false when a !NDEBUG build
  /// resumes the still-parked agent at an activation for the idle audit.
  struct ParkAwait {
    ResumeSlot* parked;
    const bool* auditing;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept { parked->pending = h; }
    bool await_resume() const noexcept { return !*auditing; }
  };
  /// Awaitable: parks agent `a` until another agent calls wake(a); the
  /// parked agent's activations are counted but do not resume it.  Await it
  /// as `for (bool woken = false; !woken;) woken = co_await park(a);`,
  /// checking the idle predicate when not woken: gcc 12 miscompiles a
  /// co_await in a loop condition.
  [[nodiscard]] ParkAwait park(AgentIx a);
  /// Ends agent `a`'s park: it resumes at its next activation.  A no-op
  /// unless `a` is parked.  Call it with every write that gives `a` work.
  void wake(AgentIx a) {
    DISP_DCHECK(a < agentCount(), "wake: agent out of range");
    FiberState& fiber = fibers_[a];
    if (fiber.parked.armed()) fiber.slot.pending = fiber.parked.take();
  }

  /// Moves agent `a` through port `p` now.  At most one move per activation
  /// (enforced); only the currently activated agent may move.
  void move(AgentIx a, Port p);

  /// Fires after every committed move with (agent, from, to).  Protocols use
  /// it to keep incremental position indexes (algo/probe_index.hpp) in sync
  /// with the world; at most one hook per engine, installed before run().
  /// The hook must outlive every move() call (protocols own their engine's
  /// whole run, so capturing `this` is safe).
  using MoveHook = std::function<void(AgentIx, NodeId from, NodeId to)>;
  void setMoveHook(MoveHook hook) {
    DISP_CHECK(!moveHook_, "AsyncEngine: move hook already installed");
    moveHook_ = std::move(hook);
  }

  /// Marks the protocol finished; run() returns after the current activation.
  void finish() noexcept { finished_ = true; }

  // --- fault injection (core/faults.hpp, DESIGN.md §11) ---
  /// Installs the per-run fault injector (non-owning; must outlive run()).
  /// Call before run().  With an injector installed:
  ///  * crashed agents are still scheduled (their activations count toward
  ///    epochs — crash-stop must not freeze time) but their fibers are not
  ///    resumed,
  ///  * move() through a port invalid for the agent's actual position, or
  ///    through a churned-down edge, becomes a failed attempt (the agent
  ///    stays put; the attempt still consumes the activation's move budget),
  ///  * hitting the activation cap reports limitHit() instead of throwing.
  void installFaults(FaultInjector* faults) { faults_ = faults; }
  /// True iff a fault-mode run ended at the activation cap (verdict).
  [[nodiscard]] bool limitHit() const noexcept { return limitHit_; }

  // --- orchestration ---
  /// Registers agent `a`'s program.  Every agent must have exactly one.
  void setAgentFiber(AgentIx a, Task task);

  /// Activates agents per the scheduler until finish() or the activation
  /// cap; throws on a fiber exception or when the cap is hit unfinished.
  void run(std::uint64_t maxActivations);

  [[nodiscard]] std::vector<NodeId> positionsSnapshot() const;

 private:
  struct FiberState {
    Task task;
    ResumeSlot slot;    ///< resumed at the agent's next activation
    ResumeSlot parked;  ///< skipped until wake() moves it into `slot`
    bool started = false;
  };

  /// Runs agent `a`'s fiber from `h` to its next suspension, as `a`'s turn.
  void resume(AgentIx a, std::coroutine_handle<> h);

  World world_;
  MemoryLedger memory_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<FiberState> fibers_;
  std::uint64_t epochs_ = 0;
  std::uint64_t activations_ = 0;
  // Epoch-stamp accounting: lastActiveStamp_[a] is the value epochStamp_
  // held when agent a last completed a cycle; agents with a stale stamp
  // have not yet been active in the current epoch.  Stamps start at 0 and
  // epochStamp_ at 1, so every agent begins "not yet active".
  std::vector<std::uint64_t> lastActiveStamp_;
  std::uint64_t epochStamp_ = 1;
  std::uint32_t activeCount_ = 0;
  AgentIx current_ = kNoAgent;
  bool movedThisActivation_ = false;
  bool auditing_ = false;  ///< !NDEBUG: resuming a parked agent unwoken
  bool inSetup_ = false;
  bool finished_ = false;
  MoveHook moveHook_;  ///< protocol index maintenance (optional)
  TraceHost trace_;    ///< observability (inert without installObserver)
  FaultInjector* faults_ = nullptr;  ///< fault mode (inert when null)
  bool limitHit_ = false;            ///< fault-mode cap verdict
};

}  // namespace disp
