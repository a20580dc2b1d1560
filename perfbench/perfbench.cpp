// perfbench — outside-in performance benchmark of the dispersion simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--small] [--pin KEY=VALUE,...] [--commit SHA]
//
// One workload per process, one thread, one lane (runThreads = 1).  The
// benchmark sees the library only through its public headers and times
// calls into them from outside:
//
//  1. setup   GraphSpec::instantiate + PlacementSpec::place, repeated (at
//             least three times, up to one second's worth); the median is
//             setup_s.
//  2. warm-up one untraced runSession; its facts are the run's reference.
//  3. timed   untraced runSession calls for S seconds (at least three); the
//             median wall time is run_s.  peak_rss_mb is the VmHWM over
//             phases 1 and 3 only (the watermark is reset around them).
//  4. traced  one runSession with an onEvent hook that counts events by kind
//             and records the Move stream: 8 B per move, plus per-round
//             offsets (SYNC) or a one-bit-per-activation "moved" map (ASYNC).
//  5. replays of that stream from outside the protocols, three times each
//     with --trace 1 (medians reported) and once with --trace 0:
//             (a) World::applyMove on a fresh World            -> world.apply_s
//             (b) (a) plus agentsAt(source), agentsAt(dest)    -> view cost
//             (c) the real engine — SYNC: one fiber staging each round's
//                 moves then awaiting nextRound(); ASYNC: one fiber per agent
//                 under the same scheduler and seed, moving at its recorded
//                 activations and calling finish() at the recorded count
//                                                              -> engine.replay_s
//             (d) ASYNC: Scheduler::next() once per recorded activation;
//                 SYNC: the bare round loop (one fiber, no moves)
//                                                              -> scheduler.*
//
// Every run and replay is checked against the reference facts (dispersed,
// time, activations, moves, memory bits, final positions), and the reference
// against --pin values when given.  A miss counts as a failed attempt and
// makes the exit code 1.  Human-readable lines (host stamp, facts, every
// metric with its unit) precede the last stdout line, a JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer ones with
// --trace 1.  A build without NDEBUG is refused (exit 3): DCHECKs distort
// the timings.

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/placement.hpp"
#include "algo/registry.hpp"
#include "algo/runner.hpp"
#include "core/async_engine.hpp"
#include "core/fiber.hpp"
#include "core/metrics.hpp"
#include "core/scheduler.hpp"
#include "core/sync_engine.hpp"
#include "core/trace.hpp"
#include "core/world.hpp"
#include "graph/spec.hpp"
#include "util/mem.hpp"

namespace {

using namespace disp;
using Clock = std::chrono::steady_clock;

// --------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  const char* algorithm;
  const char* scheduler;  ///< ASYNC only
  const char* graph;
  std::uint32_t n;  ///< context size for graph specs that do not pin theirs
  std::uint32_t k;
  const char* placement;
  // Same shape at k = 64, for the self-test.
  const char* smallGraph;
  std::uint32_t smallN;
  std::uint32_t smallK;
};

constexpr Workload kWorkloads[] = {
    {"sync_rooted", "rooted_sync", "round_robin", "er", 8192, 4096, "rooted", "er", 128,
     64},
    {"async_general", "general_async", "uniform", "er", 2048, 1024, "clusters:l=8", "er",
     128, 64},
    {"sync_general_sparse", "general_sync", "round_robin", "er:fast=1,n=1048576", 0, 4096,
     "adversarial:frontier", "er:fast=1,n=4096", 0, 64},
};

/// The default seed 1 reproduces the pinned facts: graph seed 7, placement
/// seed 3, run seed 5.  The graph is part of each workload's definition and
/// stays fixed: another G(n,p) instance at n = 2^20 shifts the run's work by
/// about 15%, more than the timing bounds.  --seed drives the agent IDs, the
/// cluster positions and the ASYNC schedule.
struct Seeds {
  std::uint64_t graph;
  std::uint64_t placement;
  std::uint64_t run;
};
Seeds seedsFor(std::uint64_t seed) { return {7, seed + 2, seed + 4}; }

constexpr std::size_t kMinTimedRuns = 3;
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 25;
constexpr double kSetupBudgetS = 1.0;
constexpr std::size_t kTracedReplays = 3;

// ----------------------------------------------------------------- helpers

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Keeps replay results observable so the timed loops cannot be elided.
volatile std::uint64_t gSink = 0;

std::uint64_t positionsHash(const std::vector<NodeId>& positions) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, 64-bit
  for (const NodeId v : positions) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (v >> shift) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19] = "0x";
  const auto res = std::to_chars(buf + 2, buf + sizeof buf, v, 16);
  return std::string(buf, res.ptr);
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// ------------------------------------------------------------------- facts

struct Facts {
  bool dispersed = false;
  std::uint64_t time = 0;  ///< rounds (SYNC) / epochs (ASYNC)
  std::uint64_t activations = 0;
  std::uint64_t moves = 0;
  std::uint64_t maxMemoryBits = 0;
  std::vector<NodeId> positions;
};

Facts factsOf(const RunResult& r) {
  return {r.dispersed && !r.stoppedEarly && isDispersed(r.finalPositions), r.time,
          r.activations, r.totalMoves, r.maxMemoryBits, r.finalPositions};
}

bool sameFacts(const Facts& a, const Facts& b) {
  return a.dispersed == b.dispersed && a.time == b.time &&
         a.activations == b.activations && a.moves == b.moves &&
         a.maxMemoryBits == b.maxMemoryBits && a.positions == b.positions;
}

/// Replays reproduce counters and positions; memory bits are protocol state
/// they never touch.
bool sameMotion(const Facts& replay, const Facts& ref) {
  return replay.time == ref.time && replay.activations == ref.activations &&
         replay.moves == ref.moves && replay.positions == ref.positions;
}

/// Failed-attempt accounting: every run and replay is one attempt.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: FAIL " << what << '\n';
    }
  }
};

/// Compares the reference facts with `--pin key=value,...`; returns the
/// mismatches (empty = all pins hold).
std::vector<std::string> checkPins(const std::map<std::string, std::string>& pins,
                                   const Facts& ref) {
  const std::map<std::string, std::string> actual = {
      {"time", std::to_string(ref.time)},
      {"activations", std::to_string(ref.activations)},
      {"moves", std::to_string(ref.moves)},
      {"max_memory_bits", std::to_string(ref.maxMemoryBits)},
      {"positions_hash", hex(positionsHash(ref.positions))},
  };
  std::vector<std::string> misses;
  for (const auto& [key, want] : pins) {
    const auto it = actual.find(key);
    if (it == actual.end()) {
      misses.push_back("unknown pinned fact '" + key + "'");
    } else if (it->second != want) {
      misses.push_back("pinned " + key + "=" + want + " but the run gives " + it->second);
    }
  }
  return misses;
}

// ------------------------------------------------------------- move stream

struct MoveRec {
  AgentIx agent;
  Port port;
};
static_assert(sizeof(MoveRec) == 8, "the recorded stream keeps 8 B per move");

struct MoveStream {
  std::vector<MoveRec> moves;
  /// SYNC: index of each round's first move, plus the total at the end.
  std::vector<std::uint64_t> roundStart;
  /// ASYNC: bit t set iff activation t moved (moves are in activation order).
  std::vector<std::uint64_t> movedAt;
  std::uint64_t activations = 0;  ///< ASYNC: recorded activation count
  bool outOfStep = false;         ///< an event fell outside the reference run

  [[nodiscard]] bool moved(std::uint64_t t) const {
    return ((movedAt[t >> 6] >> (t & 63)) & 1U) != 0;
  }
  [[nodiscard]] double megabytes() const {
    const double bytes = static_cast<double>(moves.size() * sizeof(MoveRec) +
                                             roundStart.size() * sizeof(std::uint64_t) +
                                             movedAt.size() * sizeof(std::uint64_t));
    return bytes / (1024.0 * 1024.0);
  }
};

struct TracedRun {
  Facts facts;
  double seconds = 0.0;
  std::array<std::uint64_t, 16> events{};
  MoveStream stream;
};

/// Phase 4: one observed session.  Buffers are sized from the reference
/// facts, so recording never reallocates.
TracedRun tracedRun(const Graph& g, const Placement& p, RunOptions opts, const Facts& ref,
                    bool async) {
  TracedRun tr;
  MoveStream& s = tr.stream;
  s.moves.reserve(ref.moves);
  if (async) {
    s.activations = ref.activations;
    s.movedAt.assign((ref.activations + 63) / 64, 0);
  } else {
    s.roundStart.reserve(ref.time + 1);
  }
  opts.onEvent = [&tr, &s, async](const TraceEvent& e) {
    ++tr.events[static_cast<std::size_t>(e.kind)];
    if (e.kind != TraceEventKind::Move) return;
    if (async) {
      if (e.time >= s.activations) {
        s.outOfStep = true;
        return;
      }
      s.movedAt[e.time >> 6] |= std::uint64_t{1} << (e.time & 63);
    } else {
      while (s.roundStart.size() <= e.time) s.roundStart.push_back(s.moves.size());
    }
    s.moves.push_back({e.agent, e.b});
  };
  const auto t0 = Clock::now();
  const RunResult r = runSession(g, p, opts);
  tr.seconds = secondsSince(t0);
  tr.facts = factsOf(r);
  if (!async) {
    while (s.roundStart.size() <= r.time) s.roundStart.push_back(s.moves.size());
  }
  return tr;
}

std::vector<NodeId> worldPositions(const World& w) {
  std::vector<NodeId> out(w.agentCount());
  for (AgentIx a = 0; a < w.agentCount(); ++a) out[a] = w.positionOf(a);
  return out;
}

/// Phase 5a/5b: the stream through World::applyMove on a fresh World,
/// optionally querying the sorted occupancy view of both endpoints after
/// every move.  Returns the seconds spent in the loop.
double replayWorld(const Graph& g, const Placement& p, const MoveStream& s,
                   bool queryViews, const Facts& ref, Ledger& ledger) {
  World w(g, p.positions, p.ids);
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  if (queryViews) {
    for (const MoveRec& m : s.moves) {
      const NodeId from = w.positionOf(m.agent);
      w.applyMove(m.agent, m.port);
      sink += w.agentsAt(from).size() + w.agentsAt(w.positionOf(m.agent)).size();
    }
  } else {
    for (const MoveRec& m : s.moves) w.applyMove(m.agent, m.port);
  }
  const double seconds = secondsSince(t0);
  gSink = sink;
  ledger.record(w.totalMoves() == ref.moves && worldPositions(w) == ref.positions,
                queryViews ? "world replay with agentsAt queries" : "world replay");
  return seconds;
}

Task syncReplayFiber(SyncEngine& engine, const MoveStream& s) {
  for (std::size_t r = 0; r + 1 < s.roundStart.size(); ++r) {
    for (std::uint64_t i = s.roundStart[r]; i < s.roundStart[r + 1]; ++i) {
      engine.stageMove(s.moves[i].agent, s.moves[i].port);
    }
    co_await engine.nextRound();
  }
}

Task asyncReplayFiber(AsyncEngine& engine, AgentIx a, const MoveStream& s,
                      std::size_t& cursor) {
  for (;;) {
    co_await engine.nextActivation(a);
    const std::uint64_t t = engine.activations();
    if (s.moved(t)) {
      if (cursor >= s.moves.size() || s.moves[cursor].agent != a) {
        throw std::runtime_error("replayed schedule left the recorded move stream");
      }
      engine.move(a, s.moves[cursor++].port);
    }
    if (t + 1 == s.activations) engine.finish();
  }
}

/// Phase 5c: the stream through the real engine.  Returns run() seconds.
double replayEngine(const Graph& g, const Placement& p, const MoveStream& s,
                    const Workload& w, std::uint64_t runSeed, const Facts& ref,
                    bool async, Ledger& ledger) {
  const auto k = static_cast<std::uint32_t>(p.positions.size());
  Facts got;
  double seconds = 0.0;
  try {
    if (async) {
      AsyncEngine engine(g, p.positions, p.ids, makeSchedulerByName(w.scheduler, k, runSeed));
      std::size_t cursor = 0;
      for (AgentIx a = 0; a < k; ++a) {
        engine.setAgentFiber(a, asyncReplayFiber(engine, a, s, cursor));
      }
      const auto t0 = Clock::now();
      if (s.activations > 0) engine.run(s.activations);
      seconds = secondsSince(t0);
      got = {true, engine.epochs(), engine.activations(), engine.totalMoves(), 0,
             engine.positionsSnapshot()};
    } else {
      SyncEngine engine(g, p.positions, p.ids);
      engine.addFiber(syncReplayFiber(engine, s));
      const auto t0 = Clock::now();
      engine.run(ref.time + 1);
      seconds = secondsSince(t0);
      got = {true, engine.round(), engine.round() * k, engine.totalMoves(), 0,
             engine.positionsSnapshot()};
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: engine replay threw: " << e.what() << '\n';
    ledger.record(false, "engine replay");
    return seconds;
  }
  ledger.record(sameMotion(got, ref), "engine replay");
  return seconds;
}

/// Phase 5d (ASYNC): Scheduler::next() once per recorded activation.
double replayScheduler(const Workload& w, std::uint32_t k, std::uint64_t runSeed,
                       std::uint64_t activations) {
  const auto sched = makeSchedulerByName(w.scheduler, k, runSeed);
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < activations; ++i) sink += sched->next();
  const double seconds = secondsSince(t0);
  gSink = sink;
  return seconds;
}

/// Phase 5d (SYNC): SYNC has no Scheduler; its time-step dispatch is the
/// engine's round loop, timed bare — one fiber, no moves, the recorded
/// number of rounds.
double replayRounds(const Graph& g, const Placement& p, const Facts& ref, Ledger& ledger) {
  SyncEngine engine(g, p.positions, p.ids);
  engine.addFiber(skipRounds(engine, static_cast<std::uint32_t>(ref.time)));
  const auto t0 = Clock::now();
  try {
    engine.run(ref.time + 1);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: bare round loop threw: " << e.what() << '\n';
  }
  const double seconds = secondsSince(t0);
  ledger.record(engine.round() == ref.time, "bare round loop");
  return seconds;
}

// --------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto value = line.find_first_not_of(' ', line.find(':') + 1);
      if (line.find(':') != std::string::npos && value != std::string::npos) {
        return line.substr(value);
      }
    }
  }
  return "unknown";
}

std::string compilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void printJson(bool correct, const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted << ", \"failed\": " << ledger.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
              << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

// -------------------------------------------------------------------- main

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::map<std::string, std::string> pins;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--small] [--pin KEY=VALUE,...] [--commit SHA]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

std::uint64_t parseU64(const std::string& text, const char* flag) {
  std::uint64_t v = 0;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
  if (res.ec != std::errc() || res.ptr != text.data() + text.size()) {
    usage(std::string("bad ") + flag + " value '" + text + "'");
  }
  return v;
}

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args.small = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      args.seed = parseU64(value, "--seed");
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parseU64(value, "--seconds"));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--pin") {
      std::size_t start = 0;
      while (start < value.size()) {
        std::size_t end = value.find(',', start);
        if (end == std::string::npos) end = value.size();
        const std::string item = value.substr(start, end - start);
        const auto eq = item.find('=');
        if (eq == std::string::npos) usage("--pin wants KEY=VALUE, got '" + item + "'");
        args.pins[item.substr(0, eq)] = item.substr(eq + 1);
        start = end + 1;
      }
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload == nullptr) usage("--workload is required");
  return args;
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  const Seeds seeds = seedsFor(args.seed);
  const bool async = algorithmDef(w.algorithm).traits.isAsync;
  const GraphSpec graphSpec = GraphSpec::parse(args.small ? w.smallGraph : w.graph);
  const PlacementSpec placementSpec = PlacementSpec::parse(w.placement);
  const std::uint32_t n = args.small ? w.smallN : w.n;
  const std::uint32_t k = args.small ? w.smallK : w.k;

  std::cout << "host hardware_threads=" << std::thread::hardware_concurrency() << " cpu=\""
            << cpuModel() << "\" compiler=\"" << compilerId()
            << "\" build=" PERFBENCH_BUILD_TYPE " ndebug=1 commit=" << args.commit << '\n'
            << "workload " << w.name << (args.small ? " (small)" : "") << ": "
            << w.algorithm << " graph=" << graphSpec.toString()
            << " placement=" << placementSpec.toString() << " k=" << k
            << (async ? std::string(" scheduler=") + w.scheduler : std::string())
            << " seed=" << args.seed << " (graph " << seeds.graph << ", placement "
            << seeds.placement << ", run " << seeds.run << ")\n";

  Ledger ledger;

  // Phase 1: setup, repeated; the last instance is kept.
  (void)resetPeakRss();
  std::optional<Graph> graph;
  Placement placement;
  std::vector<double> buildS;
  std::vector<double> placeS;
  std::vector<double> setupS;
  const auto setupStart = Clock::now();
  while (setupS.size() < kMinSetups ||
         (setupS.size() < kMaxSetups && secondsSince(setupStart) < kSetupBudgetS)) {
    graph.reset();
    const auto t0 = Clock::now();
    graph.emplace(graphSpec.instantiate(n, seeds.graph, PortLabeling::RandomPermutation));
    const auto t1 = Clock::now();
    placement = placementSpec.place(*graph, k, seeds.placement);
    const auto t2 = Clock::now();
    buildS.push_back(std::chrono::duration<double>(t1 - t0).count());
    placeS.push_back(std::chrono::duration<double>(t2 - t1).count());
    setupS.push_back(std::chrono::duration<double>(t2 - t0).count());
  }
  const double setupPeakMb = peakRssMb();
  const double setupRssMb = currentRssMb();
  const Graph& g = *graph;

  RunOptions opts;
  opts.algorithm = w.algorithm;
  opts.scheduler = w.scheduler;
  opts.seed = seeds.run;
  opts.runThreads = 1;

  const auto attempt = [&](const char* what) -> std::optional<Facts> {
    try {
      return factsOf(runSession(g, placement, opts));
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << what << " threw: " << e.what() << '\n';
      return std::nullopt;
    }
  };

  // Phase 2: warm-up; its facts are the reference for everything after.
  const std::optional<Facts> warm = attempt("warm-up run");
  if (!warm || !warm->dispersed) {
    ledger.record(false, "warm-up run did not disperse");
    printJson(false, ledger, {});
    return 1;
  }
  const Facts& ref = *warm;
  const std::vector<std::string> pinMisses = checkPins(args.pins, ref);
  for (const std::string& miss : pinMisses) std::cerr << "perfbench: " << miss << '\n';
  const bool pinsHold = pinMisses.empty();
  ledger.record(pinsHold, "warm-up run");

  // Phase 3: timed runs.
  (void)resetPeakRss();
  std::vector<double> runS;
  const auto timedStart = Clock::now();
  while (runS.size() < kMinTimedRuns || secondsSince(timedStart) < args.seconds) {
    const auto t0 = Clock::now();
    const std::optional<Facts> f = attempt("timed run");
    runS.push_back(secondsSince(t0));
    ledger.record(f && pinsHold && sameFacts(*f, ref), "timed run");
  }
  const double runPeakMb = peakRssMb();

  // Phase 4: traced run.
  TracedRun traced;
  try {
    traced = tracedRun(g, placement, opts, ref, async);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: traced run threw: " << e.what() << '\n';
  }
  const MoveStream& stream = traced.stream;
  const bool streamOk = !stream.outOfStep && stream.moves.size() == ref.moves;
  ledger.record(pinsHold && streamOk && sameFacts(traced.facts, ref),
                "traced run (facts or recorded stream differ from the untraced run)");

  // Phase 5: replays of the recorded stream.  The per-layer split is the
  // median of kTracedReplays repetitions; with --trace 0 each replay runs
  // once, for the fact check only.
  double worldS = 0.0;
  double viewS = 0.0;
  double engineS = 0.0;
  double schedulerS = 0.0;
  if (streamOk) {
    const std::size_t reps = args.trace ? kTracedReplays : 1;
    const auto medianOf = [reps](auto&& replay) {
      std::vector<double> seconds;
      for (std::size_t i = 0; i < reps; ++i) seconds.push_back(replay());
      return median(seconds);
    };
    worldS = medianOf([&] {
      return replayWorld(g, placement, stream, /*queryViews=*/false, ref, ledger);
    });
    viewS = medianOf([&] {
      return replayWorld(g, placement, stream, /*queryViews=*/true, ref, ledger);
    });
    engineS = medianOf([&] {
      return replayEngine(g, placement, stream, w, seeds.run, ref, async, ledger);
    });
    schedulerS = medianOf([&] {
      return async ? replayScheduler(w, k, seeds.run, ref.activations)
                   : replayRounds(g, placement, ref, ledger);
    });
  }

  // ------------------------------------------------------------ metrics
  const double runMedian = median(runS);
  const double moves = static_cast<double>(ref.moves);
  const double acts = static_cast<double>(ref.activations);
  const double steps = static_cast<double>(ref.time);
  const auto per = [](double seconds, double count) {
    return count > 0 ? seconds / count * 1e9 : 0.0;
  };
  const auto share = [runMedian](double seconds) {
    return runMedian > 0 ? seconds / runMedian : 0.0;
  };

  const std::vector<Metric> endToEnd = {
      {"run_s", runMedian, "s"},
      {"mmoves_per_s", moves / runMedian / 1e6, "M/s"},
      {"mact_per_s", acts / runMedian / 1e6, "M/s"},
      {"setup_s", median(setupS), "s"},
      {"peak_rss_mb", std::max(setupPeakMb, runPeakMb), "MiB"},
  };
  std::vector<Metric> perLayer = {
      {"graph.build_s", median(buildS), "s"},
      {"placement.place_s", median(placeS), "s"},
      {"graph.nodes", static_cast<double>(g.nodeCount()), "count"},
      {"graph.edges", static_cast<double>(g.edgeCount()), "count"},
      {"graph.max_degree", static_cast<double>(g.maxDegree()), "count"},
      {"world.apply_s", worldS, "s"},
      {"world.ns_per_move", per(worldS, moves), "ns"},
      {"world.view_ns_per_query", per(viewS - worldS, 2 * moves), "ns"},
      {"engine.replay_s", engineS, "s"},
      {"engine.self_s", engineS - worldS, "s"},
      {"engine.ns_per_activation", per(engineS, acts), "ns"},
      {"engine.ns_per_round", per(engineS, steps), "ns"},
      {"scheduler.next_s", schedulerS, "s"},
      {"scheduler.ns_per_next", per(schedulerS, async ? acts : steps), "ns"},
      {"protocol.self_s", runMedian - engineS, "s"},
      {"share.world", share(worldS), "ratio"},
      {"share.engine", share(engineS - worldS), "ratio"},
      {"share.protocol", share(runMedian - engineS), "ratio"},
      {"rss.setup_mb", setupPeakMb, "MiB"},
      {"rss.run_delta_mb", runPeakMb - setupRssMb, "MiB"},
      {"trace.run_s", traced.seconds, "s"},
      {"trace.overhead_frac", share(traced.seconds) - 1.0, "ratio"},
      {"trace.stream_mb", stream.megabytes(), "MiB"},
  };
  for (const TraceEventKind kind :
       {TraceEventKind::Move, TraceEventKind::Settle, TraceEventKind::Collapse,
        TraceEventKind::Meeting, TraceEventKind::Subsume, TraceEventKind::Freeze,
        TraceEventKind::OscillationDuty}) {
    perLayer.push_back({std::string("trace.events.") + traceEventKindName(kind),
                        static_cast<double>(traced.events[static_cast<std::size_t>(kind)]),
                        "count"});
  }
  perLayer.push_back({"run.time", steps, "count"});
  perLayer.push_back({"run.activations", acts, "count"});
  perLayer.push_back({"run.moves", moves, "count"});
  perLayer.push_back({"run.max_memory_bits", static_cast<double>(ref.maxMemoryBits), "count"});

  if (engineS > runMedian || worldS > engineS) {
    std::cerr << "perfbench: warning: layer times out of order (world " << worldS
              << " s, engine " << engineS << " s, run " << runMedian << " s)\n";
  }

  std::cout << "facts time=" << ref.time << " activations=" << ref.activations
            << " moves=" << ref.moves << " max_memory_bits=" << ref.maxMemoryBits
            << " positions_hash=" << hex(positionsHash(ref.positions))
            << " dispersed=" << (ref.dispersed ? "yes" : "no") << '\n'
            << "samples setup=" << setupS.size() << " timed_runs=" << runS.size() << " run_s:";
  for (const double s : runS) std::cout << ' ' << number(s);
  std::cout << '\n';
  for (const Metric& m : endToEnd) {
    std::cout << "  " << m.name << " = " << number(m.value) << ' ' << m.unit << '\n';
  }
  std::cout << "  fail_frac = "
            << number(static_cast<double>(ledger.failed) /
                      static_cast<double>(ledger.attempted))
            << " ratio\n";
  for (const Metric& m : perLayer) {
    std::cout << "  " << m.name << " = " << number(m.value) << ' ' << m.unit << '\n';
  }

  const bool correct = ledger.failed == 0;
  printJson(correct, ledger, args.trace ? perLayer : endToEnd);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to report timings from a build with assertions on "
               "(NDEBUG unset); configure with -DCMAKE_BUILD_TYPE=Release\n";
  return 3;
#endif
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
