#include "fleet/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "exp/bench_registry.hpp"
#include "fleet/collector.hpp"
#include "fleet/events.hpp"
#include "fleet/manifest.hpp"
#include "fleet/transport.hpp"

namespace disp::fleet {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::string shardAttemptName(std::uint32_t index, std::uint32_t count,
                             std::uint32_t attempt, const char* ext) {
  return "shard_" + std::to_string(index) + "of" + std::to_string(count) +
         ".attempt" + std::to_string(attempt) + "." + ext;
}

namespace {

struct RunningWorker {
  bool active = false;
  std::uint32_t shard = 0;
  std::uint32_t attempt = 0;
  std::uint64_t handle = 0;
  std::string output;
  std::uintmax_t lastSize = 0;
  Clock::time_point lastProgress{};
  bool stalled = false;
};

std::uintmax_t fileSize(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

std::uint64_t countLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::uint64_t rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) ++rows;
  }
  return rows;
}

std::string joinList(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += ' ';
    out += p;
  }
  return out;
}

class Coordinator {
 public:
  explicit Coordinator(const FleetOptions& opt)
      : opt_(opt),
        transport_(makeTransport(opt.fleetSpec)),
        manifestPath_((fs::path(opt.dir) / kManifestFile).string()),
        events_((fs::path(opt.dir) / kEventsFile).string()) {}

  int run() {
    prepare();
    events_.emit("run_start", {{"sweeps", joinList(manifest_.sweeps)},
                               {"fleet", transport_.describe()},
                               {"shards", std::to_string(manifest_.shardCount)},
                               {"workers", std::to_string(transport_.slots())},
                               {"cells", std::to_string(manifest_.totalCells)},
                               {"resumed", opt_.resume ? "yes" : "no"}});
    // Recovery happens inside prepare() (it decides the shard states the
    // run starts from), but its per-shard events belong after run_start.
    for (const auto& fields : pendingResumeEvents_) {
      events_.emit("resume", fields);
    }
    pendingResumeEvents_.clear();
    supervise();
    return finish();
  }

 private:
  const FleetOptions& opt_;
  LocalTransport transport_;
  std::string manifestPath_;
  FleetEventLog events_;
  Manifest manifest_;
  std::vector<RunningWorker> slots_;
  std::vector<std::uint32_t> failuresThisRun_;
  std::vector<Clock::time_point> eligibleAt_;
  std::vector<std::vector<std::pair<std::string, std::string>>>
      pendingResumeEvents_;
  bool chaosFired_ = false;

  void note(const std::string& line) {
    if (opt_.log != nullptr) *opt_.log << "fleet: " << line << "\n";
  }

  std::string shardPath(std::uint32_t index, std::uint32_t attempt,
                        const char* ext) const {
    return (fs::path(opt_.dir) /
            shardAttemptName(index, manifest_.shardCount, attempt, ext))
        .string();
  }

  // ------------------------------------------------------------- startup
  void prepare() {
    if (opt_.shardCount < 1 || opt_.shardCells.size() != opt_.shardCount) {
      throw std::invalid_argument("fleet options: shardCells must have one entry "
                                  "per shard");
    }
    const bool haveManifest = fs::exists(manifestPath_);
    if (!opt_.resume && haveManifest) {
      throw std::runtime_error(manifestPath_ +
                               " already exists — pass --resume to continue that "
                               "run, or point --dir at a fresh directory");
    }
    if (opt_.resume && !haveManifest) {
      throw std::runtime_error("--resume: no manifest at " + manifestPath_);
    }
    if (opt_.resume) {
      manifest_ = Manifest::load(manifestPath_);
      validateResume();
      recoverShards();
      manifest_.fleetSpec = transport_.describe();  // fleet size may change
    } else {
      manifest_.sweeps = opt_.sweeps;
      manifest_.benchArgs = opt_.benchArgs;
      manifest_.fleetSpec = transport_.describe();
      manifest_.shardCount = opt_.shardCount;
      manifest_.totalCells = opt_.totalCells;
      for (std::uint32_t i = 0; i < opt_.shardCount; ++i) {
        ShardEntry sh;
        sh.index = i;
        sh.cells = opt_.shardCells[i];
        manifest_.shards.push_back(std::move(sh));
      }
    }
    // Zero-cell shards (per-invocation partitions can leave high indices
    // empty) are complete by definition; the worker would only confirm it
    // via the distinct empty-shard exit code.
    for (ShardEntry& sh : manifest_.shards) {
      if (sh.state != ShardState::Done && sh.cells == 0) {
        sh.state = ShardState::Done;
        events_.emit("shard_done", {{"shard", std::to_string(sh.index)},
                                    {"attempts", std::to_string(sh.attempts)},
                                    {"rows", "0"},
                                    {"cells", "0"},
                                    {"empty", "yes"}});
      }
    }
    manifest_.save(manifestPath_);
    slots_.assign(transport_.slots(), RunningWorker{});
    failuresThisRun_.assign(manifest_.shardCount, 0);
    eligibleAt_.assign(manifest_.shardCount, Clock::now());
  }

  void validateResume() const {
    const auto fail = [](const std::string& what) {
      throw std::runtime_error("--resume mismatch: " + what +
                               " differs from the manifest — resuming would "
                               "interleave incompatible rows");
    };
    if (manifest_.sweeps != opt_.sweeps) fail("sweep list");
    if (manifest_.benchArgs != opt_.benchArgs) fail("bench arguments");
    if (manifest_.shardCount != opt_.shardCount) fail("shard count");
    if (manifest_.totalCells != opt_.totalCells) fail("total cell count");
    for (std::uint32_t i = 0; i < opt_.shardCount; ++i) {
      if (manifest_.shards[i].cells != opt_.shardCells[i]) {
        fail("shard " + std::to_string(i) + " cell count");
      }
    }
  }

  /// Resume recovery: every shard that is not Done goes back to Pending —
  /// unless its attempt files already hold a durable row for every owned
  /// cell (the per-row flush makes cells durable, so a worker killed after
  /// its last row needs no relaunch).
  void recoverShards() {
    for (ShardEntry& sh : manifest_.shards) {
      if (sh.state == ShardState::Done) continue;
      std::vector<std::string> outputs;
      for (const std::string& o : sh.outputs) {
        outputs.push_back((fs::path(opt_.dir) / o).string());
      }
      sh.cellsDone = countDistinctCellRows(outputs);
      const bool complete = sh.cells > 0 && sh.cellsDone >= sh.cells;
      pendingResumeEvents_.push_back(
          {{"shard", std::to_string(sh.index)},
           {"state", shardStateName(sh.state)},
           {"cells_done", std::to_string(sh.cellsDone)},
           {"cells", std::to_string(sh.cells)},
           {"complete", complete ? "yes" : "no"}});
      sh.state = complete ? ShardState::Done : ShardState::Pending;
      if (complete) {
        note("shard " + std::to_string(sh.index) +
             " already complete on disk (" + std::to_string(sh.cellsDone) +
             " cells) — not relaunching");
      }
    }
  }

  // ---------------------------------------------------------- scheduling
  bool anyPending() const {
    return std::any_of(manifest_.shards.begin(), manifest_.shards.end(),
                       [](const ShardEntry& sh) {
                         return sh.state == ShardState::Pending;
                       });
  }

  bool anyRunning() const {
    return std::any_of(slots_.begin(), slots_.end(),
                       [](const RunningWorker& w) { return w.active; });
  }

  void spawnEligible() {
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].active) continue;
      // Lowest pending shard whose backoff deadline has passed.
      ShardEntry* next = nullptr;
      for (ShardEntry& sh : manifest_.shards) {
        if (sh.state == ShardState::Pending && Clock::now() >= eligibleAt_[sh.index]) {
          next = &sh;
          break;
        }
      }
      if (next == nullptr) return;
      launch(*next, slot);
    }
  }

  void launch(ShardEntry& sh, std::uint32_t slot) {
    sh.attempts += 1;
    sh.state = ShardState::Running;
    sh.worker = transport_.slotName(slot);
    const std::string outName =
        shardAttemptName(sh.index, manifest_.shardCount, sh.attempts, "jsonl");
    sh.outputs.push_back(outName);
    manifest_.save(manifestPath_);  // durable before the side effect

    std::vector<std::string> argv;
    argv.push_back(opt_.benchBinary);
    for (const std::string& s : manifest_.sweeps) argv.push_back(s);
    argv.push_back("--shard=" + std::to_string(sh.index) + "/" +
                   std::to_string(manifest_.shardCount));
    argv.push_back("--jsonl=" + (fs::path(opt_.dir) / outName).string());
    argv.push_back("--stream-cells");
    for (const std::string& a : manifest_.benchArgs) argv.push_back(a);

    RunningWorker w;
    w.shard = sh.index;
    w.attempt = sh.attempts;
    w.output = (fs::path(opt_.dir) / outName).string();
    w.handle = transport_.spawn(
        argv, shardPath(sh.index, sh.attempts, "log"), slot);
    w.active = true;
    w.lastSize = 0;
    w.lastProgress = Clock::now();
    slots_[slot] = w;
    events_.emit("spawn", {{"shard", std::to_string(sh.index)},
                           {"attempt", std::to_string(sh.attempts)},
                           {"pid", std::to_string(w.handle)},
                           {"worker", sh.worker},
                           {"output", outName}});
    note("shard " + std::to_string(sh.index) + " attempt " +
         std::to_string(sh.attempts) + " -> " + sh.worker);
  }

  void checkStallsAndChaos() {
    for (RunningWorker& w : slots_) {
      if (!w.active) continue;
      const std::uintmax_t size = fileSize(w.output);
      if (size != w.lastSize) {
        w.lastSize = size;
        w.lastProgress = Clock::now();
      }
      const double idle =
          std::chrono::duration<double>(Clock::now() - w.lastProgress).count();
      if (!w.stalled && idle > opt_.stallTimeoutSec) {
        events_.emit("stall", {{"shard", std::to_string(w.shard)},
                               {"attempt", std::to_string(w.attempt)},
                               {"idle_ms", std::to_string(
                                               static_cast<long long>(idle * 1000))}});
        note("shard " + std::to_string(w.shard) + " stalled (no JSONL growth for " +
             std::to_string(static_cast<long long>(idle)) + "s) — killing");
        w.stalled = true;
        transport_.terminate(w.handle);
      }
      if (!chaosFired_ && opt_.chaosKillRows > 0 &&
          countLines(w.output) >= opt_.chaosKillRows) {
        chaosFired_ = true;
        events_.emit("chaos_kill", {{"shard", std::to_string(w.shard)},
                                    {"attempt", std::to_string(w.attempt)},
                                    {"rows", std::to_string(opt_.chaosKillRows)}});
        note("chaos: SIGKILL shard " + std::to_string(w.shard) + " attempt " +
             std::to_string(w.attempt));
        transport_.terminate(w.handle);
      }
    }
  }

  void reapExits() {
    for (RunningWorker& w : slots_) {
      if (!w.active) continue;
      const WorkerStatus st = transport_.poll(w.handle);
      if (st.running) continue;
      w.active = false;
      ShardEntry& sh = manifest_.shards[w.shard];
      events_.emit("exit", {{"shard", std::to_string(w.shard)},
                            {"attempt", std::to_string(w.attempt)},
                            {"pid", std::to_string(w.handle)},
                            {"code", std::to_string(st.exitCode)},
                            {"signal", st.signal == 0 ? "-" : std::to_string(st.signal)}});
      const bool emptyShard = st.signal == 0 && st.exitCode == exp::kEmptyShardExitCode;
      if (st.signal == 0 && (st.exitCode == 0 || emptyShard)) {
        sh.state = ShardState::Done;
        std::vector<std::string> outputs;
        for (const std::string& o : sh.outputs) {
          outputs.push_back((fs::path(opt_.dir) / o).string());
        }
        sh.cellsDone = countDistinctCellRows(outputs);
        events_.emit("shard_done",
                     {{"shard", std::to_string(w.shard)},
                      {"attempts", std::to_string(sh.attempts)},
                      {"rows", std::to_string(countLines(w.output))},
                      {"cells", std::to_string(sh.cellsDone)},
                      {"empty", emptyShard ? "yes" : "no"}});
        note("shard " + std::to_string(w.shard) + " done (" +
             std::to_string(sh.cellsDone) + "/" + std::to_string(sh.cells) +
             " cells)");
      } else {
        failuresThisRun_[w.shard] += 1;
        if (failuresThisRun_[w.shard] >= opt_.maxAttempts) {
          sh.state = ShardState::Failed;
          events_.emit("poison", {{"shard", std::to_string(w.shard)},
                                  {"attempts", std::to_string(sh.attempts)}});
          note("shard " + std::to_string(w.shard) + " poisoned after " +
               std::to_string(failuresThisRun_[w.shard]) + " failed attempts");
        } else {
          const double delay =
              std::min(60.0, opt_.backoffBaseSec *
                                 double(1ULL << (failuresThisRun_[w.shard] - 1)));
          eligibleAt_[w.shard] =
              Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(delay));
          sh.state = ShardState::Pending;
          events_.emit("retry",
                       {{"shard", std::to_string(w.shard)},
                        {"attempt", std::to_string(sh.attempts + 1)},
                        {"delay_ms",
                         std::to_string(static_cast<long long>(delay * 1000))}});
          note("shard " + std::to_string(w.shard) + " failed (attempt " +
               std::to_string(sh.attempts) + ") — retrying in " +
               std::to_string(delay) + "s");
        }
      }
      manifest_.save(manifestPath_);
    }
  }

  void supervise() {
    while (anyPending() || anyRunning()) {
      spawnEligible();
      checkStallsAndChaos();
      reapExits();
      if (anyPending() || anyRunning()) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opt_.pollIntervalSec));
      }
    }
  }

  // -------------------------------------------------------- collect/audit
  int finish() {
    std::vector<std::string> failed;
    for (const ShardEntry& sh : manifest_.shards) {
      if (sh.state == ShardState::Failed) failed.push_back(std::to_string(sh.index));
    }
    if (!failed.empty()) {
      events_.emit("run_done", {{"ok", "no"},
                                {"failed_shards", joinList(failed)}});
      note("FAILED: poisoned shards " + joinList(failed) +
           " — fix the cause and rerun with --resume (completed shards keep "
           "their rows)");
      return 1;
    }

    std::vector<MergeInput> inputs;
    for (const ShardEntry& sh : manifest_.shards) {
      for (const std::string& o : sh.outputs) {
        // Attempt files of killed workers may end mid-line (tolerated) or —
        // when the worker died before its first flush — not exist at all
        // (zero durable rows, nothing to merge).
        const std::string path = (fs::path(opt_.dir) / o).string();
        if (fs::exists(path)) inputs.push_back({path, true});
      }
    }
    const std::string mergedPath = (fs::path(opt_.dir) / kMergedFile).string();
    const MergeResult merged = mergeJsonl(inputs, DupPolicy::Dedup, mergedPath);
    if (!merged.divergences.empty()) {
      events_.emit("divergence",
                   {{"cells", std::to_string(merged.divergences.size())}});
      for (const Divergence& d : merged.divergences) {
        note("DIVERGENCE [" + d.identity + "] column '" + d.column + "': " +
             d.whereA + " says '" + d.valueA + "', " + d.whereB + " says '" +
             d.valueB + "'");
      }
    }
    for (const std::string& e : merged.errors) note("merge error: " + e);
    if (!merged.ok) {
      events_.emit("run_done", {{"ok", "no"}, {"failed_shards", ""}});
      note("FAILED: merge/audit rejected the shard outputs");
      return 1;
    }
    events_.emit("merge", {{"files", std::to_string(inputs.size())},
                           {"rows_in", std::to_string(merged.rowsIn)},
                           {"rows_out", std::to_string(merged.rowsOut)},
                           {"dups", std::to_string(merged.dupsDropped)},
                           {"partial_tails", std::to_string(merged.partialTails)},
                           {"output", kMergedFile}});
    events_.emit("run_done", {{"ok", "yes"}, {"failed_shards", ""}});
    note("done: " + std::to_string(merged.rowsOut) + " rows -> " + mergedPath);
    return 0;
  }
};

}  // namespace

int runFleet(const FleetOptions& options) {
  fs::create_directories(options.dir);
  Coordinator coordinator(options);
  return coordinator.run();
}

}  // namespace disp::fleet
