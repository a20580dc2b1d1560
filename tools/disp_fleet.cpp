// disp_fleet — multi-worker sweep fabric (DESIGN.md §13).
//
//   disp_fleet run scale_real --fleet=local:8 --dir=campaign --resume
//   disp_fleet merge --out=all.jsonl shard_0of4.attempt1.jsonl ...
//   disp_fleet status --dir=campaign
//
// `run` enumerates the selected sweeps' cells (disp_bench --list-cells
// semantics, in-process), sizes a shard partition, records it in a durable
// manifest, and supervises one disp_bench worker per shard through the
// configured transport.  Unrecognized flags are forwarded verbatim to every
// worker, so the full disp_bench axis-override surface (--graphs,
// --placements, --ks, --seeds, --threads, ...) works unchanged.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "exp/bench_registry.hpp"
#include "fleet/collector.hpp"
#include "fleet/manifest.hpp"
#include "fleet/supervisor.hpp"
#include "fleet/transport.hpp"
#include "util/cli.hpp"

namespace {

namespace fs = std::filesystem;
using disp::Cli;

void printUsage(std::ostream& os) {
  os << "usage: disp_fleet run <sweep>... [--fleet=local:P]\n"
        "                   [--dir=DIR] [--shards=N | --cells-per-shard=C]\n"
        "                   [--max-attempts=A] [--stall-timeout=SEC]\n"
        "                   [--backoff=SEC] [--poll-interval=SEC]\n"
        "                   [--bench=PATH] [--resume] [--chaos-kill-rows=R]\n"
        "                   [any disp_bench flag — forwarded to every worker]\n"
        "       disp_fleet merge --out=PATH [--dup=error|dedup] [--partial-tail]\n"
        "                   <shard.jsonl>...\n"
        "       disp_fleet status [--dir=DIR]\n\n"
        "run writes DIR/fleet_manifest.json (durable shard states),\n"
        "DIR/fleet_events.jsonl (spawn/exit/retry/resume/merge log,\n"
        "monotonic seq) and, on success, DIR/merged.jsonl with telemetry-\n"
        "exempt divergence auditing.  --resume rescans flushed shard rows\n"
        "and relaunches only unfinished shards.  A worker whose JSONL\n"
        "stops growing for --stall-timeout seconds is killed and retried\n"
        "(exponential backoff); --max-attempts failures poison the shard.\n";
}

int usageError(const std::string& what) {
  std::cerr << "error: " << what << "\n\n";
  printUsage(std::cerr);
  return 2;
}

// Flags the coordinator owns (never forwarded to workers).
bool fleetOwnedFlag(const std::string& key) {
  static const std::set<std::string> kOwned{
      "fleet",        "dir",           "shards",  "cells-per-shard",
      "max-attempts", "stall-timeout", "backoff", "poll-interval",
      "bench",        "resume",        "chaos-kill-rows",
      "out",          "dup",           "partial-tail",
  };
  return kOwned.count(key) > 0;
}

// Flags whose per-worker values the coordinator computes itself; a user
// value would silently fight the fabric, so refuse loudly.
const char* forbiddenForward(const std::string& key) {
  static const std::set<std::string> kForbidden{
      "jsonl", "shard", "stream-cells", "list-cells", "trace", "trajectory",
  };
  return kForbidden.count(key) > 0 ? key.c_str() : nullptr;
}

std::string siblingBench(const std::string& program) {
  // Default worker binary: the disp_bench next to this disp_fleet, so
  // `build/disp_fleet run ...` finds `build/disp_bench` without PATH games.
  const fs::path p(program);
  if (!p.has_parent_path()) return "disp_bench";
  return (p.parent_path() / "disp_bench").string();
}

int cmdRun(const Cli& cli) {
  std::vector<std::string> sweeps(cli.positional().begin() + 1,
                                  cli.positional().end());
  if (sweeps.empty()) return usageError("run wants at least one sweep name");
  if (sweeps.size() == 1 && sweeps[0] == "all") {
    sweeps.clear();
    for (const auto& def : disp::exp::benchRegistry()) {
      if (!def.heavy && def.shardable) sweeps.push_back(def.name);
    }
  }
  for (const std::string& s : sweeps) {
    const auto* def = disp::exp::findBench(s);
    if (def == nullptr) return usageError("unknown sweep '" + s + "'");
    if (!def->shardable) {
      return usageError("sweep '" + s +
                        "' is not shardable (hand-rolled loop outside the "
                        "canonical cell enumeration) — run it with disp_bench "
                        "directly");
    }
  }

  std::vector<std::string> benchArgs;
  for (const auto& [key, value] : cli.flags()) {
    if (fleetOwnedFlag(key)) continue;
    if (const char* f = forbiddenForward(key)) {
      return usageError("--" + std::string(f) +
                        " is coordinator-owned (disp_fleet computes per-worker "
                        "values); drop it");
    }
    benchArgs.push_back(value.empty() ? "--" + key : "--" + key + "=" + value);
  }

  disp::fleet::FleetOptions opt;
  opt.sweeps = sweeps;
  opt.benchArgs = benchArgs;
  opt.fleetSpec = cli.str("fleet", "local:2");
  opt.dir = cli.str("dir", ".");
  opt.benchBinary = cli.str("bench", siblingBench(cli.program()));
  opt.resume = cli.has("resume");

  const std::int64_t maxAttempts = cli.integer("max-attempts", 3);
  if (maxAttempts < 1 || maxAttempts > 100) {
    return usageError("--max-attempts must be in [1, 100]");
  }
  opt.maxAttempts = static_cast<std::uint32_t>(maxAttempts);
  opt.stallTimeoutSec = cli.real("stall-timeout", 300.0);
  opt.backoffBaseSec = cli.real("backoff", 0.5);
  opt.pollIntervalSec = cli.real("poll-interval", 0.05);
  if (opt.stallTimeoutSec <= 0 || opt.backoffBaseSec < 0 ||
      opt.pollIntervalSec <= 0) {
    return usageError("--stall-timeout/--poll-interval must be > 0 and "
                      "--backoff >= 0");
  }
  const std::int64_t chaos = cli.integer("chaos-kill-rows", 0);
  if (chaos < 0) return usageError("--chaos-kill-rows must be >= 0");
  opt.chaosKillRows = static_cast<std::uint64_t>(chaos);

  // Shard sizing: enumerate the exact cells the workers will partition
  // (ownership of cell `index` under I/N is index % N == I, per BatchRunner
  // invocation — the same arithmetic disp_bench --shard applies).
  std::uint32_t slots = 0;
  try {
    slots = disp::fleet::makeTransport(opt.fleetSpec).slots();
  } catch (const std::exception& e) {
    return usageError(e.what());
  }
  std::vector<disp::exp::ListedCell> cells;
  try {
    cells = disp::exp::listBenchCells(sweeps, cli);
  } catch (const std::exception& e) {
    return usageError(e.what());
  }
  const std::uint64_t total = cells.size();
  if (total == 0) {
    return usageError("the selected sweeps enumerate zero cells (check the "
                      "--graphs/--ks/... overrides)");
  }
  std::uint64_t shardCount = 0;
  const std::int64_t explicitShards = cli.integer("shards", 0);
  if (explicitShards < 0 || explicitShards > 4096) {
    return usageError("--shards must be in [1, 4096]");
  }
  if (explicitShards > 0) {
    shardCount = static_cast<std::uint64_t>(explicitShards);
  } else {
    const std::int64_t cellsPer = cli.integer("cells-per-shard", 4);
    if (cellsPer < 1) return usageError("--cells-per-shard must be >= 1");
    shardCount = (total + static_cast<std::uint64_t>(cellsPer) - 1) /
                 static_cast<std::uint64_t>(cellsPer);
    // At least one shard per worker (while shards still have cells), so a
    // default-sized small sweep still exercises the whole fleet.
    shardCount = std::max(shardCount, std::min<std::uint64_t>(slots, total));
  }
  shardCount = std::min<std::uint64_t>({shardCount, total, 4096});
  shardCount = std::max<std::uint64_t>(shardCount, 1);
  opt.shardCount = static_cast<std::uint32_t>(shardCount);
  opt.totalCells = total;
  opt.shardCells.assign(opt.shardCount, 0);
  for (const auto& c : cells) opt.shardCells[c.index % opt.shardCount] += 1;
  opt.log = &std::cout;

  std::cout << "fleet: " << total << " cells across " << opt.shardCount
            << " shards (" << opt.fleetSpec << ", bench " << opt.benchBinary
            << ")\n";
  try {
    return disp::fleet::runFleet(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

int cmdMerge(const Cli& cli) {
  const std::string out = cli.str("out", "");
  if (out.empty()) return usageError("merge wants --out=PATH");
  const std::string dup = cli.str("dup", "error");
  if (dup != "error" && dup != "dedup") {
    return usageError("--dup must be 'error' or 'dedup'");
  }
  const bool partialTail = cli.has("partial-tail");
  std::vector<disp::fleet::MergeInput> inputs;
  for (std::size_t i = 1; i < cli.positional().size(); ++i) {
    inputs.push_back({cli.positional()[i], partialTail});
  }
  if (inputs.empty()) return usageError("merge wants at least one input file");
  const disp::fleet::MergeResult res = disp::fleet::mergeJsonl(
      inputs,
      dup == "error" ? disp::fleet::DupPolicy::Error
                     : disp::fleet::DupPolicy::Dedup,
      out);
  for (const auto& d : res.divergences) {
    std::cerr << "DIVERGENCE [" << d.identity << "] column '" << d.column
              << "': " << d.whereA << " says '" << d.valueA << "', "
              << d.whereB << " says '" << d.valueB << "'\n";
  }
  for (const std::string& e : res.errors) std::cerr << "error: " << e << "\n";
  if (!res.ok) return 1;
  std::cout << "merged " << res.rowsOut << " rows from " << inputs.size()
            << " files into " << out;
  if (res.dupsDropped > 0) std::cout << " (" << res.dupsDropped << " duplicates dropped)";
  if (res.partialTails > 0) std::cout << " (" << res.partialTails << " torn tails dropped)";
  std::cout << "\n";
  return 0;
}

int cmdStatus(const Cli& cli) {
  const std::string dir = cli.str("dir", ".");
  const std::string path = (fs::path(dir) / disp::fleet::kManifestFile).string();
  if (!fs::exists(path)) {
    std::cerr << "error: no fleet manifest at " << path << "\n";
    return 1;
  }
  disp::fleet::Manifest m;
  try {
    m = disp::fleet::Manifest::load(path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cout << "sweeps:";
  for (const std::string& s : m.sweeps) std::cout << " " << s;
  std::cout << "\nfleet: " << m.fleetSpec << "   shards: " << m.shardCount
            << "   cells: " << m.totalCells << "\n";
  std::uint32_t done = 0;
  for (const auto& sh : m.shards) {
    if (sh.state == disp::fleet::ShardState::Done) ++done;
    std::cout << "  shard " << sh.index << ": " << shardStateName(sh.state)
              << "  attempts=" << sh.attempts << "  cells=" << sh.cellsDone
              << "/" << sh.cells;
    if (!sh.worker.empty()) std::cout << "  worker=" << sh.worker;
    if (!sh.outputs.empty()) std::cout << "  output=" << sh.output();
    std::cout << "\n";
  }
  std::cout << done << "/" << m.shardCount << " shards done\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli(argc, argv);
    if (cli.positional().empty() || cli.has("help")) {
      printUsage(cli.has("help") ? std::cout : std::cerr);
      return cli.has("help") ? 0 : 2;
    }
    const std::string& cmd = cli.positional().front();
    if (cmd == "run") return cmdRun(cli);
    if (cmd == "merge") return cmdMerge(cli);
    if (cmd == "status") return cmdStatus(cli);
    return usageError("unknown subcommand '" + cmd +
                      "' (run | merge | status)");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
