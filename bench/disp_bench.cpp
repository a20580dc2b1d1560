// Experiment driver: selects registered sweeps by name, so one binary
// replaces the per-experiment ones.
//
//   disp_bench --list
//   disp_bench all --threads=8 --jsonl=run.jsonl
//   disp_bench table1_sync_rooted fig5_sync_probe --seeds=1,2,3,4,5
#include <iostream>

#include "algo/registry.hpp"
#include "exp/bench_registry.hpp"
#include "graph/spec.hpp"
#include "util/cli.hpp"

namespace {

void printUsage(std::ostream& os) {
  os << "usage: disp_bench [--list] [--threads=N] [--seeds=a,b,c] [--jsonl=PATH]\n"
        "                  [--trace=PATH | --trajectory=PATH] [--sample=N]\n"
        "                  [--graphs=SPEC;SPEC] [--placements=SPEC;SPEC]\n"
        "                  [--ks=a,b,c] [--faults=SPEC;SPEC] [--shard=I/N]\n"
        "                  [--list-cells] [--stream-cells]\n"
        "                  <sweep>... | all\n\n"
        "sweeps:\n";
  for (const auto& def : disp::exp::benchRegistry()) {
    os << "  " << def.name << (def.heavy ? "  (excluded from `all`)" : "")
       << "\n      " << def.summary << "\n";
  }
  os << "\n--seeds replicates add per-cell \"±95\" CI columns to the tables.\n"
        "--trace streams every run's typed events + sampled snapshots as\n"
        "JSON-lines (cadence --sample=N; schema validated by\n"
        "scripts/check_trace.sh).\n"
        "--graphs/--placements override a sweep's workload axes with\n"
        "';'-separated spec strings — e.g.\n"
        "  --graphs='er:n=2048,p=0.01;file:roads.e'\n"
        "  --placements='rooted;clusters:l=8;adversarial:far'\n"
        "(the `scenario` sweep is the blank canvas for these).\n"
        "--faults overrides a sweep's fault-load axis with ';'-separated\n"
        "FaultSpec strings (default: none) — e.g.\n"
        "  --faults='none;crash:rate=0.25,restart=64;churn:edges=4,every=32'\n"
        "(the `faults` sweep is the self-stabilization scorecard).\n"
        "--shard=I/N runs every Nth cell of the deterministic enumeration;\n"
        "merge shard JSONL outputs with scripts/merge_jsonl.sh.\n"
        "--list-cells prints the enumeration (one JSON line per cell) without\n"
        "running anything; --stream-cells flushes the JSONL sink after every\n"
        "cell so rows are durable under kill -9 (disp_fleet drives both).\n"
        "Exit codes: 0 ok, 1 sweep error, 2 usage (an unknown flag included),\n"
        "3 shard owns zero cells.\n"
        "Algorithms are registry keys:\n";
  os << " ";
  for (const auto& key : disp::algorithmKeys()) os << " " << key;
  os << "\ngraph families:\n ";
  for (const auto& key : disp::graphFamilyKeys()) os << " " << key;
  os << "\nDISP_BENCH_SCALE in {0.5, 1, 2, 4} scales every sweep.\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const disp::Cli cli(argc, argv);
    if (cli.has("list") || cli.has("help")) {
      printUsage(std::cout);
      return 0;
    }
    std::vector<std::string> names = cli.positional();
    if (names.empty()) {
      printUsage(std::cerr);
      return 2;
    }
    if (names.size() == 1 && names[0] == "all") {
      names.clear();
      for (const auto& def : disp::exp::benchRegistry()) {
        if (!def.heavy) names.push_back(def.name);  // campaigns opt in by name
      }
    }
    return disp::exp::runBenches(names, cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
