// Experiment driver: selects registered sweeps by name, so one binary
// replaces the per-experiment ones.
//
//   disp_bench --list
//   disp_bench all --threads=8 --jsonl=run.jsonl
//   disp_bench table1_sync_rooted fig5_sync_probe --seeds=1,2,3,4,5
//   disp_bench merge --out=all.jsonl shard0.jsonl shard1.jsonl
#include <iostream>

#include "algo/registry.hpp"
#include "exp/bench_registry.hpp"
#include "exp/merge.hpp"
#include "graph/spec.hpp"
#include "util/cli.hpp"

namespace {

void printUsage(std::ostream& os) {
  os << "usage: disp_bench [--list] [--threads=N] [--seeds=a,b,c] [--jsonl=PATH]\n"
        "                  [--trace=PATH | --trajectory=PATH] [--sample=N]\n"
        "                  [--graphs=SPEC;SPEC] [--placements=SPEC;SPEC]\n"
        "                  [--ks=a,b,c] [--faults=SPEC;SPEC] [--shard=I/N]\n"
        "                  [--stream-cells]\n"
        "                  <sweep>... | all\n"
        "       disp_bench merge --out=PATH FILE...\n\n"
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
        "--stream-cells writes one flushed JSONL row per finished cell, so a\n"
        "killed shard keeps what it finished.  `merge` joins shard JSONL\n"
        "files, refusing overlapping shards, torn lines and diverging facts\n"
        "(rerun a killed shard, then merge).\n"
        "Exit codes: 0 ok, 1 sweep error or refused merge, 2 usage (an\n"
        "unknown flag included).\n"
        "Algorithms are registry keys:\n";
  os << " ";
  for (const auto& key : disp::algorithmKeys()) os << " " << key;
  os << "\ngraph families:\n ";
  for (const auto& key : disp::graphFamilyKeys()) os << " " << key;
  os << "\nDISP_BENCH_SCALE in {0.5, 1, 2, 4} scales every sweep.\n";
}

// The audited shard merge (exp/merge.hpp): exit 0 merged, 1 refused
// (nothing written), 2 usage.
int runMerge(const disp::Cli& cli) {
  for (const auto& [flag, value] : cli.flags()) {
    if (flag != "out") {
      std::cerr << "error: unknown flag --" << flag << " (merge takes only --out)\n";
      return 2;
    }
  }
  if (cli.bare("out")) {
    std::cerr << "error: --out wants a path: --out=PATH\n";
    return 2;
  }
  const std::string out = cli.str("out", "");
  const std::vector<std::string> files(cli.positional().begin() + 1,
                                       cli.positional().end());
  if (out.empty() || files.empty()) {
    std::cerr << "usage: disp_bench merge --out=PATH FILE...\n";
    return 2;
  }
  const disp::exp::MergeResult res = disp::exp::mergeJsonl(files, out);
  for (const auto& d : res.divergences) {
    std::cerr << "DIVERGENCE [" << d.identity << "] column '" << d.column
              << "': " << d.whereA << " says '" << d.valueA << "', "
              << d.whereB << " says '" << d.valueB << "'\n";
  }
  for (const std::string& e : res.errors) std::cerr << "error: " << e << "\n";
  if (!res.ok) return 1;
  std::cout << "merged " << res.rowsOut << " rows from " << files.size()
            << " files into " << out << "\n";
  return 0;
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
    if (names[0] == "merge") return runMerge(cli);
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
