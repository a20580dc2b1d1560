// Experiment driver: selects registered sweeps by name, so one binary
// replaces the per-experiment ones.
//
//   disp_bench --list
//   disp_bench all --threads=8 --jsonl=run.jsonl
//   disp_bench table1_sync_rooted fig5_sync_probe --seeds=1,2,3,4,5
//   disp_bench merge --out=all.jsonl shard0.jsonl shard1.jsonl
//   disp_bench check trace.jsonl
#include <iostream>

#include "algo/registry.hpp"
#include "exp/bench_registry.hpp"
#include "exp/merge.hpp"
#include "exp/sink.hpp"
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
        "       disp_bench merge --out=PATH FILE...\n"
        "       disp_bench check TRACE.jsonl\n\n"
        "sweeps:\n";
  for (const auto& def : disp::exp::benchRegistry()) {
    os << "  " << def.name << (def.heavy ? "  (excluded from `all`)" : "")
       << "\n      " << def.summary << "\n";
  }
  os << "\n--seeds replicates add per-cell \"±95\" CI columns to the tables.\n"
        "--trace streams every run's typed events + sampled snapshots as\n"
        "JSON-lines (cadence --sample=N); `check` validates such a stream\n"
        "against its schema and prints its per-kind event counts.\n"
        "--graphs/--placements override a sweep's workload axes with\n"
        "';'-separated spec strings — e.g.\n"
        "  --graphs='er:n=2048,p=0.01;file:roads.e'\n"
        "  --placements='rooted;clusters:l=8;adversarial:far'\n"
        "(the `scenario` sweep is the blank canvas for these).\n"
        "--faults overrides a sweep's fault-load axis with ';'-separated\n"
        "FaultSpec strings (default: none) — e.g.\n"
        "  --faults='none;crash:rate=0.25,restart=64;churn:edges=4,every=32'\n"
        "(the `faults` sweep is the self-stabilization scorecard).\n"
        "--jsonl/--trace/--trajectory write PATH.partial and rename it to\n"
        "PATH only when every sweep succeeded: a run that stops early\n"
        "publishes no PATH (PATH must be a regular file or absent).\n"
        "--shard=I/N runs every Nth cell of the deterministic enumeration;\n"
        "--stream-cells writes one flushed JSONL row per finished cell, so a\n"
        "killed shard keeps what it finished in PATH.partial.  `merge` joins\n"
        "shard JSONL files, refusing missing files, overlapping shards, torn\n"
        "lines and diverging facts (rerun a failed shard, then merge).\n"
        "Exit codes: 0 ok, 1 sweep error, refused merge or invalid trace,\n"
        "2 usage (an unknown flag included).\n"
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

// The trace-stream checker (exp/sink.hpp): exit 0 valid, 1 invalid, 2 usage.
int runCheck(const disp::Cli& cli) {
  if (!cli.flags().empty()) {
    std::cerr << "error: unknown flag --" << cli.flags().begin()->first
              << " (check takes no flags)\n";
    return 2;
  }
  if (cli.positional().size() != 2) {
    std::cerr << "usage: disp_bench check TRACE.jsonl\n";
    return 2;
  }
  const disp::exp::TraceCheck res = disp::exp::checkTraceJsonl(cli.positional()[1]);
  if (!res.ok) {
    std::cerr << "error: " << res.message << "\n";
    return 1;
  }
  std::cout << res.message << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const disp::Cli cli(argc, argv);
    std::vector<std::string> names = cli.positional();
    // The subcommands own their flags: `check --help bad.jsonl` is a usage
    // error, not a usage page that exits 0 without checking anything.
    if (!names.empty() && names[0] == "merge") return runMerge(cli);
    if (!names.empty() && names[0] == "check") return runCheck(cli);
    if (cli.has("list") || cli.has("help")) {
      printUsage(std::cout);
      return 0;
    }
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
