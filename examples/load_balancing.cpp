// Load balancing — the paper's second motivation: k jobs (agents) arrive
// at one ingress server of a cluster and must spread so each server runs
// one job.  The cluster is a random-regular overlay network; we compare
// the paper's algorithm against the classic group-DFS baseline, counting
// both time (rounds) and total network hops.
//
//   ./load_balancing [--jobs=96] [--servers=192] [--degree=4] [--seed=11]
#include <iostream>

#include "algo/registry.hpp"
#include "algo/runner.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace disp;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto jobs = static_cast<std::uint32_t>(cli.integer("jobs", 96));
  const auto servers = static_cast<std::uint32_t>(cli.integer("servers", 192));
  const auto degree = static_cast<std::uint32_t>(cli.integer("degree", 4));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 11));

  const Graph overlay =
      makeRandomRegular(servers, degree, seed).build(PortLabeling::RandomPermutation, seed);
  const Placement p = rootedPlacement(overlay, jobs, 0, seed);
  std::cout << jobs << " jobs at one ingress of a " << servers << "-server "
            << degree << "-regular overlay\n\n";

  Table t({"algorithm", "model", "time", "hops", "hops/job", "memory bits"});
  for (const char* key :
       {"rooted_sync", "general_sync", "ks_sync", "rooted_async", "ks_async"}) {
    const AlgorithmTraits& algo = algorithmDef(key).traits;
    const RunResult r =
        runSession(overlay, p, {.algorithm = key, .scheduler = "uniform", .seed = seed});
    t.row()
        .cell(algo.display)
        .cell(std::string(algo.isAsync ? "ASYNC(epochs)" : "SYNC(rounds)"))
        .cell(r.time)
        .cell(r.totalMoves)
        .cell(double(r.totalMoves) / jobs, 1)
        .cell(r.maxMemoryBits);
    if (!r.dispersed) {
      std::cout << "!! " << algo.display << " failed to balance\n";
      return 1;
    }
  }
  t.print(std::cout, "one job per server, five ways");
  return 0;
}
