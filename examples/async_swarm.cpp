// Asynchronous robot swarm — exploration-flavoured demo of Theorem 7.1:
// robots with no common clock (each activated by an adversarial scheduler)
// spread over an unknown cave system (random tree + extra tunnels).  Shows
// how epoch-measured time stays stable across schedulers while raw
// activation counts vary wildly.
//
//   ./async_swarm [--robots=64] [--caves=160] [--seed=21]
#include <iostream>

#include "algo/runner.hpp"
#include "core/scheduler.hpp"
#include "graph/generators.hpp"
#include "graph/spec.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace disp;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto robots = static_cast<std::uint32_t>(cli.integer("robots", 64));
  const auto caves = static_cast<std::uint32_t>(cli.integer("caves", 160));
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed", 21));

  const Graph cavern = makeGraph("er", caves, seed);
  const Placement p = rootedPlacement(cavern, robots, 0, seed);
  std::cout << robots << " unsynchronized robots entering a " << caves
            << "-chamber cave system\n\n";

  Table t({"scheduler", "epochs", "activations", "moves", "dispersed"});
  for (const auto& sched : knownSchedulers()) {
    const RunResult r = runSession(
        cavern, p, {.algorithm = "rooted_async", .scheduler = sched, .seed = seed});
    t.row()
        .cell(sched)
        .cell(r.time)
        .cell(r.activations)
        .cell(r.totalMoves)
        .cell(std::string(r.dispersed ? "yes" : "NO"));
  }
  t.print(std::cout, "scheduler adversaries vs epoch-measured time");
  std::cout << "Epochs stay in one band while activations differ: the paper's\n"
               "O(k log k)-epoch bound is scheduler-independent.\n";
  return 0;
}
