// Lower-bound anchor, ablations, trace smoke and ad-hoc scenarios
// (E11–E13, E16, E17).
#include <algorithm>

#include "algo/placement.hpp"
#include "algo/registry.hpp"
#include "core/scheduler.hpp"
#include "exp/benches.hpp"
#include "graph/spec.hpp"

namespace disp::exp {

// E11 — the Ω(k) lower-bound anchor (§1).
// On a path with all k agents at one end, any algorithm needs >= k-1
// rounds.  Reported: measured rounds / k for every algorithm — the paper's
// algorithm should sit at a small constant.
void benchLowerBoundLine(BenchContext& ctx) {
  const std::string name = "lower_bound_line";
  ctx.out << "# E11: lower-bound anchor — path, all agents at one end\n";
  SweepSpec spec;
  spec.name = name;
  spec.graphs = {"path"};
  spec.ks = kSweep(5, 9);
  spec.algorithms = {"rooted_sync", "general_sync",
                     "ks_sync", "rooted_async"};
  spec.seeds = ctx.seedsOr(3);
  spec.nOverK = 1.5;
  const SweepResult res = ctx.runner().run(spec);

  Table t({"k", "RootedSync/k", "Sudo-style/k", "KS/k", "RootedAsync(ep)/k"});
  for (const std::uint32_t k : spec.ks) {
    std::vector<const Cell*> row;
    for (const std::string& algo : spec.algorithms) {
      row.push_back(&res.at({"path", k, "rooted", "round_robin", algo}));
    }
    if (!std::all_of(row.begin(), row.end(),
                     [](const Cell* c) { return c->ran(); })) {
      continue;  // outside this --shard
    }
    t.row().cell(std::uint64_t{k});
    for (const Cell* c : row) t.cell(c->meanTime() / k, 2);
  }
  emitTable(ctx, name, "time/k ratios (lower bound = 1.0)", t);
}

// E12 — design-choice ablation.
// The paper's SYNC result stacks two techniques on the KS baseline:
//   level 0: KS sequential probing            -> O(min{m, kΔ})
//   level 1: + parallel probing w/ doubling   -> O(k log k)  (Sudo-style)
//   level 2: + seekers, empty nodes, oscillation -> O(k)     (Theorem 6.1)
// This bench isolates each level's contribution on a dense instance.
void benchAblationTechniques(BenchContext& ctx) {
  const std::string name = "ablation_techniques";
  ctx.out << "# E12: ablation — technique levels on a clique (k = n)\n";
  SweepSpec spec;
  spec.name = name;
  spec.graphs = {"complete"};
  spec.ks = kSweep(5, 9);
  spec.algorithms = {"ks_sync", "general_sync",
                     "rooted_sync"};
  spec.seeds = ctx.seedsOr(5);
  spec.nOverK = 1.0;
  const SweepResult res = ctx.runner().run(spec);

  Table t({"k", "KS(level0)", "doubling(level1)", "full(level2)",
           "lvl0/lvl2", "lvl1/lvl2"});
  for (const std::uint32_t k : spec.ks) {
    const Cell& l0 = res.at({"complete", k, "rooted", "round_robin", "ks_sync"});
    const Cell& l1 = res.at({"complete", k, "rooted", "round_robin", "general_sync"});
    const Cell& l2 = res.at({"complete", k, "rooted", "round_robin", "rooted_sync"});
    if (!l0.ran() || !l1.ran() || !l2.ran()) continue;  // outside this --shard
    t.row().cell(std::uint64_t{k});
    timeCell(t, l0);
    timeCell(t, l1);
    timeCell(t, l2);
    t.cell(l0.meanTime() / l2.meanTime(), 2).cell(l1.meanTime() / l2.meanTime(), 2);
  }
  emitTable(ctx, name, "rounds by technique level (speedups vs full algorithm)", t);
}

// E13 — scheduler-adversary ablation.
// Epoch counts of the ASYNC algorithms under increasingly adversarial
// activation schedules.  Epoch-measured time should be scheduler-robust
// (that is the point of the epoch definition); raw activations are not.
void benchAblationScheduler(BenchContext& ctx) {
  const std::string name = "ablation_scheduler";
  ctx.out << "# E13: ablation — scheduler adversaries (ASYNC)\n";
  const auto k = static_cast<std::uint32_t>(96 * scale());
  SweepSpec spec;
  spec.name = name;
  spec.graphs = {"er"};
  spec.ks = {k};
  spec.algorithms = {"rooted_async", "ks_async"};
  spec.schedulers = knownSchedulers();
  spec.seeds = ctx.seedsOr(23);
  const SweepResult res = ctx.runner().run(spec);

  const bool ci = spec.seeds.size() > 1;
  std::vector<std::string> hdr{"algo", "sched", "k"};
  timeHeader(hdr, "epochs", ci);
  hdr.insert(hdr.end(), {"activations", "act/epoch"});
  Table t(hdr);
  for (const std::string& algo : spec.algorithms) {
    for (const std::string& sched : spec.schedulers) {
      const Cell& r = res.at({"er", k, "rooted", sched, algo});
      if (!r.allDispersed()) continue;
      double activations = 0.0;
      for (const RunRecord& rec : r.replicates) {
        activations += double(rec.run.activations);
      }
      activations /= double(r.replicates.size());
      t.row().cell(algorithmDisplayName(algo)).cell(sched).cell(std::uint64_t{k});
      timeCellCi(t, r, ci);
      if (r.replicates.size() == 1) {
        t.cell(r.first().run.activations);
      } else {
        t.cell(activations, 1);
      }
      t.cell(activations / r.meanTime(), 1);
    }
  }
  emitTable(ctx, name, "epoch robustness across schedulers", t);
}

// E16 — trace smoke: tiny cells covering both engines, the rooted and the
// general (subsumption-heavy) protocols, so a `--trace` run of this suite
// exercises every TraceEvent kind the library emits.  The CI gate pipes
// the resulting JSONL through scripts/check_trace.sh.
void benchTraceSmoke(BenchContext& ctx) {
  const std::string name = "trace_smoke";
  ctx.out << "# E16: trace smoke — tiny observed cells (for --trace)\n";
  const bool ci = ctx.seedOverride.size() > 1;
  std::vector<std::string> hdr{"algo", "family", "k", "l", "sched"};
  timeHeader(hdr, "time", ci);
  hdr.emplace_back("dispersed");
  Table t(hdr);

  const auto addRows = [&](const SweepSpec& spec, const SweepResult& res) {
    for (const std::string& algo : spec.algorithms) {
      for (const std::string& sched : spec.schedulers) {
        const Cell& c = res.at({spec.graphs.front(), spec.ks.front(),
                                spec.placements.front(), sched, algo});
        if (!c.ran()) continue;  // outside this --shard
        t.row()
            .cell(algorithmDisplayName(algo))
            .cell(spec.graphs.front())
            .cell(std::uint64_t{spec.ks.front()})
            .cell(PlacementSpec::parse(spec.placements.front()).tableLabel())
            .cell(sched);
        timeCellCi(t, c, ci);
        t.cell(std::string(c.allDispersed() ? "yes" : "NO"));
      }
    }
  };

  SweepSpec rooted;
  rooted.name = name;
  rooted.graphs = {"er"};
  rooted.ks = {16};
  rooted.algorithms = {"rooted_sync", "rooted_async", "ks_sync", "ks_async"};
  rooted.seeds = ctx.seedsOr(5);
  const SweepResult rootedRes = ctx.runner().run(rooted);
  addRows(rooted, rootedRes);

  // ℓ = 4 clusters: meetings, freezes, subsumption collapses show up in
  // the trace for both general protocols.
  SweepSpec general;
  general.name = name;
  general.graphs = {"grid"};
  general.ks = {16};
  general.algorithms = {"general_sync", "general_async"};
  general.placements = {"clusters:l=4"};
  general.seeds = ctx.seedsOr(5);
  const SweepResult generalRes = ctx.runner().run(general);
  addRows(general, generalRes);

  emitTable(ctx, name, "trace smoke cells", t);
}

// E17 — ad-hoc scenarios: the cross-product of whatever --graphs /
// --placements / --ks specs the caller passes (DESIGN.md §8 grammar),
// driven through the two general-configuration protocols (which accept
// every placement kind).  Defaults keep `disp_bench all` cheap: one small
// ER sweep over rooted + 4-cluster starts.
void benchScenario(BenchContext& ctx) {
  const std::string name = "scenario";
  ctx.out << "# E17: scenario — ad-hoc workloads (--graphs/--placements/--ks)\n";
  SweepSpec spec;
  spec.name = name;
  spec.graphs = ctx.graphsOr({"er"});
  spec.ks = ctx.ksOr(kSweep(4, 6));
  spec.algorithms = {"general_sync", "general_async"};
  spec.placements = ctx.placementsOr({"rooted", "clusters:l=4"});
  spec.seeds = ctx.seedsOr(17);
  const SweepResult res = ctx.runner().run(spec);

  const bool ci = spec.seeds.size() > 1;
  std::vector<std::string> hdr{"graph", "k", "placement", "algo", "n", "m",
                               "Delta"};
  timeHeader(hdr, "time", ci);
  hdr.emplace_back("dispersed");
  Table t(hdr);
  for (const std::string& graph : spec.graphs) {
    for (const std::uint32_t k : spec.scaledKs()) {
      for (const std::string& place : spec.placements) {
        for (const std::string& algo : spec.algorithms) {
          const Cell& c = res.at({graph, k, place, "round_robin", algo});
          if (!c.ran()) continue;  // outside this --shard
          t.row()
              .cell(graph)
              .cell(std::uint64_t{k})
              .cell(PlacementSpec::parse(place).toString())
              .cell(algorithmDisplayName(algo))
              .cell(std::uint64_t{c.first().n})
              .cell(c.first().edges)
              .cell(std::uint64_t{c.first().maxDegree});
          timeCellCi(t, c, ci);
          t.cell(std::string(c.allDispersed() ? "yes" : "NO"));
        }
      }
    }
  }
  emitTable(ctx, name, "ad-hoc scenario cells", t);
}

}  // namespace disp::exp
