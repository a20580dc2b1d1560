// Table 1 sweeps (E1–E5) as declarative SweepSpecs.  Table layouts and
// single-seed cell values are byte-identical to the historical hand-rolled
// binaries; with --seeds replicates, time cells become per-cell means.
#include <cmath>

#include "algo/placement.hpp"
#include "algo/registry.hpp"
#include "exp/benches.hpp"

namespace disp::exp {

// E1 — Table 1, SYNC rooted rows.
// Measures rounds vs k for the paper's RootedSyncDisp (Theorem 6.1, O(k)),
// the Sudo-style helper-doubling baseline (O(k log k); GeneralSync with
// ℓ=1) and the KS baseline (O(min{m, kΔ})), across graph families.  The
// claim to check: ours has flat rounds/k; Sudo-style has flat
// rounds/(k log k); KS blows up on dense graphs.
void benchTable1SyncRooted(BenchContext& ctx) {
  const std::string name = "table1_sync_rooted";
  ctx.out << "# E1: Table 1 — SYNC rooted (rounds vs k)\n";
  for (const std::string& family :
       ctx.graphsOr({"er", "complete", "star", "path", "randtree"})) {
    SweepSpec spec;
    spec.name = name;
    spec.graphs = {family};
    // complete graphs need n=k to stress KS; other families use n=2k.
    spec.ks = kSweep(5, family == "complete" ? 8 : 9);
    spec.algorithms = {"rooted_sync", "general_sync",
                       "ks_sync"};
    spec.seeds = ctx.seedsOr(3);
    spec.nOverK = family == "complete" ? 1.0 : 2.0;
    const SweepResult res = ctx.runner().run(spec);

    const bool ci = spec.seeds.size() > 1;
    std::vector<std::string> hdr{"k", "n", "m", "Delta"};
    timeHeader(hdr, "RootedSync(ours)", ci);
    timeHeader(hdr, "Sudo-style", ci);
    timeHeader(hdr, "KS-baseline", ci);
    hdr.insert(hdr.end(), {"ours/k", "sudo/(k log k)"});
    Table t(hdr);
    std::vector<double> ks, ours;
    for (const std::uint32_t k : spec.ks) {
      const Cell& a = res.at({family, k, "rooted", "round_robin", "rooted_sync"});
      const Cell& b = res.at({family, k, "rooted", "round_robin", "general_sync"});
      const Cell& c = res.at({family, k, "rooted", "round_robin", "ks_sync"});
      if (!a.ran() || !b.ran() || !c.ran()) continue;  // outside this --shard
      if (!a.allDispersed() || !b.allDispersed() || !c.allDispersed()) {
        ctx.out << "!! undispersed case " << family << " k=" << k << "\n";
        continue;
      }
      const double lg = std::log2(double(k));
      t.row()
          .cell(std::uint64_t{k})
          .cell(std::uint64_t{a.first().n})
          .cell(a.first().edges)
          .cell(std::uint64_t{a.first().maxDegree});
      timeCellCi(t, a, ci);
      timeCellCi(t, b, ci);
      timeCellCi(t, c, ci);
      t.cell(a.meanTime() / k, 1).cell(b.meanTime() / (k * lg), 2);
      ks.push_back(k);
      ours.push_back(a.meanTime());
    }
    emitTable(ctx, name, "family: " + family, t);
    if (ks.size() >= 2) {
      emitFit(ctx, name, growthDiagnosisLine(family + "/RootedSync", ks, ours));
    }
  }
}

// E2 — Table 1, ASYNC rooted rows.
// Epochs vs k for RootedAsyncDisp (Theorem 7.1, O(k log k)) against the KS
// baseline (O(min{m, kΔ})), under several fair adversarial schedulers.
void benchTable1AsyncRooted(BenchContext& ctx) {
  const std::string name = "table1_async_rooted";
  ctx.out << "# E2: Table 1 — ASYNC rooted (epochs vs k)\n";
  for (const std::string& family : ctx.graphsOr({"er", "complete", "star"})) {
    SweepSpec spec;
    spec.name = name;
    spec.graphs = {family};
    spec.ks = kSweep(5, 8);
    spec.algorithms = {"rooted_async", "ks_async"};
    spec.schedulers = {"round_robin", "uniform"};
    spec.seeds = ctx.seedsOr(5);
    spec.nOverK = family == "complete" ? 1.0 : 2.0;
    const SweepResult res = ctx.runner().run(spec);

    const bool ci = spec.seeds.size() > 1;
    std::vector<std::string> hdr{"k", "Delta", "sched"};
    timeHeader(hdr, "RootedAsync(ours)", ci);
    timeHeader(hdr, "KS-async", ci);
    hdr.insert(hdr.end(), {"ours/(k log k)", "ks/min(m,kDelta)"});
    Table t(hdr);
    std::vector<double> ks, ours;
    for (const std::uint32_t k : spec.ks) {
      for (const std::string& sched : spec.schedulers) {
        const Cell& a = res.at({family, k, "rooted", sched, "rooted_async"});
        const Cell& b = res.at({family, k, "rooted", sched, "ks_async"});
        if (!a.ran() || !b.ran()) continue;  // outside this --shard
        if (!a.allDispersed() || !b.allDispersed()) continue;
        const double lg = std::log2(double(k));
        const double ksBound =
            std::min<double>(double(a.first().edges),
                             double(k) * a.first().maxDegree);
        t.row()
            .cell(std::uint64_t{k})
            .cell(std::uint64_t{a.first().maxDegree})
            .cell(sched);
        timeCellCi(t, a, ci);
        timeCellCi(t, b, ci);
        t.cell(a.meanTime() / (k * lg), 2).cell(b.meanTime() / ksBound, 2);
        if (sched == "round_robin") {
          ks.push_back(k);
          ours.push_back(a.meanTime());
        }
      }
    }
    emitTable(ctx, name, "family: " + family, t);
    if (ks.size() >= 2) {
      emitFit(ctx, name, growthDiagnosisLine(family + "/RootedAsync", ks, ours));
    }
  }
}

// E3 — Table 1, SYNC general rows.
// Rounds vs k for the multi-source case (ℓ start nodes) with KS
// subsumption.  The growing phase here is the helper-doubling one (see
// DESIGN.md §4: the Theorem 8.1 integration of the oscillation machinery
// into the general case is the documented gap), so the expected shape is
// the [36]-level O(k log k)-ish curve, still far below the KS baseline.
void benchTable1SyncGeneral(BenchContext& ctx) {
  const std::string name = "table1_sync_general";
  ctx.out << "# E3: Table 1 — SYNC general (rounds vs k and l)\n";
  SweepSpec spec;
  spec.name = name;
  spec.graphs = ctx.graphsOr({"er", "grid", "randtree"});
  spec.ks = kSweep(5, 8);
  spec.algorithms = {"general_sync"};
  spec.placements =
      ctx.placementsOr({"clusters:l=2", "clusters:l=4", "clusters:l=8"});
  spec.seeds = ctx.seedsOr(7);
  const SweepResult res = ctx.runner().run(spec);

  const bool ci = spec.seeds.size() > 1;
  std::vector<std::string> hdr{"family", "k", "l"};
  timeHeader(hdr, "rounds", ci);
  hdr.insert(hdr.end(), {"rounds/(k log k)", "dispersed"});
  Table t(hdr);
  for (const std::string& family : spec.graphs) {
    for (const std::uint32_t k : spec.ks) {
      for (const std::string& place : spec.placements) {
        const Cell& r = res.at({family, k, place, "round_robin", "general_sync"});
        if (!r.ran()) continue;  // outside this --shard
        const double lg = std::log2(double(k));
        t.row().cell(family).cell(std::uint64_t{k}).cell(
            PlacementSpec::parse(place).tableLabel());
        timeCellCi(t, r, ci);
        t.cell(r.meanTime() / (k * lg), 2)
            .cell(std::string(r.allDispersed() ? "yes" : "NO"));
      }
    }
  }
  emitTable(ctx, name, "GeneralSync across start-node counts", t);
}

// E4 — Table 1, ASYNC general rows.
//
// Measures GeneralAsyncDisp (Theorem 8.2 = the RootedAsyncDisp growing
// phase composed with KS subsumption, collapse walks and squatting) from
// general initial configurations with ℓ > 1 source nodes, against the
// O(k log k)-epoch claim, across adversarial schedulers.  The ℓ = 1 column
// is kept as the rooted reference point so the general rows can be read as
// a multiplicative overhead over the growing phase alone.
void benchTable1AsyncGeneral(BenchContext& ctx) {
  const std::string name = "table1_async_general";
  ctx.out << "# E4: Table 1 — ASYNC general (GeneralAsyncDisp, Theorem 8.2)\n";
  SweepSpec spec;
  spec.name = name;
  spec.graphs = ctx.graphsOr({"er", "grid"});
  spec.ks = kSweep(5, 8);
  spec.algorithms = {"general_async"};
  spec.placements = ctx.placementsOr({"rooted", "clusters:l=4", "clusters:l=16"});
  spec.schedulers = {"round_robin", "uniform", "weighted"};
  spec.seeds = ctx.seedsOr(9);
  const SweepResult res = ctx.runner().run(spec);

  const bool ci = spec.seeds.size() > 1;
  std::vector<std::string> hdr{"family", "k", "l", "sched"};
  timeHeader(hdr, "epochs", ci);
  hdr.emplace_back("epochs/(k log k)");
  Table t(hdr);
  std::vector<double> ks, es;
  for (const std::string& family : spec.graphs) {
    for (const std::uint32_t k : spec.ks) {
      for (const std::string& place : spec.placements) {
        const std::string l = PlacementSpec::parse(place).tableLabel();
        for (const std::string& sched : spec.schedulers) {
          const Cell& r = res.at({family, k, place, sched, "general_async"});
          if (!r.allDispersed()) continue;
          const double lg = std::log2(double(k));
          t.row()
              .cell(family)
              .cell(std::uint64_t{k})
              .cell(l)
              .cell(sched);
          timeCellCi(t, r, ci);
          t.cell(r.meanTime() / (k * lg), 2);
          if (family == "er" && l == "4" && sched == "round_robin") {
            ks.push_back(k);
            es.push_back(r.meanTime());
          }
        }
      }
    }
  }
  emitTable(ctx, name, "ASYNC general dispersion under schedulers", t);
  if (ks.size() >= 2) {
    emitFit(ctx, name, growthDiagnosisLine("er/GeneralAsync(l=4)", ks, es));
  }
}

// E5 — Table 1 memory column.
// Max persistent bits per agent vs (k, Δ) for every algorithm; the paper
// claims O(log(k+Δ)) for all of them.  The report prints the measured
// high-water mark next to log2(k+Δ): the ratio must stay bounded as k
// doubles.
void benchTable1Memory(BenchContext& ctx) {
  const std::string name = "table1_memory";
  ctx.out << "# E5: Table 1 — memory (max persistent bits/agent)\n";
  Table t({"algo", "family", "k", "Delta", "bits", "log2(k+Delta)", "bits/log"});
  for (const std::string algo : {"rooted_sync", "rooted_async", "general_sync",
                                 "general_async", "ks_sync", "ks_async"}) {
    // GeneralAsync runs from a genuine general configuration (ℓ = 4); the
    // others keep their Table 1 placements (GeneralSync's ℓ = 1 is the
    // Sudo-style baseline row).
    const std::string place = algo == "general_async" ? "clusters:l=4" : "rooted";
    SweepSpec spec;
    spec.name = name;
    spec.graphs = ctx.graphsOr({"er", "star"});
    spec.ks = kSweep(5, 8);
    spec.algorithms = {algo};
    spec.placements = {place};
    spec.seeds = ctx.seedsOr(11);
    const SweepResult res = ctx.runner().run(spec);

    for (const std::string& family : spec.graphs) {
      for (const std::uint32_t k : spec.ks) {
        const Cell& r = res.at({family, k, place, "round_robin", algo});
        if (!r.allDispersed()) continue;
        const double lg = std::log2(double(k) + double(r.first().maxDegree));
        t.row()
            .cell(algorithmDisplayName(algo))
            .cell(family)
            .cell(std::uint64_t{k})
            .cell(std::uint64_t{r.first().maxDegree})
            .cell(r.maxMemoryBits())
            .cell(lg, 1)
            .cell(double(r.maxMemoryBits()) / lg, 1);
      }
    }
  }
  emitTable(ctx, name, "memory vs O(log(k+Delta))", t);
}

}  // namespace disp::exp
