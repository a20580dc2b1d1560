// E15 — Table 1 at scale: the large-k sweeps the hot-path overhaul pays
// for (k = 2^10 .. 2^14, n = 2k).  SYNC rooted only: the paper's O(k)
// algorithm is the one whose simulation cost stays tractable at this size
// (total moves are Θ(k²) simulation facts regardless of engine speed).
//
// Cells stream: every finished cell is mirrored to the JSONL sink the
// moment its replicates land (completion order), so a killed sweep keeps
// its completed cells; the markdown tables still print in canonical order
// at the end.
#include <chrono>
#include <fstream>

#include "algo/general_sync.hpp"
#include "core/world.hpp"
#include "exp/benches.hpp"
#include "graph/graph_io.hpp"
#include "graph/spec.hpp"
#include "util/check.hpp"
#include "util/mem.hpp"

namespace disp::exp {

void benchTable1Scale(BenchContext& ctx) {
  const std::string name = "table1_scale";
  ctx.out << "# E15: Table 1 at scale — SYNC rooted, k=2^10..2^14\n";
  for (const std::string& family : ctx.graphsOr({"er", "grid", "randtree"})) {
    SweepSpec spec;
    spec.name = name;
    spec.graphs = {family};
    spec.ks = ctx.ksOr({1u << 10, 1u << 11, 1u << 12, 1u << 13, 1u << 14});
    spec.scale = scale();  // ks are literal, so fold DISP_BENCH_SCALE here
    spec.algorithms = {"rooted_sync"};
    spec.seeds = ctx.seedsOr(3);

    BatchRunner runner = ctx.runner();
    if (ctx.jsonl != nullptr) {
      BatchOptions opts = ctx.batch;
      opts.onCellDone = [&ctx, &name](const Cell& c) {
        // One progress row per finished cell (flushed by the sink); rows
        // carry the full simulation facts so partial runs stay usable.
        std::vector<std::pair<std::string, std::string>> fields;
        fields.emplace_back("sweep", name);
        fields.emplace_back("table", "cell");
        fields.emplace_back("family", c.key.graph);
        fields.emplace_back("k", std::to_string(c.key.k));
        fields.emplace_back("n", std::to_string(c.first().n));
        fields.emplace_back("rounds", fmt(c.meanTime(), c.replicates.size() == 1 ? 0 : 1));
        fields.emplace_back("moves", std::to_string(c.first().run.totalMoves));
        fields.emplace_back("dispersed", c.allDispersed() ? "yes" : "NO");
        ctx.jsonl->record(fields);
      };
      runner = BatchRunner(opts);
    }
    const SweepResult res = runner.run(spec);

    const bool ci = spec.seeds.size() > 1;
    std::vector<std::string> hdr{"k", "n", "m", "Delta"};
    timeHeader(hdr, "rounds", ci);
    hdr.insert(hdr.end(), {"rounds/k", "moves", "dispersed"});
    Table t(hdr);
    std::vector<double> ks, ours;
    for (const std::uint32_t k : spec.scaledKs()) {
      const Cell& c = res.at({family, k, "rooted", "round_robin", "rooted_sync"});
      if (!c.ran()) continue;  // outside this --shard
      t.row()
          .cell(std::uint64_t{k})
          .cell(std::uint64_t{c.first().n})
          .cell(c.first().edges)
          .cell(std::uint64_t{c.first().maxDegree});
      timeCellCi(t, c, ci);
      t.cell(c.meanTime() / k, 2)
          .cell(c.first().run.totalMoves)
          .cell(std::string(c.allDispersed() ? "yes" : "NO"));
      if (c.allDispersed()) {
        ks.push_back(k);
        ours.push_back(c.meanTime());
      }
    }
    emitTable(ctx, name, "family: " + family, t);
    if (ks.size() >= 2) {
      emitFit(ctx, name, growthDiagnosisLine(family + "/RootedSync@scale", ks, ours));
    }
  }
}

// E19 — web-scale ingest & memory campaign: general SYNC cells on
// 10^6-node generated graphs (er:fast / ba / rmat) and a 10^7-node on-disk
// dataset, every cell annotated with its process peak RSS and the
// CSR+cells lower bound it is gated against (rss_ratio <= 2 is the CI
// scale-smoke gate).  File datasets come from scripts/make_scale_data.sh;
// missing ones are skipped with a note so the sweep runs anywhere.
//
// Placements are spread-only by default: rooted is Θ(k²) total moves at
// these k, and clustered starts drive the subsumption machinery whose
// simulated marches recompute BFS distances per hop — both are simulation
// costs (not protocol facts) that make 2^20-agent cells intractable on one
// core.  Spread cells still build the full k-fiber engine + world, which
// is exactly what a memory campaign measures.
void benchScaleReal(BenchContext& ctx) {
  const std::string name = "scale_real";
  ctx.out << "# E19: web-scale memory campaign — SYNC general, peak RSS per cell\n";

  const std::vector<std::string> graphs = ctx.graphsOr(
      {"er:fast=1,n=1048576", "ba:n=1048576", "rmat:n=1048576",
       "file:bench/data/ba_1e7.e"});
  const std::vector<std::uint32_t> ks =
      ctx.ksOr({1u << 15, 1u << 16, 1u << 17, 1u << 18, 1u << 19, 1u << 20});
  const std::vector<std::string> placements = ctx.placementsOr({"spread"});

  // Declared-state floor in MiB: the CSR (offsets, and one 8-byte
  // {neighbor, reverse port} slot per half-edge), the World's node and
  // agent cells, and general_sync's per-agent state and per-group context
  // (one group per agent under the default spread placement; under
  // clustered overrides ℓ < k and the group term overcounts — the ratio is
  // campaign telemetry either way).  What the
  // 2x headroom in rss_ratio = peak_rss_mb / rss_lb_mb then gates is
  // everything *not* declared: fiber frames, occupancy views, allocator
  // slack — the overheads that would silently balloon if someone hung a
  // vector off a per-agent struct.
  const auto lowerBoundMb = [](std::uint64_t n, std::uint64_t m, std::uint64_t k) {
    const std::uint64_t graphBytes = 4 * (n + 1) + 16 * m;
    const std::uint64_t worldBytes = World::kNodeCellBytes * n + World::kAgentCellBytes * k;
    const std::uint64_t engineBytes =
        (GeneralSyncDispersion::kAgentStateBytes + GeneralSyncDispersion::kGroupCtxBytes) * k;
    return double(graphBytes + worldBytes + engineBytes) / double(1u << 20);
  };

  // The skip note and the ingest row describe a dataset, not a cell, so
  // under --shard=I/N only shard 0 writes them: each row of the sweep then
  // comes from exactly one shard, and the shards merge.
  const bool writesDatasetRows = ctx.batch.shardIndex == 0;
  for (const std::string& graph : graphs) {
    if (graph.rfind("file:", 0) == 0) {
      const std::string path = graph.substr(5);
      if (!std::ifstream(path).good()) {
        if (writesDatasetRows) {
          emitNote(ctx, name, "note",
                   "skipped " + graph +
                       " (dataset not materialized; run scripts/make_scale_data.sh)");
        }
        continue;
      }
      if (writesDatasetRows) {
        // Ingest demonstration: time the streaming load on its own, with
        // the RSS watermark reset so the row isolates the loader's
        // footprint (two passes over the file, id map + mapped pairs
        // transient, CSR emitted directly).  BatchRunner reloads below
        // for the cells.
        (void)disp::resetPeakRss();
        const auto t0 = std::chrono::steady_clock::now();
        const Graph g = loadAnyGraph(path);
        const double loadMs = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
        Table ingest({"file", "n", "m", "load_ms", "peak_rss_mb"});
        ingest.row()
            .cell(path)
            .cell(std::uint64_t{g.nodeCount()})
            .cell(g.edgeCount())
            .cell(loadMs, 1)
            .cell(disp::peakRssMb(), 1);
        emitTable(ctx, name, "ingest: " + path, ingest);
      }
    }

    SweepSpec spec;
    spec.name = name;
    spec.graphs = {graph};
    spec.ks = ks;
    spec.scale = scale();  // ks are literal, so fold DISP_BENCH_SCALE here
    spec.algorithms = {"general_sync"};
    spec.placements = placements;
    spec.seeds = ctx.seedsOr(11);

    // One BatchRunner invocation per graph, serial: the runner builds all
    // of a sweep's distinct graphs up front, so a single cross-product
    // would hold every graph resident at once and charge cell A's RSS
    // watermark with graph B; and concurrent cells can't attribute a
    // process-wide watermark at all (BatchOptions::resetPeakRss).
    BatchOptions opts = ctx.batch;
    opts.threads = 1;
    opts.resetPeakRss = true;
    opts.onCellDone = [&ctx, &name, &lowerBoundMb](const Cell& c) {
      if (ctx.jsonl == nullptr) return;
      const double lb =
          lowerBoundMb(c.first().n, c.first().edges, c.key.k);
      std::vector<std::pair<std::string, std::string>> fields;
      fields.emplace_back("sweep", name);
      fields.emplace_back("table", "cell");
      fields.emplace_back("family", c.key.graph);
      fields.emplace_back("placement", c.key.placement);
      fields.emplace_back("k", std::to_string(c.key.k));
      fields.emplace_back("n", std::to_string(c.first().n));
      fields.emplace_back("m", std::to_string(c.first().edges));
      fields.emplace_back("rounds",
                          fmt(c.meanTime(), c.replicates.size() == 1 ? 0 : 1));
      fields.emplace_back("moves", std::to_string(c.first().run.totalMoves));
      fields.emplace_back("peak_rss_mb", fmt(c.peakRssMb, 1));
      fields.emplace_back("rss_lb_mb", fmt(lb, 1));
      fields.emplace_back("rss_ratio",
                          fmt(lb > 0.0 ? c.peakRssMb / lb : 0.0, 2));
      fields.emplace_back("dispersed", c.allDispersed() ? "yes" : "NO");
      ctx.jsonl->record(fields);
    };
    const SweepResult res = BatchRunner(opts).run(spec);

    Table t({"placement", "k", "n", "m", "rounds", "moves", "peak_rss_mb",
             "rss_lb_mb", "rss_ratio", "dispersed"});
    for (const std::string& place : spec.placements) {
      for (const std::uint32_t k : spec.scaledKs()) {
        const Cell& c = res.at({graph, k, place, "round_robin", "general_sync"});
        if (!c.ran()) continue;  // outside this --shard
        const double lb = lowerBoundMb(c.first().n, c.first().edges, k);
        t.row()
            .cell(place)
            .cell(std::uint64_t{k})
            .cell(std::uint64_t{c.first().n})
            .cell(c.first().edges)
            .cell(c.meanTime(), c.replicates.size() == 1 ? 0 : 1)
            .cell(c.first().run.totalMoves)
            .cell(c.peakRssMb, 1)
            .cell(lb, 1)
            .cell(lb > 0.0 ? c.peakRssMb / lb : 0.0, 2)
            .cell(std::string(c.allDispersed() ? "yes" : "NO"));
      }
    }
    emitTable(ctx, name, "graph: " + graph, t);
  }
}

}  // namespace disp::exp
