#include "exp/bench_registry.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>

#include "algo/placement.hpp"
#include "core/faults.hpp"
#include "exp/benches.hpp"
#include "graph/spec.hpp"
#include "util/stats.hpp"

namespace disp::exp {

const std::vector<BenchDef>& benchRegistry() {
  static const std::vector<BenchDef> kRegistry{
      {"table1_sync_rooted", "E1: rounds vs k, SYNC rooted (Theorem 6.1 vs baselines)",
       &benchTable1SyncRooted},
      {"table1_sync_general", "E3: rounds vs k and l, SYNC general (§8.1)",
       &benchTable1SyncGeneral},
      {"table1_async_rooted", "E2: epochs vs k, ASYNC rooted (Theorem 7.1)",
       &benchTable1AsyncRooted},
      {"table1_async_general", "E4: epochs vs k and l, ASYNC general (Theorem 8.2)",
       &benchTable1AsyncGeneral},
      {"table1_memory", "E5: max persistent bits/agent vs O(log(k+Delta))",
       &benchTable1Memory},
      {"table1_scale", "E15: SYNC rooted at k=2^10..2^14 (streams cells to JSONL)",
       &benchTable1Scale},
      {"fig1_empty_selection", "E6: empty-node fraction on random trees (Lemma 1)",
       &benchFig1EmptySelection, /*heavy=*/false, /*shardable=*/false},
      {"fig2_oscillation", "E7: cover-assignment statistics (Lemmas 2-3)",
       &benchFig2Oscillation, /*heavy=*/false, /*shardable=*/false},
      {"fig5_sync_probe", "E8: Sync_Probe rounds vs degree (Lemma 4)",
       &benchFig5SyncProbe, /*heavy=*/false, /*shardable=*/false},
      {"fig6_guest_see_off", "E10: Guest_See_Off sweeps vs log k (Lemma 6)",
       &benchFig6GuestSeeOff, /*heavy=*/false, /*shardable=*/false},
      {"fig7_async_probe", "E9: Async_Probe iterations vs log k (Lemma 5)",
       &benchFig7AsyncProbe, /*heavy=*/false, /*shardable=*/false},
      {"lower_bound_line", "E11: time/k on the Omega(k) path instance",
       &benchLowerBoundLine},
      {"ablation_techniques", "E12: KS -> doubling -> full technique levels",
       &benchAblationTechniques},
      {"ablation_scheduler", "E13: epoch robustness across ASYNC schedulers",
       &benchAblationScheduler},
      {"scale_real", "E19: web-scale ingest & peak-RSS campaign (n=10^6..10^7)",
       &benchScaleReal, /*heavy=*/true},
      {"trace_smoke", "E16: tiny observed cells (drives --trace / check_trace.sh)",
       &benchTraceSmoke},
      {"scenario", "E17: ad-hoc workloads from --graphs/--placements/--ks specs",
       &benchScenario},
      {"faults", "E20: fault loads vs protocols — self-stabilization scorecard",
       &benchFaults},
  };
  return kRegistry;
}

const BenchDef* findBench(const std::string& name) {
  for (const BenchDef& def : benchRegistry()) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

std::pair<unsigned, unsigned> parseShardFlag(const std::string& value) {
  const auto fail = [&value](const std::string& why) {
    return std::invalid_argument("--shard=" + value + ": " + why +
                                 " (canonical form is I/N, e.g. --shard=0/4)");
  };
  const auto slash = value.find('/');
  if (slash == std::string::npos || value.find('/', slash + 1) != std::string::npos) {
    throw fail("wants exactly one '/'");
  }
  const std::string index = value.substr(0, slash);
  const std::string count = value.substr(slash + 1);
  // Canonical decimal only: one spelling per shard ("01/4" is not "1/4").
  const auto canonical = [](const std::string& s) {
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) return false;
    return s.size() == 1 || s[0] != '0';
  };
  if (!canonical(index)) throw fail("index is not a canonical decimal");
  if (!canonical(count)) throw fail("count is not a canonical decimal");
  if (index.size() > 4 || count.size() > 4) throw fail("shard numbers out of range");
  const unsigned long long i = std::stoull(index);
  const unsigned long long n = std::stoull(count);
  if (n < 1 || n > 4096) throw fail("count must be in [1, 4096]");
  if (i >= n) throw fail("index must be < count");
  return {static_cast<unsigned>(i), static_cast<unsigned>(n)};
}

namespace {

/// --seeds/--graphs/--placements/--faults/--ks, validated up front so a
/// typo'd spec fails before any sweep runs; throws std::invalid_argument.
void applyAxisOverrides(BenchContext& ctx, const Cli& cli) {
  ctx.seedOverride = cli.u64list("seeds");
  // Workload overrides: ';'-separated GraphSpec / PlacementSpec strings
  // (spec parameters use ',' internally) and a comma-separated k list.
  ctx.graphOverride = cli.specList("graphs");
  ctx.placementOverride = cli.specList("placements");
  ctx.faultsOverride = cli.specList("faults");
  for (const std::string& g : ctx.graphOverride) (void)GraphSpec::parse(g);
  for (const std::string& p : ctx.placementOverride) (void)PlacementSpec::parse(p);
  for (const std::string& f : ctx.faultsOverride) (void)FaultSpec::parse(f);
  for (const std::uint64_t k : cli.u64list("ks")) {
    if (k < 1 || k > (1ULL << 24)) {
      throw std::invalid_argument("--ks values must be in [1, 2^24]");
    }
    ctx.kOverride.push_back(static_cast<std::uint32_t>(k));
  }
}

/// Every flag runBenches reads (the list in bench_registry.hpp).  Anything
/// else is a typo or a retired flag, rejected before any sweep runs.
constexpr const char* kBenchFlags[] = {
    "threads", "seeds", "jsonl", "trace", "trajectory", "sample", "graphs",
    "placements", "ks", "faults", "shard", "stream-cells",
};

}  // namespace

int runBenches(const std::vector<std::string>& names, const Cli& cli) {
  for (const std::string& name : names) {
    if (!findBench(name)) {
      std::cerr << "error: unknown sweep '" << name << "' — known sweeps:\n";
      for (const BenchDef& def : benchRegistry()) {
        std::cerr << "  " << def.name << "\n";
      }
      return 2;
    }
  }
  for (const auto& [flag, value] : cli.flags()) {
    if (std::find(std::begin(kBenchFlags), std::end(kBenchFlags), flag) ==
        std::end(kBenchFlags)) {
      std::cerr << "error: unknown flag --" << flag << "\n";
      return 2;
    }
  }
  for (const char* flag : {"jsonl", "trace", "trajectory"}) {
    if (cli.bare(flag)) {
      std::cerr << "error: --" << flag << " wants a path: --" << flag << "=PATH\n";
      return 2;
    }
  }

  std::unique_ptr<std::ofstream> jsonlFile;
  std::unique_ptr<JsonlWriter> jsonl;
  const std::string jsonlPath = cli.str("jsonl", "");
  if (!jsonlPath.empty()) {
    jsonlFile = std::make_unique<std::ofstream>(jsonlPath);
    if (!*jsonlFile) {
      std::cerr << "error: cannot open --jsonl file: " << jsonlPath << "\n";
      return 2;
    }
    jsonl = std::make_unique<JsonlWriter>(*jsonlFile);
  }

  BenchContext ctx{std::cout, jsonl.get(), {}, {}, {}, {}, {}, {}};
  const std::int64_t threads = cli.integer("threads", 0);
  if (threads < 0 || threads > 4096) {
    std::cerr << "error: --threads must be in [0, 4096] (0 = hardware concurrency)\n";
    return 2;
  }
  ctx.batch.threads = static_cast<unsigned>(threads);
  try {
    applyAxisOverrides(ctx, cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  // --shard=I/N: deterministic cell-index partition (merge the JSONL
  // outputs with disp_bench merge).
  if (cli.has("shard")) {
    try {
      const auto sh = parseShardFlag(cli.str("shard", ""));
      ctx.batch.shardIndex = sh.first;
      ctx.batch.shardCount = sh.second;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
    for (const std::string& name : names) {
      if (!findBench(name)->shardable) {
        std::cerr << "error: sweep '" << name
                  << "' is not shardable (hand-rolled loop outside the "
                     "canonical cell enumeration) — every shard would rerun "
                     "it whole; drop --shard or drop the sweep\n";
        return 2;
      }
    }
  }

  // --stream-cells: mirror every finished cell as one generic row the
  // moment its replicates land (completion order; the sink flushes per
  // line), so a SIGKILL'd shard keeps its finished cells durable.  Suites
  // with richer custom streams (table1_scale, scale_real) override this
  // hook on their own BatchOptions copy.
  std::string currentSweep;
  if (cli.has("stream-cells")) {
    if (jsonl == nullptr) {
      std::cerr << "error: --stream-cells wants --jsonl=PATH (it streams "
                   "cell rows there)\n";
      return 2;
    }
    ctx.batch.onCellDone = [&currentSweep, sink = jsonl.get()](const Cell& c) {
      std::size_t errors = 0;
      for (const RunRecord& r : c.replicates) {
        if (!r.error.empty()) ++errors;
      }
      std::vector<std::pair<std::string, std::string>> fields;
      fields.emplace_back("sweep", currentSweep);
      fields.emplace_back("table", "cell");
      fields.emplace_back("graph", c.key.graph);
      fields.emplace_back("k", std::to_string(c.key.k));
      fields.emplace_back("placement", c.key.placement);
      fields.emplace_back("sched", c.key.scheduler);
      fields.emplace_back("algo", c.key.algorithm);
      fields.emplace_back("faults", c.key.faults);
      fields.emplace_back("n", std::to_string(c.first().n));
      fields.emplace_back("m", std::to_string(c.first().edges));
      fields.emplace_back("Delta", std::to_string(c.first().maxDegree));
      fields.emplace_back("time",
                          fmt(c.meanTime(), c.replicates.size() == 1 ? 0 : 1));
      fields.emplace_back("moves", std::to_string(c.first().run.totalMoves));
      fields.emplace_back("dispersed", c.allDispersed() ? "yes" : "NO");
      fields.emplace_back("errors", std::to_string(errors));
      fields.emplace_back("seeds", std::to_string(c.replicates.size()));
      sink->record(fields);
    };
  }

  // Trace sink: every replicate of every selected sweep streams its typed
  // events + sampled snapshots as JSON lines (schema in exp/sink.hpp).
  std::unique_ptr<std::ofstream> traceFile;
  std::unique_ptr<TraceJsonl> trace;
  const std::string tracePath = cli.str("trace", "");
  const std::int64_t sample = cli.integer("sample", 1);
  if (sample < 1) {
    std::cerr << "error: --sample must be >= 1 (snapshot cadence)\n";
    return 2;
  }
  if (!tracePath.empty()) {
    traceFile = std::make_unique<std::ofstream>(tracePath);
    if (!*traceFile) {
      std::cerr << "error: cannot open --trace file: " << tracePath << "\n";
      return 2;
    }
    trace = std::make_unique<TraceJsonl>(*traceFile,
                                         static_cast<std::uint64_t>(sample));
    ctx.batch.observe = [tracer = trace.get()](const CellKey& key,
                                               std::uint64_t seed,
                                               RunOptions& opts) {
      tracer->observe(key, seed, opts);
    };
  }

  // Trajectory CSV sink (exclusive with --trace: both claim the snapshot
  // hooks; the trace stream already carries the sample rows).
  std::unique_ptr<std::ofstream> trajFile;
  std::unique_ptr<TrajectoryCsv> traj;
  const std::string trajPath = cli.str("trajectory", "");
  if (!trajPath.empty()) {
    if (!tracePath.empty()) {
      std::cerr << "error: --trajectory and --trace are mutually exclusive "
                   "(--trace already streams sample rows)\n";
      return 2;
    }
    trajFile = std::make_unique<std::ofstream>(trajPath);
    if (!*trajFile) {
      std::cerr << "error: cannot open --trajectory file: " << trajPath << "\n";
      return 2;
    }
    traj = std::make_unique<TrajectoryCsv>(*trajFile,
                                           static_cast<std::uint64_t>(sample));
    ctx.batch.observe = [sink = traj.get()](const CellKey& key, std::uint64_t seed,
                                            RunOptions& opts) {
      sink->observe(key, seed, opts);
    };
  }

  for (const std::string& name : names) {
    currentSweep = name;
    try {
      findBench(name)->fn(ctx);
    } catch (const std::exception& e) {
      std::cerr << "error: sweep '" << name << "' failed: " << e.what() << "\n";
      return 1;
    }
  }
  if (jsonlFile) {
    jsonlFile->flush();
    if (!*jsonlFile) {
      std::cerr << "error: writing --jsonl file failed: " << jsonlPath << "\n";
      return 1;
    }
  }
  if (traceFile) {
    traceFile->flush();
    if (!*traceFile) {
      std::cerr << "error: writing --trace file failed: " << tracePath << "\n";
      return 1;
    }
  }
  if (trajFile) {
    trajFile->flush();
    if (!*trajFile) {
      std::cerr << "error: writing --trajectory file failed: " << trajPath << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace disp::exp
