// Tests for the src/exp/ experiment driver: sweep enumeration, the batch
// runner's thread-count invariance (bit-identical cells for 1 vs 4+
// workers), concurrent runSession calls on shared Graph instances, the
// JSONL sink format, runBenches' flag check, and the trace-stream checker
// on real streams and one corrupted copy per rule.  The *Concurrent* and
// *Parallel* tests are the TSan targets.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include <cstdlib>

#include "temp_path.hpp"
#include "algo/placement.hpp"
#include "algo/runner.hpp"
#include "exp/batch_runner.hpp"
#include "exp/bench_registry.hpp"
#include "exp/json.hpp"
#include "exp/sink.hpp"
#include "exp/sweep.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "graph/spec.hpp"
#include "util/cli.hpp"

namespace disp::exp {
namespace {

void expectSameRun(const RunResult& a, const RunResult& b, const std::string& what) {
  EXPECT_EQ(a.dispersed, b.dispersed) << what;
  EXPECT_EQ(a.time, b.time) << what;
  EXPECT_EQ(a.activations, b.activations) << what;
  EXPECT_EQ(a.totalMoves, b.totalMoves) << what;
  EXPECT_EQ(a.maxMemoryBits, b.maxMemoryBits) << what;
  EXPECT_EQ(a.finalPositions, b.finalPositions) << what;
}

BatchRunner runnerWith(unsigned threads) {
  BatchOptions options;
  options.threads = threads;
  return BatchRunner(options);
}

SweepSpec smallSpec() {
  SweepSpec spec;
  spec.name = "test";
  spec.graphs = {"er", "star"};
  spec.ks = {12, 24};
  spec.algorithms = {"rooted_sync", "ks_async",
                     "general_async"};
  spec.placements = {"rooted", "clusters:l=3"};
  spec.schedulers = {"round_robin", "uniform"};
  spec.seeds = {1, 2, 3};
  return spec;
}

TEST(Sweep, EnumeratesCellsInCanonicalOrder) {
  const SweepSpec spec = smallSpec();
  const auto keys = enumerateCells(spec);
  ASSERT_EQ(keys.size(), spec.cellCount());
  ASSERT_EQ(keys.size(), 2u * 2u * 3u * 2u * 2u);
  // graph ▸ k ▸ placement ▸ scheduler ▸ algorithm.
  EXPECT_EQ(keys[0].graph, "er");
  EXPECT_EQ(keys[0].k, 12u);
  EXPECT_EQ(keys[0].placement, "rooted");
  EXPECT_EQ(keys[0].scheduler, "round_robin");
  EXPECT_EQ(keys[0].algorithm, "rooted_sync");
  EXPECT_EQ(keys[1].algorithm, "ks_async");
  EXPECT_EQ(keys[3].scheduler, "uniform");
  EXPECT_EQ(keys[6].placement, "clusters:l=3");
  EXPECT_EQ(keys.back().graph, "star");
  EXPECT_EQ(keys.back().k, 24u);
  EXPECT_EQ(keys.back().algorithm, "general_async");
}

TEST(Sweep, RejectsEmptyAxes) {
  SweepSpec spec = smallSpec();
  spec.ks.clear();
  EXPECT_THROW((void)enumerateCells(spec), std::invalid_argument);
}

// The faults axis: innermost in the enumeration, canonicalized, validated
// up front, defaulted to {"none"} so historical sweeps are unchanged.
TEST(Sweep, FaultsAxisEnumeratesInnermostAndCanonicalizes) {
  SweepSpec spec = smallSpec();
  spec.faults = {"none", "crash:restart=064,rate=0.25"};
  const auto keys = enumerateCells(spec);
  ASSERT_EQ(keys.size(), spec.cellCount());
  ASSERT_EQ(keys.size(), 2u * 2u * 3u * 2u * 2u * 2u);
  EXPECT_EQ(keys[0].faults, "none");
  EXPECT_EQ(keys[1].faults, "crash:rate=0.25,restart=64");  // canonical
  EXPECT_EQ(keys[0].algorithm, keys[1].algorithm);  // innermost axis
  // describe() elides the fault-free load (historical labels unchanged)
  // and names any other.
  EXPECT_EQ(keys[0].describe().find("faults="), std::string::npos);
  EXPECT_NE(keys[1].describe().find("faults=crash:rate=0.25,restart=64"),
            std::string::npos);

  spec.faults = {"crash:nope=1"};
  EXPECT_THROW((void)enumerateCells(spec), std::invalid_argument);
  spec.faults.clear();
  EXPECT_THROW((void)enumerateCells(spec), std::invalid_argument);
}

// A sweep whose faults axis is the default singleton {"none"} must produce
// byte-identical cells to one that never mentions the axis — the
// zero-overhead guard at the sweep layer.
TEST(Sweep, DefaultFaultsAxisLeavesCellsByteIdentical) {
  SweepSpec spec = smallSpec();
  spec.graphs = {"er"};
  spec.ks = {16};
  spec.seeds = {1, 2};
  const SweepResult plain = runnerWith(1).run(spec);

  SweepSpec explicitNone = spec;
  explicitNone.faults = {"none"};
  const SweepResult none = runnerWith(1).run(explicitNone);

  ASSERT_EQ(plain.cells.size(), none.cells.size());
  for (std::size_t i = 0; i < plain.cells.size(); ++i) {
    EXPECT_EQ(plain.cells[i].key, none.cells[i].key);
    ASSERT_EQ(plain.cells[i].replicates.size(), none.cells[i].replicates.size());
    for (std::size_t r = 0; r < plain.cells[i].replicates.size(); ++r) {
      expectSameRun(plain.cells[i].replicates[r].run,
                    none.cells[i].replicates[r].run,
                    plain.cells[i].key.describe());
    }
  }

  // Faulted cells resolve through at() with any equivalent spelling.
  SweepSpec faulted = spec;
  faulted.ks = {12};
  faulted.algorithms = {"ks_async"};
  faulted.placements = {"rooted"};
  faulted.schedulers = {"round_robin"};
  faulted.seeds = {1};
  faulted.limit = 100000;
  faulted.faults = {"silent:count=2"};
  const SweepResult res = runnerWith(1).run(faulted);
  const Cell& cell =
      res.at({"er", 12, "rooted", "round_robin", "ks_async", "silent:count=02"});
  ASSERT_TRUE(cell.ran());
  EXPECT_EQ(cell.replicates.front().run.faultsInjected, 2u);
}

TEST(BatchRunner, RejectsUnknownSchedulerNameUpFront) {
  // A typo'd scheduler must fail the sweep loudly, not degrade every async
  // cell into errored replicates.
  SweepSpec spec = smallSpec();
  spec.schedulers = {"round_robbin"};
  EXPECT_THROW((void)runnerWith(1).run(spec), std::invalid_argument);
}

TEST(Sweep, ResultLookupThrowsOnMissingCell) {
  SweepSpec spec = smallSpec();
  spec.seeds = {1};
  const SweepResult res = runnerWith(1).run(spec);
  EXPECT_THROW((void)res.at({"grid", 12, "rooted", "round_robin", "rooted_sync"}),
               std::out_of_range);
  // Lookups canonicalize spec strings first: any equivalent spelling of an
  // existing cell resolves.
  EXPECT_NO_THROW(
      (void)res.at({"er", 12, "clusters:l=03", "round_robin", "rooted_sync"}));
}

TEST(BatchRunner, ParallelIsBitIdenticalToSerial) {
  const SweepSpec spec = smallSpec();
  const SweepResult serial = runnerWith(1).run(spec);
  const SweepResult parallel = runnerWith(4).run(spec);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const Cell& a = serial.cells[i];
    const Cell& b = parallel.cells[i];
    EXPECT_EQ(a.key, b.key);
    ASSERT_EQ(a.replicates.size(), spec.seeds.size());
    ASSERT_EQ(b.replicates.size(), spec.seeds.size());
    for (std::size_t r = 0; r < a.replicates.size(); ++r) {
      const std::string what = a.key.describe() + " seed=" +
                               std::to_string(spec.seeds[r]);
      EXPECT_EQ(a.replicates[r].error, b.replicates[r].error) << what;
      EXPECT_EQ(a.replicates[r].n, b.replicates[r].n) << what;
      EXPECT_EQ(a.replicates[r].edges, b.replicates[r].edges) << what;
      expectSameRun(a.replicates[r].run, b.replicates[r].run, what);
    }
    EXPECT_EQ(a.time.mean, b.time.mean);
    EXPECT_EQ(a.time.median, b.time.median);
  }
}

TEST(BatchRunner, MatchesDirectRunCellResults) {
  SweepSpec spec;
  spec.name = "direct";
  spec.graphs = {"er"};
  spec.ks = {16};
  spec.algorithms = {"general_sync"};
  spec.placements = {"clusters:l=4"};
  spec.seeds = {7, 8};
  const SweepResult res = runnerWith(2).run(spec);
  const Cell& cell = res.at({"er", 16, "clusters:l=4", "round_robin", "general_sync"});
  for (std::size_t r = 0; r < spec.seeds.size(); ++r) {
    const RunRecord direct = runCell(
        {"er", 16, "general_sync", "clusters:l=4", "round_robin", spec.seeds[r]});
    expectSameRun(direct.run, cell.replicates[r].run,
                  "seed=" + std::to_string(spec.seeds[r]));
  }
}

// The sweep layer has no labeling knob: a generator cell runs on the
// RandomPermutation labeling of its spec at n = k * nOverK and its seed.
TEST(Sweep, GeneratorCellsRunOnRandomPermutationPorts) {
  const CaseSpec c{"er", 16, "general_sync", "clusters:l=4", "round_robin", 7};
  const auto n = static_cast<std::uint32_t>(double(c.k) * c.nOverK);
  const RunRecord cell = runCell(c);
  expectSameRun(cell.run,
                runCell(makeGraph(c.graph, n, c.seed, PortLabeling::RandomPermutation), c).run,
                "random permutation");
  // The run tells the labelings apart, so the match above is not vacuous.
  const RunRecord inserted =
      runCell(makeGraph(c.graph, n, c.seed, PortLabeling::InsertionOrder), c);
  EXPECT_TRUE(cell.run.totalMoves != inserted.run.totalMoves ||
              cell.run.finalPositions != inserted.run.finalPositions);
}

TEST(BatchRunner, RecordsLimitErrorsInsteadOfThrowing) {
  SweepSpec spec;
  spec.name = "limited";
  spec.graphs = {"er"};
  spec.ks = {16};
  spec.algorithms = {"rooted_sync"};
  spec.seeds = {1, 2};
  spec.limit = 1;  // guaranteed to hit the round cap
  const SweepResult res = runnerWith(2).run(spec);
  const Cell& cell = res.cells.front();
  EXPECT_FALSE(cell.allDispersed());
  EXPECT_EQ(cell.time.count, 0u);
  for (const RunRecord& r : cell.replicates) {
    EXPECT_FALSE(r.error.empty());
    EXPECT_FALSE(r.run.dispersed);
    EXPECT_EQ(r.n, 32u);  // graph stats still recorded
  }
}

// The re-entrancy guarantee behind the whole driver (DESIGN.md §5):
// concurrent runSession calls sharing immutable Graph instances must
// produce exactly the per-seed results of serial runs.
TEST(RunSession, ConcurrentRunsOnSharedGraphsAreBitIdentical) {
  const Graph er = makeGraph("er", 48, 42);
  const Graph star = makeGraph("star", 48, 42);
  struct Config {
    const Graph* g;
    std::string algo;
    std::uint32_t clusters;
    const char* sched;
    std::uint64_t seed;
  };
  std::vector<Config> configs;
  const char* algos[] = {"rooted_sync",  "rooted_async", "general_sync",
                         "general_async", "ks_sync",     "ks_async"};
  const char* scheds[] = {"round_robin", "uniform", "weighted:16", "shuffled"};
  for (int i = 0; i < 24; ++i) {
    const std::string algo = algos[i % 6];
    const bool general =
        algo == "general_sync" || algo == "general_async";
    configs.push_back({i % 2 ? &star : &er, algo, general ? 3u : 1u,
                       scheds[i % 4], 1000 + std::uint64_t(i)});
  }
  const auto runOne = [](const Config& c) {
    const Placement p = c.clusters == 1
                            ? rootedPlacement(*c.g, 24, 0, c.seed)
                            : clusteredPlacement(*c.g, 24, c.clusters, c.seed);
    RunOptions opts;
    opts.algorithm = c.algo;
    opts.scheduler = c.sched;
    opts.seed = c.seed;
    return runSession(*c.g, p, opts);
  };

  std::vector<RunResult> serial(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) serial[i] = runOne(configs[i]);

  std::vector<RunResult> concurrent(configs.size());
  std::vector<std::thread> pool;
  pool.reserve(8);
  for (unsigned t = 0; t < 8; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < configs.size(); i += 8) {
        concurrent[i] = runOne(configs[i]);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  for (std::size_t i = 0; i < configs.size(); ++i) {
    expectSameRun(serial[i], concurrent[i], "config " + std::to_string(i));
    EXPECT_TRUE(serial[i].dispersed) << i;
  }
}

TEST(ParallelFor, CoversEveryIndexOnceAndPropagatesFirstError) {
  std::vector<int> hits(500, 0);
  parallelFor(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_THROW(parallelFor(4, 8,
                           [](std::size_t i) {
                             if (i == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(Stats, Ci95HalfWidth) {
  EXPECT_EQ(ci95(summarize(std::vector<double>{5.0})), 0.0);
  const Summary s = summarize(std::vector<double>{2.0, 4.0, 6.0, 8.0});
  EXPECT_NEAR(ci95(s), 1.96 * s.stddev / 2.0, 1e-12);
}

TEST(Jsonl, EscapesAndMirrorsTableRows) {
  std::ostringstream os;
  JsonlWriter w(os);
  w.record({{"a", "plain"}, {"q", "has \"quotes\"\nand\tmore"}});
  EXPECT_EQ(os.str(),
            "{\"a\": \"plain\", \"q\": \"has \\\"quotes\\\"\\nand\\tmore\"}\n");

  std::ostringstream md, jl;
  JsonlWriter sink(jl);
  BenchContext ctx{md, &sink, {}, {}};
  Table t({"k", "rounds"});
  t.row().cell(std::uint64_t{8}).cell(std::uint64_t{42});
  emitTable(ctx, "sweep_x", "title y", t);
  EXPECT_NE(md.str().find("| 42"), std::string::npos);
  EXPECT_EQ(jl.str(),
            "{\"sweep\": \"sweep_x\", \"table\": \"title y\", "
            "\"k\": \"8\", \"rounds\": \"42\"}\n");
}

TEST(Sweep, RejectsMalformedSpecAxesUpFront) {
  SweepSpec spec = smallSpec();
  spec.graphs = {"er", "nope:k=1"};
  EXPECT_THROW((void)enumerateCells(spec), std::invalid_argument);
  spec = smallSpec();
  spec.placements = {"cluster:l=3"};  // typo'd kind
  EXPECT_THROW((void)enumerateCells(spec), std::invalid_argument);
}

TEST(Sweep, ScaleRejectsMalformedEnvValue) {
  const char* old = std::getenv("DISP_BENCH_SCALE");
  const std::string saved = old ? old : "";
  const auto restore = [&] {
    if (old) {
      ::setenv("DISP_BENCH_SCALE", saved.c_str(), 1);
    } else {
      ::unsetenv("DISP_BENCH_SCALE");
    }
  };
  ::unsetenv("DISP_BENCH_SCALE");
  EXPECT_EQ(scale(), 1.0);
  ::setenv("DISP_BENCH_SCALE", "2", 1);
  EXPECT_EQ(scale(), 2.0);
  ::setenv("DISP_BENCH_SCALE", "0.5", 1);
  EXPECT_EQ(scale(), 0.5);
  // std::atof would have silently mapped all of these to 0.0, collapsing
  // every kSweep to the minimum; they must fail loudly instead.
  // (An empty value counts as unset, like the shell's `DISP_BENCH_SCALE=`.)
  ::setenv("DISP_BENCH_SCALE", "", 1);
  EXPECT_EQ(scale(), 1.0);
  for (const char* bad : {"abc", "0", "-1", "2x", "nan", "inf"}) {
    ::setenv("DISP_BENCH_SCALE", bad, 1);
    EXPECT_THROW((void)scale(), std::invalid_argument) << "value: " << bad;
  }
  restore();
}

// --shard=I/N semantics: the shards partition the canonical enumeration
// disjointly, each executed cell is bit-identical to the unsharded run,
// and onCellDone never fires for foreign cells.
TEST(BatchRunner, ShardsPartitionCellsDeterministically) {
  const SweepSpec spec = smallSpec();
  const SweepResult full = runnerWith(1).run(spec);

  std::vector<SweepResult> shards;
  std::size_t streamed = 0;
  for (unsigned i = 0; i < 3; ++i) {
    BatchOptions options;
    options.threads = 2;
    options.shardIndex = i;
    options.shardCount = 3;
    options.onCellDone = [&streamed](const Cell& c) {
      EXPECT_TRUE(c.ran());
      ++streamed;
    };
    shards.push_back(BatchRunner(options).run(spec));
  }

  std::size_t ranTotal = 0;
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    std::size_t owners = 0;
    for (const SweepResult& shard : shards) {
      ASSERT_EQ(shard.cells[i].key, full.cells[i].key);
      if (!shard.cells[i].ran()) continue;
      ++owners;
      ++ranTotal;
      ASSERT_EQ(shard.cells[i].replicates.size(), full.cells[i].replicates.size());
      for (std::size_t r = 0; r < full.cells[i].replicates.size(); ++r) {
        expectSameRun(shard.cells[i].replicates[r].run,
                      full.cells[i].replicates[r].run,
                      full.cells[i].key.describe());
      }
      EXPECT_EQ(shard.cells[i].time.mean, full.cells[i].time.mean);
    }
    EXPECT_EQ(owners, 1u) << "cell " << i << " owned by " << owners << " shards";
  }
  EXPECT_EQ(ranTotal, full.cells.size());
  EXPECT_EQ(streamed, full.cells.size());
}

TEST(BatchRunner, RejectsBadShard) {
  BatchOptions options;
  options.shardIndex = 2;
  options.shardCount = 2;
  EXPECT_THROW((void)BatchRunner(options).run(smallSpec()), std::invalid_argument);
}

// The file: loader path end to end: a generator graph written as a
// Graphalytics pair and run through a file: spec.  The pair stores no
// ports, so every run uses the loader's deterministic labeling.  The batch
// runner shares one loaded instance across seeds, and its seed-7 replicate
// must equal a standalone runCell of the same cell.
TEST(BatchRunner, FileSpecBatchReplicateMatchesRunCell) {
  const std::uint64_t seed = 7;
  const std::uint32_t k = 16;
  const Graph g = makeGraph("er", 2 * k, seed);
  const std::string base = processTempPath("exp_file_parity");
  writeGraphalytics(base, g);

  CaseSpec viaFile;
  viaFile.graph = "file:" + base + ".e";
  viaFile.k = k;
  viaFile.algorithm = "general_sync";
  viaFile.placement = "clusters:l=4";
  viaFile.seed = seed;
  const RunRecord a = runCell(viaFile);
  EXPECT_EQ(a.n, g.nodeCount());
  EXPECT_EQ(a.edges, g.edgeCount());
  EXPECT_EQ(a.maxDegree, g.maxDegree());
  EXPECT_TRUE(a.run.dispersed);

  SweepSpec spec;
  spec.name = "file";
  spec.graphs = {viaFile.graph};
  spec.ks = {k};
  spec.algorithms = {"general_sync"};
  spec.placements = {"clusters:l=4"};
  spec.seeds = {seed, seed + 1};
  const SweepResult res = runnerWith(2).run(spec);
  const Cell& cell = res.cells.front();
  ASSERT_EQ(cell.replicates.size(), 2u);
  EXPECT_TRUE(cell.replicates[0].error.empty()) << cell.replicates[0].error;
  expectSameRun(cell.replicates[0].run, a.run, "batch file: seed 7");
  std::filesystem::remove(base + ".v");
  std::filesystem::remove(base + ".e");
}

TEST(BenchContext, SeedsOrFallsBackToHistoricalSeed) {
  std::ostringstream os;
  BenchContext ctx{os, nullptr, {}, {}};
  EXPECT_EQ(ctx.seedsOr(17), (std::vector<std::uint64_t>{17}));
  ctx.seedOverride = {1, 2, 3};
  EXPECT_EQ(ctx.seedsOr(17), (std::vector<std::uint64_t>{1, 2, 3}));
}

/// Exit code and captured stdout/stderr of one runBenches call.
struct BenchRun {
  int code;
  std::string out;
  std::string err;
};

BenchRun runBenchesWith(const std::vector<std::string>& sweeps,
                        const std::vector<std::string>& flags) {
  std::vector<const char*> argv{"disp_bench"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  const Cli cli(static_cast<int>(argv.size()), argv.data());
  std::ostringstream out, err;
  struct Redirect {
    std::ostream& stream;
    std::streambuf* saved;
    ~Redirect() { stream.rdbuf(saved); }
  } redirectOut{std::cout, std::cout.rdbuf(out.rdbuf())},
      redirectErr{std::cerr, std::cerr.rdbuf(err.rdbuf())};
  const int code = runBenches(sweeps, cli);
  return {code, out.str(), err.str()};
}

// A typo (--seed for --seeds) or a retired flag (--run-threads) must fail
// with a usage error before any sweep prints a line, not run with the
// flag silently ignored.
TEST(RunBenches, RejectsUnknownFlagsBeforeAnySweepRuns) {
  for (const std::string flag : {"run-threads=4", "seed=3"}) {
    const BenchRun r = runBenchesWith({"trace_smoke"}, {"--" + flag});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_EQ(r.out, "") << flag;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(r.err.find("error: unknown flag --" + name + "\n"), std::string::npos)
        << r.err;
  }
}

// A shard's streamed cell rows are its mergeable output, so --stream-cells
// with nowhere to stream must refuse to start rather than run the sweep
// and leave nothing to merge.
TEST(RunBenches, StreamCellsWithoutJsonlIsAUsageError) {
  const BenchRun r = runBenchesWith(
      {"scenario"}, {"--graphs=path", "--placements=rooted", "--ks=4", "--seeds=1",
                     "--shard=0/2", "--stream-cells"});
  EXPECT_EQ(r.code, 2);
  EXPECT_EQ(r.out, "");
  EXPECT_NE(r.err.find("--stream-cells wants --jsonl=PATH"), std::string::npos) << r.err;
}

/// Runs the rest of a test inside a fresh directory of its own, so a test
/// can see every file a run leaves in the working directory.
struct InFreshDirectory {
  std::filesystem::path dir;
  std::filesystem::path saved = std::filesystem::current_path();
  explicit InFreshDirectory(const std::string& stem) : dir(processTempPath(stem)) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::filesystem::current_path(dir);
  }
  InFreshDirectory(const InFreshDirectory&) = delete;
  InFreshDirectory& operator=(const InFreshDirectory&) = delete;
  ~InFreshDirectory() {
    std::error_code ec;
    std::filesystem::current_path(saved, ec);
    std::filesystem::remove_all(dir, ec);
  }
};

// A bare flag reads as "1", so a path flag given without =PATH would write
// its stream to a file named `1`.  It must be a usage error that writes
// nothing; an explicit `=1` still names the path `1`.
TEST(RunBenches, PathFlagsWithoutAValueAreUsageErrors) {
  const InFreshDirectory here("run_benches_bare_paths");
  for (const std::string flag : {"jsonl", "trace", "trajectory"}) {
    const BenchRun r = runBenchesWith({"trace_smoke"}, {"--threads=1", "--" + flag});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_EQ(r.out, "") << flag;
    EXPECT_NE(r.err.find("error: --" + flag + " wants a path: --" + flag + "=PATH\n"),
              std::string::npos)
        << r.err;
    EXPECT_TRUE(std::filesystem::is_empty(here.dir)) << flag;
  }
  const BenchRun r = runBenchesWith({"trace_smoke"}, {"--threads=1", "--trace=1"});
  EXPECT_EQ(r.code, 0) << r.err;
  ASSERT_TRUE(std::filesystem::exists(here.dir / "1"));
  EXPECT_GT(std::filesystem::file_size(here.dir / "1"), 0u);
}

TEST(RunBenches, AcceptsEveryDocumentedFlag) {
  // --trace and --trajectory are mutually exclusive, so one run each.
  const std::string jsonl = processTempPath("run_benches_flags", ".jsonl");
  const std::string trace = processTempPath("run_benches_flags", ".trace.jsonl");
  const std::string traj = processTempPath("run_benches_flags", ".csv");
  const std::vector<std::string> common{
      "--threads=1", "--seeds=1", "--sample=2", "--graphs=path", "--placements=rooted",
      "--ks=4", "--faults=none", "--shard=0/1", "--jsonl=" + jsonl, "--stream-cells"};
  for (const std::string& sink : {"--trace=" + trace, "--trajectory=" + traj}) {
    std::vector<std::string> flags = common;
    flags.push_back(sink);
    const BenchRun ran = runBenchesWith({"scenario"}, flags);
    EXPECT_EQ(ran.code, 0) << sink << ": " << ran.err;
    EXPECT_NE(ran.out.find("# E17"), std::string::npos) << sink;
  }
  for (const std::string& path : {jsonl, trace, traj}) std::filesystem::remove(path);
}

// ------------------------------------------------------------ trace check

/// Runs `sweep` in-process on one thread with `flags`, streaming its trace
/// to a file of this process; returns the file's path.
std::string writeTrace(const std::string& stem, const std::string& sweep,
                       std::vector<std::string> flags) {
  const std::string path = processTempPath(stem, ".jsonl");
  flags.push_back("--threads=1");
  flags.push_back("--trace=" + path);
  const BenchRun r = runBenchesWith({sweep}, flags);
  EXPECT_EQ(r.code, 0) << r.err;
  return path;
}

std::vector<std::string> readLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void writeLines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out) << path;
  for (const std::string& line : lines) out << line << '\n';
}

/// The string value of `key` in the JSONL row `line`.
std::string fieldOf(const std::string& line, const std::string& key) {
  const JsonValue row = JsonValue::parse(line);
  for (const auto& [k, value] : row.members()) {
    if (k == key) return value.asString();
  }
  ADD_FAILURE() << "no " << key << " in " << line;
  return "";
}

/// `line` with the string value of `key` replaced by the JSON text `json`.
std::string withField(std::string line, const std::string& key, const std::string& json) {
  const std::string tag = jsonQuote(key) + ": ";
  const std::size_t start = line.find(tag) + tag.size();
  const std::size_t end = line.find('"', start + 1) + 1;
  return line.replace(start, end - start, json);
}

/// Index of the first line whose "event" is `event`.
std::size_t firstEvent(const std::vector<std::string>& lines, const std::string& event) {
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (fieldOf(lines[i], "event") == event) return i;
  }
  ADD_FAILURE() << "no " << event << " line";
  return 0;
}

TEST(TraceCheck, EveryKindRoundTripsThroughItsName) {
  std::set<std::string> names;
  std::uint8_t i = 0;
  for (;; ++i) {
    const auto kind = static_cast<TraceEventKind>(i);
    const std::string name = traceEventKindName(kind);
    if (name == "?") break;
    EXPECT_EQ(traceEventKindFromName(name), kind) << name;
    names.insert(name);
  }
  EXPECT_EQ(i, static_cast<std::uint8_t>(TraceEventKind::FaultSilent) + 1);
  EXPECT_EQ(names.size(), std::size_t{i});
  for (const char* other : {"sample", "?", "", "Move", "move "}) {
    EXPECT_FALSE(traceEventKindFromName(other).has_value()) << other;
  }
}

TEST(TraceCheck, AcceptsTheTraceSmokeStreams) {
  for (const char* sample : {"--sample=1", "--sample=4"}) {
    const std::string path = writeTrace("trace_check_smoke", "trace_smoke", {sample});
    TraceCheck res = checkTraceJsonl(path);
    EXPECT_TRUE(res.ok) << sample << ": " << res.message;
    EXPECT_EQ(res.streams, 6u) << sample;
    EXPECT_EQ(res.message.rfind("OK " + path + ": 6 streams, collapse=", 0), 0u)
        << res.message;
    std::uint64_t lines = 0;
    for (const auto& [event, n] : res.counts) lines += n;
    EXPECT_EQ(lines, readLines(path).size()) << sample;
    // Both engines and the general protocols: every fault-free kind shows.
    for (const TraceEventKind kind :
         {TraceEventKind::Move, TraceEventKind::Settle, TraceEventKind::Meeting,
          TraceEventKind::Subsume, TraceEventKind::Collapse, TraceEventKind::Freeze,
          TraceEventKind::OscillationDuty}) {
      EXPECT_GT(res.counts[traceEventKindName(kind)], 0u) << traceEventKindName(kind);
    }
    std::filesystem::remove(path);
  }
}

TEST(TraceCheck, AcceptsTheFaultTraceWithEveryFaultKind) {
  const std::string path = writeTrace(
      "trace_check_faults", "faults",
      {"--ks=8", "--faults=crash:rate=1,restart=16;churn:edges=2,every=16;silent:count=2",
       "--sample=64"});
  TraceCheck res = checkTraceJsonl(path);
  EXPECT_TRUE(res.ok) << res.message;
  EXPECT_EQ(res.streams, 18u);
  for (const TraceEventKind kind : {TraceEventKind::FaultCrash, TraceEventKind::FaultRestart,
                                    TraceEventKind::FaultEdge, TraceEventKind::FaultSilent}) {
    EXPECT_GT(res.counts[traceEventKindName(kind)], 0u) << traceEventKindName(kind);
  }
  std::filesystem::remove(path);
}

// One corrupted copy of a valid stream per rule.  Each must be rejected
// with the line at fault ("path:N: ..."), or the bare path for the rules
// about the whole file.
TEST(TraceCheck, RejectsOneCorruptedCopyPerRule) {
  const std::string good = writeTrace("trace_check_good", "trace_smoke", {"--sample=4"});
  const std::vector<std::string> lines = readLines(good);
  std::filesystem::remove(good);
  EXPECT_EQ(checkTraceJsonl(good).message, good + ": cannot open");
  ASSERT_GT(lines.size(), 100u);
  const std::size_t move = firstEvent(lines, "move");
  const std::size_t sample = firstEvent(lines, "sample");
  const std::size_t settle = firstEvent(lines, "settle");

  // A line whose stream's previous line has t > 0, and the last line of
  // the first stream (a sample: every run here completes).
  std::size_t later = 0;
  std::string earlierT;
  std::map<std::string, std::size_t> last;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string stream = fieldOf(lines[i], "cell") + "/" + fieldOf(lines[i], "seed");
    const auto it = last.find(stream);
    if (later == 0 && it != last.end() && fieldOf(lines[it->second], "t") != "0") {
      later = i;
      earlierT = fieldOf(lines[it->second], "t");
    }
    last[stream] = i;
  }
  ASSERT_NE(later, 0u);
  const std::size_t closing =
      last[fieldOf(lines[0], "cell") + "/" + fieldOf(lines[0], "seed")];
  ASSERT_EQ(fieldOf(lines[closing], "event"), "sample");

  struct Case {
    const char* rule;
    std::vector<std::string> lines;
    std::size_t line;  ///< 1-based line at fault; 0 for a whole-file rule
    const char* why;
  };
  const auto edit = [&lines](std::size_t i, std::string text) {
    std::vector<std::string> out = lines;
    out[i] = std::move(text);
    return out;
  };
  const auto without = [&lines](std::initializer_list<const char*> events) {
    std::vector<std::string> out;
    for (const std::string& line : lines) {
      const std::string event = fieldOf(line, "event");
      if (std::find(events.begin(), events.end(), event) == events.end()) {
        out.push_back(line);
      }
    }
    return out;
  };
  std::string extra = lines[sample];
  extra.insert(extra.size() - 1, ", \"extra\": \"1\"");
  const std::string settled = fieldOf(lines[closing], "settled");
  const std::vector<Case> cases{
      {"torn line", edit(move, lines[move].substr(0, lines[move].size() / 2)), move + 1,
       "not JSON"},
      {"not an object", edit(move, "[\"move\"]"), move + 1, "not a JSON object"},
      {"unknown kind", edit(move, withField(lines[move], "event", "\"teleport\"")),
       move + 1, "unknown event kind 'teleport'"},
      {"missing key",
       edit(move, lines[move].substr(0, lines[move].rfind(", \"b\": ")) + "}"), move + 1,
       "move line has keys"},
      {"extra key", edit(sample, extra), sample + 1, "sample line has keys"},
      {"non-string value", edit(move, withField(lines[move], "t", "5")), move + 1,
       "field 't' is not a string"},
      {"bad count", edit(move, withField(lines[move], "node", "\"x7\"")), move + 1,
       "field 'node' = 'x7' is neither a count nor '-'"},
      {"signed count", edit(move, withField(lines[move], "a", "\"-3\"")), move + 1,
       "field 'a' = '-3' is neither a count nor '-'"},
      {"event time '-'", edit(move, withField(lines[move], "t", "\"-\"")), move + 1,
       "t must be numeric"},
      {"sample count '-'", edit(sample, withField(lines[sample], "settled", "\"-\"")),
       sample + 1, "settled must be numeric"},
      {"time backwards",
       edit(later, withField(lines[later], "t",
                             "\"" + std::to_string(std::stoull(earlierT) - 1) + "\"")),
       later + 1, "time went backwards"},
      {"negative balance", edit(settle, withField(lines[settle], "event", "\"collapse\"")),
       settle + 1, "collapse before a matching settle"},
      {"final settled",
       edit(closing, withField(lines[closing], "settled",
                               "\"" + std::to_string(std::stoull(settled) + 1) + "\"")),
       closing + 1, "final sampled settled count"},
      {"empty", {}, 0, "empty trace"},
      {"no move", without({"move"}), 0, "no move event"},
      {"no settle", without({"settle", "collapse"}), 0, "no settle event"},
  };
  const std::string path = processTempPath("trace_check_bad", ".jsonl");
  for (const Case& c : cases) {
    writeLines(path, c.lines);
    const TraceCheck res = checkTraceJsonl(path);
    EXPECT_FALSE(res.ok) << c.rule;
    const std::string where =
        c.line == 0 ? path + ": " : path + ":" + std::to_string(c.line) + ": ";
    EXPECT_EQ(res.message.rfind(where, 0), 0u) << c.rule << ": " << res.message;
    EXPECT_NE(res.message.find(c.why), std::string::npos) << c.rule << ": " << res.message;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace disp::exp
