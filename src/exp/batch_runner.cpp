#include "exp/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "core/scheduler.hpp"
#include "graph/spec.hpp"
#include "util/mem.hpp"

namespace disp::exp {

void parallelFor(unsigned threads, std::size_t jobs,
                 const std::function<void(std::size_t)>& fn) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, jobs));

  std::atomic<std::size_t> next{0};
  std::exception_ptr firstError;
  std::mutex errorMutex;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(errorMutex);
        if (!firstError) firstError = std::current_exception();
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (firstError) std::rethrow_exception(firstError);
}

SweepResult BatchRunner::run(const SweepSpec& spec) const {
  DISP_REQUIRE(options_.shardCount >= 1 && options_.shardIndex < options_.shardCount,
               "shard must be I/N with I < N");
  SweepResult result;
  result.spec = spec;

  const std::vector<CellKey> keys = enumerateCells(spec);

  // A typo'd scheduler name would otherwise degrade every async cell into
  // an errored replicate; validate the axis up front so it fails loudly.
  // (Validated at the spec's largest k: a weighted slow set bigger than a
  // *smaller* k is a per-cell condition, handled like any placement
  // mismatch below.)
  const std::vector<std::uint32_t> runKs = spec.scaledKs();
  const std::uint32_t maxK = *std::max_element(runKs.begin(), runKs.end());
  for (const std::string& sched : spec.schedulers) {
    (void)makeSchedulerByName(sched, maxK, 1);
  }

  // Graph axis entries were validated by enumerateCells; parse each
  // distinct canonical string once.
  std::map<std::string, GraphSpec> parsed;
  for (const CellKey& key : keys) {
    parsed.try_emplace(key.graph, GraphSpec::parse(key.graph));
  }
  const auto contextN = [&spec](std::uint32_t k) {
    return static_cast<std::uint32_t>(double(k) * spec.nOverK);
  };

  // Shard partition over the canonical enumeration: skipped cells keep
  // their key but never allocate replicate slots.
  const std::size_t reps = spec.seeds.size();
  result.cells.resize(keys.size());
  std::vector<std::size_t> owned;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    result.cells[i].key = keys[i];
    if (i % options_.shardCount == options_.shardIndex) {
      result.cells[i].replicates.resize(reps);
      owned.push_back(i);
    }
  }
  // Build each distinct graph instance once.  The cache key is
  // GraphSpec::instanceKey — the canonical spec string plus the context
  // size and seed it actually consumes — so cells that vary algorithm /
  // scheduler / placement (and, for size-pinned or file specs, even k or
  // seed) share one instance.
  std::map<std::string, Graph> graphs;
  {
    struct BuildPlan {
      const GraphSpec* spec;
      std::uint32_t n;
      std::uint64_t seed;
    };
    std::map<std::string, BuildPlan> plans;
    for (const std::size_t i : owned) {
      const CellKey& key = keys[i];
      const GraphSpec& gs = parsed.at(key.graph);
      const std::uint32_t n = contextN(key.k);
      for (const std::uint64_t seed : spec.seeds) {
        plans.try_emplace(gs.instanceKey(n, seed), BuildPlan{&gs, n, seed});
      }
    }
    std::vector<std::pair<const BuildPlan*, Graph*>> toBuild;
    toBuild.reserve(plans.size());
    for (auto& [ik, plan] : plans) {
      toBuild.emplace_back(&plan, &graphs.try_emplace(ik).first->second);
    }
    parallelFor(options_.threads, toBuild.size(), [&](std::size_t i) {
      const BuildPlan& plan = *toBuild[i].first;
      *toBuild[i].second = plan.spec->instantiate(plan.n, plan.seed,
                                                  PortLabeling::RandomPermutation);
    });
  }

  // One work item per owned (cell, replicate); each writes only its own
  // slot.  Per-cell countdowns detect the last replicate so finished cells
  // can be summarized and streamed immediately (onCellDone).
  std::vector<std::atomic<std::size_t>> remaining(keys.size());
  for (auto& r : remaining) r.store(reps, std::memory_order_relaxed);
  std::mutex cellDoneMutex;
  parallelFor(options_.threads, owned.size() * reps, [&](std::size_t job) {
    const std::size_t cellIx = owned[job / reps];
    const std::size_t repIx = job % reps;
    const CellKey& key = keys[cellIx];
    // Serial sweeps attribute the RSS watermark per cell: jobs run in
    // order, so repIx == 0 is the moment just before this cell's work.
    const bool sampleRss = options_.resetPeakRss && options_.threads == 1;
    if (sampleRss && repIx == 0) (void)disp::resetPeakRss();
    CaseSpec c;
    c.graph = key.graph;
    c.k = key.k;
    c.algorithm = key.algorithm;
    c.placement = key.placement;
    c.scheduler = key.scheduler;
    c.seed = spec.seeds[repIx];
    c.nOverK = spec.nOverK;
    c.limit = spec.limit;
    c.faults = key.faults;
    if (options_.observe) {
      c.observe = [this, &key, seed = c.seed](RunOptions& opts) {
        options_.observe(key, seed, opts);
      };
    }
    const Graph& g =
        graphs.at(parsed.at(key.graph).instanceKey(contextN(key.k), c.seed));
    RunRecord& slot = result.cells[cellIx].replicates[repIx];
    try {
      slot = runCell(g, c);
    } catch (const std::exception& e) {
      // A diverging replicate (round/activation limit hit) or a cell whose
      // algorithm rejects its placement (e.g. KS inside a general-placement
      // cross-product) degrades to an undispersed record instead of
      // aborting the rest of the sweep.
      slot = RunRecord{};
      slot.n = g.nodeCount();
      slot.maxDegree = g.maxDegree();
      slot.edges = g.edgeCount();
      slot.error = e.what();
    }
    if (remaining[cellIx].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last replicate of this cell: summarize (only this worker touches
      // the cell now) and stream it.
      Cell& cell = result.cells[cellIx];
      std::vector<double> times;
      times.reserve(cell.replicates.size());
      for (const RunRecord& r : cell.replicates) {
        if (r.error.empty()) times.push_back(double(r.run.time));
      }
      cell.time = summarize(times);
      if (sampleRss) cell.peakRssMb = disp::peakRssMb();
      if (options_.onCellDone) {
        const std::lock_guard<std::mutex> lock(cellDoneMutex);
        options_.onCellDone(cell);
      }
    }
  });
  return result;
}

}  // namespace disp::exp
