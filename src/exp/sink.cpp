#include "exp/sink.hpp"

#include <ostream>

#include "exp/json.hpp"

namespace disp::exp {

void JsonlWriter::record(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string line = "{";
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) line += ", ";
    first = false;
    line += jsonQuote(key);
    line += ": ";
    line += jsonQuote(value);
  }
  line += "}";
  // Flush per row: a killed large-k sweep keeps every row written so far
  // (the rows are also the unit scripts/record_bench_baseline.sh parses).
  os_ << line << '\n' << std::flush;
}

void emitTable(BenchContext& ctx, const std::string& sweep, const std::string& title,
               const Table& t) {
  t.print(ctx.out, title);
  if (!ctx.jsonl) return;
  const std::vector<std::string>& header = t.header();
  for (const std::vector<std::string>& row : t.data()) {
    std::vector<std::pair<std::string, std::string>> fields;
    fields.reserve(header.size() + 2);
    fields.emplace_back("sweep", sweep);
    fields.emplace_back("table", title);
    for (std::size_t i = 0; i < header.size() && i < row.size(); ++i) {
      fields.emplace_back(header[i], row[i]);
    }
    ctx.jsonl->record(fields);
  }
}

void emitNote(BenchContext& ctx, const std::string& sweep, const std::string& field,
              const std::string& line) {
  ctx.out << line << "\n";
  if (ctx.jsonl) ctx.jsonl->record({{"sweep", sweep}, {field, line}});
}

void emitFit(BenchContext& ctx, const std::string& sweep, const std::string& line) {
  if (ctx.batch.shardCount > 1) return;
  emitNote(ctx, sweep, "fit", line);
}

void timeCell(Table& t, const Cell& c) {
  if (c.replicates.size() == 1) {
    t.cell(c.first().run.time);
  } else {
    t.cell(c.meanTime(), 1);
  }
}

void timeHeader(std::vector<std::string>& header, const std::string& name, bool ci) {
  header.push_back(name);
  if (ci) header.push_back(name + " ±95");
}

void timeCellCi(Table& t, const Cell& c, bool ci) {
  timeCell(t, c);
  if (ci) t.cell(ci95(c.time), 1);
}

void TraceJsonl::observe(const CellKey& key, std::uint64_t seed, RunOptions& opts) {
  opts.sampleEvery = sampleEvery_;
  const std::string cell = key.describe();
  const std::string seedStr = std::to_string(seed);
  opts.onEvent = [this, cell, seedStr](const TraceEvent& e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    writer_.record(
        {{"cell", cell},
         {"seed", seedStr},
         {"event", traceEventKindName(e.kind)},
         {"t", std::to_string(e.time)},
         {"agent", e.agent == kNoAgent ? "-" : std::to_string(e.agent)},
         {"node", e.node == kInvalidNode ? "-" : std::to_string(e.node)},
         {"a", e.a == kNoTraceLabel ? "-" : std::to_string(e.a)},
         {"b", e.b == kNoTraceLabel ? "-" : std::to_string(e.b)}});
  };
  const auto snapshot = [this, cell, seedStr](const StepSnapshot& s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    writer_.record({{"cell", cell},
                    {"seed", seedStr},
                    {"event", "sample"},
                    {"t", std::to_string(s.time)},
                    {"epochs", std::to_string(s.epochs)},
                    {"settled", std::to_string(s.settled)},
                    {"moves", std::to_string(s.totalMoves)}});
  };
  opts.onRound = snapshot;
  opts.onActivation = snapshot;
}

TrajectoryCsv::TrajectoryCsv(std::ostream& os, std::uint64_t sampleEvery)
    : os_(os), sampleEvery_(sampleEvery) {
  os_ << "cell,seed,t,epochs,settled,moves\n";
}

void TrajectoryCsv::observe(const CellKey& key, std::uint64_t seed,
                            RunOptions& opts) {
  opts.sampleEvery = sampleEvery_;
  // CSV-quote the cell key (it contains no quotes, but does contain
  // spaces/equals signs that some readers split on).
  const std::string cell = "\"" + key.describe() + "\"";
  const std::string seedStr = std::to_string(seed);
  const auto snapshot = [this, cell, seedStr](const StepSnapshot& s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Flush per row, like the JSONL sinks: a killed sweep keeps every
    // sampled point written so far.
    os_ << cell << ',' << seedStr << ',' << s.time << ',' << s.epochs << ','
        << s.settled << ',' << s.totalMoves << '\n'
        << std::flush;
  };
  opts.onRound = snapshot;
  opts.onActivation = snapshot;
}

}  // namespace disp::exp
