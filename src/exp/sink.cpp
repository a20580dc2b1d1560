#include "exp/sink.hpp"

#include <array>
#include <charconv>
#include <fstream>
#include <optional>
#include <ostream>
#include <set>
#include <span>
#include <string_view>

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

namespace {

// The trace stream's two row shapes, in the order TraceJsonl writes them.
// Both open with the stream key (cell, seed), the event and the time, and
// every column from the time on is a count.
constexpr std::array<const char*, 8> kEventColumns{"cell", "seed", "event", "t",
                                                   "agent", "node", "a", "b"};
constexpr std::array<const char*, 7> kSampleColumns{"cell", "seed", "event", "t",
                                                    "epochs", "settled", "moves"};
constexpr const char* kSampleEvent = "sample";
constexpr std::size_t kTimeColumn = 3;
constexpr std::size_t kSettledColumn = 5;  // of a sample
static_assert(std::string_view(kEventColumns[kTimeColumn]) == "t" &&
              std::string_view(kSampleColumns[kTimeColumn]) == "t" &&
              std::string_view(kSampleColumns[kSettledColumn]) == "settled");

template <std::size_t N>
std::vector<std::pair<std::string, std::string>> traceRow(
    const std::array<const char*, N>& columns, std::array<std::string, N> values) {
  std::vector<std::pair<std::string, std::string>> row;
  row.reserve(N);
  for (std::size_t i = 0; i < N; ++i) row.emplace_back(columns[i], std::move(values[i]));
  return row;
}

template <typename T>
std::string countOrDash(T value, T none) {
  return value == none ? "-" : std::to_string(value);
}

std::string keyList(const std::set<std::string>& keys) {
  std::string out;
  for (const std::string& k : keys) out += (out.empty() ? "" : ", ") + k;
  return "[" + out + "]";
}

}  // namespace

void TraceJsonl::observe(const CellKey& key, std::uint64_t seed, RunOptions& opts) {
  opts.sampleEvery = sampleEvery_;
  const std::string cell = key.describe();
  const std::string seedStr = std::to_string(seed);
  opts.onEvent = [this, cell, seedStr](const TraceEvent& e) {
    const auto row = traceRow(
        kEventColumns,
        {cell, seedStr, traceEventKindName(e.kind), std::to_string(e.time),
         countOrDash(e.agent, kNoAgent), countOrDash(e.node, kInvalidNode),
         countOrDash(e.a, kNoTraceLabel), countOrDash(e.b, kNoTraceLabel)});
    const std::lock_guard<std::mutex> lock(mutex_);
    writer_.record(row);
  };
  const auto snapshot = [this, cell, seedStr](const StepSnapshot& s) {
    const auto row = traceRow(
        kSampleColumns,
        {cell, seedStr, kSampleEvent, std::to_string(s.time), std::to_string(s.epochs),
         std::to_string(s.settled), std::to_string(s.totalMoves)});
    const std::lock_guard<std::mutex> lock(mutex_);
    writer_.record(row);
  };
  opts.onRound = snapshot;
  opts.onActivation = snapshot;
}

TraceCheck checkTraceJsonl(const std::string& path) {
  TraceCheck res;
  std::ifstream in(path);
  if (!in) {
    res.message = path + ": cannot open";
    return res;
  }
  const std::set<std::string> eventKeys(kEventColumns.begin(), kEventColumns.end());
  const std::set<std::string> sampleKeys(kSampleColumns.begin(), kSampleColumns.end());
  struct Stream {
    std::uint64_t t = 0;
    std::int64_t balance = 0;   ///< settles - collapses so far
    bool closed = false;        ///< the last line so far is a sample
    std::uint64_t settled = 0;  ///< of the last sample
    std::size_t line = 0;       ///< of the last line so far
  };
  std::map<std::pair<std::string, std::string>, Stream> streams;
  std::size_t lineNo = 0;
  const auto fail = [&](const std::string& why) {
    res.message = path + ":" + std::to_string(lineNo) + ": " + why;
    return res;
  };
  std::string line;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    JsonValue row;
    try {
      row = JsonValue::parse(line);
    } catch (const std::exception& e) {
      return fail(std::string("not JSON (") + e.what() + ")");
    }
    if (!row.isObject()) return fail("not a JSON object");
    std::map<std::string, std::string> fields;
    std::set<std::string> keys;
    for (const auto& [key, value] : row.members()) {
      if (!value.isString()) return fail("field '" + key + "' is not a string");
      fields.emplace(key, value.asString());
      keys.insert(key);
    }

    const std::string event = fields.count("event") != 0 ? fields["event"] : "(none)";
    const bool sample = event == kSampleEvent;
    const std::optional<TraceEventKind> kind = traceEventKindFromName(event);
    if (!sample && !kind) return fail("unknown event kind '" + event + "'");
    const std::set<std::string>& want = sample ? sampleKeys : eventKeys;
    if (keys != want) {
      return fail(event + " line has keys " + keyList(keys) + ", expected " +
                  keyList(want));
    }

    const std::span<const char* const> columns =
        sample ? std::span<const char* const>(kSampleColumns)
               : std::span<const char* const>(kEventColumns);
    std::array<std::uint64_t, kEventColumns.size()> counts{};
    for (std::size_t i = kTimeColumn; i < columns.size(); ++i) {
      const std::string column = columns[i];
      const std::string& value = fields[column];
      if (value == "-") {
        if (sample || i == kTimeColumn) return fail(column + " must be numeric");
        continue;
      }
      const char* end = value.data() + value.size();
      const auto [stop, ec] = std::from_chars(value.data(), end, counts[i]);
      if (ec != std::errc{} || stop != end) {
        return fail("field '" + column + "' = '" + value + "' is neither a count nor '-'");
      }
    }

    const std::string stream = "(" + fields["cell"] + ", " + fields["seed"] + ")";
    Stream& s = streams[{fields["cell"], fields["seed"]}];
    const std::uint64_t t = counts[kTimeColumn];
    if (t < s.t) {
      return fail("time went backwards within " + stream + ": " + std::to_string(s.t) +
                  " -> " + std::to_string(t));
    }
    s.t = t;
    s.line = lineNo;
    s.closed = sample;
    ++res.counts[event];
    if (sample) {
      s.settled = counts[kSettledColumn];
    } else if (kind == TraceEventKind::Settle) {
      ++s.balance;
    } else if (kind == TraceEventKind::Collapse && --s.balance < 0) {
      return fail("collapse before a matching settle in " + stream);
    }
  }

  if (streams.empty()) {
    res.message = path + ": empty trace";
    return res;
  }
  for (const TraceEventKind needed : {TraceEventKind::Move, TraceEventKind::Settle}) {
    if (res.counts.count(traceEventKindName(needed)) == 0) {
      res.message = path + ": no " + traceEventKindName(needed) +
                    " event — not a dispersion trace";
      return res;
    }
  }
  for (const auto& [key, s] : streams) {
    if (s.closed && static_cast<std::int64_t>(s.settled) != s.balance) {
      lineNo = s.line;
      return fail("final sampled settled count " + std::to_string(s.settled) +
                  " != settle - collapse balance " + std::to_string(s.balance) +
                  " in (" + key.first + ", " + key.second + ")");
    }
  }

  res.ok = true;
  res.streams = streams.size();
  res.message = "OK " + path + ": " + std::to_string(res.streams) + " streams";
  for (const auto& [event, n] : res.counts) {
    res.message += ", " + event + "=" + std::to_string(n);
  }
  return res;
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
