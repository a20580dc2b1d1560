// Tests for the src/fleet/ sweep fabric: the JSON value model, manifest
// round-trip + corruption rejection, the collector's dedup/divergence
// audit, transport spec parsing, --shard parse hardening, and — when the
// bench binaries are built (DISP_BENCH_BIN / DISP_FLEET_BIN) — subprocess
// end-to-end runs: a sharded fleet campaign must reproduce the unsharded
// reference byte-identically in fact columns, survive a mid-shard kill via
// restart-resume, and poison persistently failing shards.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "temp_path.hpp"
#include "exp/bench_registry.hpp"
#include "fleet/collector.hpp"
#include "fleet/json.hpp"
#include "fleet/manifest.hpp"
#include "fleet/supervisor.hpp"
#include "fleet/transport.hpp"

namespace disp::fleet {
namespace {

namespace fs = std::filesystem;

/// Root of every scratch directory below, private to this process: ctest
/// runs each test as its own process, and with a shared root one test
/// could rebuild the unsharded reference while another was reading it.
/// Removed when the process exits.
const std::string& processRoot() {
  struct Root {
    std::string path = processTempPath("fleet") + "/";
    ~Root() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  };
  static const Root root;
  return root.path;
}

std::string testDir(const std::string& name) {
  const std::string dir = processRoot() + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out << content;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------------ JSON

TEST(FleetJson, RoundTripsJsonlWriterRows) {
  const std::string line =
      R"({"sweep": "scenario", "table": "cell", "graph": "path:n=64", "k": "4", "moves": "17"})";
  const JsonValue v = JsonValue::parse(line);
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.dump(), line);  // insertion order + string values preserved
  ASSERT_NE(v.find("graph"), nullptr);
  EXPECT_EQ(v.find("graph")->asString(), "path:n=64");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(FleetJson, ParsesNestedValuesAndEscapes) {
  const JsonValue v = JsonValue::parse(
      R"({"a": [1, 2.5, true, null], "s": "q\"\\\nA"})");
  ASSERT_NE(v.find("a"), nullptr);
  const auto& items = v.find("a")->items();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].asU64(), 1u);
  EXPECT_DOUBLE_EQ(items[1].asNumber(), 2.5);
  EXPECT_TRUE(items[2].asBool());
  EXPECT_TRUE(items[3].isNull());
  EXPECT_EQ(v.find("s")->asString(), "q\"\\\nA");
}

TEST(FleetJson, RejectsMalformedInputWithOffset) {
  EXPECT_THROW((void)JsonValue::parse(R"({"a": )"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 1} trailing)"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(""), std::runtime_error);
  try {
    (void)JsonValue::parse(R"({"a": nope})");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    // The diagnostic must carry a byte offset for corrupted-manifest triage.
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos) << e.what();
  }
}

TEST(FleetJson, U64RejectsNonIntegers) {
  EXPECT_THROW((void)JsonValue::parse("1.5").asU64(), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("-3").asU64(), std::runtime_error);
  EXPECT_EQ(JsonValue::parse("4096").asU64(), 4096u);
}

// ----------------------------------------------------------- shard flag

TEST(ShardFlag, ParsesCanonicalForms) {
  EXPECT_EQ(exp::parseShardFlag("0/1"), (std::pair<unsigned, unsigned>{0, 1}));
  EXPECT_EQ(exp::parseShardFlag("3/4"), (std::pair<unsigned, unsigned>{3, 4}));
  EXPECT_EQ(exp::parseShardFlag("0/4096"),
            (std::pair<unsigned, unsigned>{0, 4096}));
}

TEST(ShardFlag, RejectsNonCanonicalForms) {
  for (const char* bad : {"", "/", "1", "1/", "/4", "01/4", "1/04", "1/4/2",
                          "a/b", " 1/4", "1/4 ", "-1/4", "+1/4", "4/4", "0/0",
                          "0/4097", "12345/12346"}) {
    EXPECT_THROW((void)exp::parseShardFlag(bad), std::invalid_argument) << bad;
  }
}

TEST(ShardFlag, AttemptNamesAreStable) {
  EXPECT_EQ(shardAttemptName(0, 4, 1, "jsonl"), "shard_0of4.attempt1.jsonl");
  EXPECT_EQ(shardAttemptName(13, 128, 3, "log"), "shard_13of128.attempt3.log");
}

// ------------------------------------------------------------- manifest

Manifest sampleManifest() {
  Manifest m;
  m.sweeps = {"scenario", "faults"};
  m.benchArgs = {"--ks=4,6", "--seeds=1,2"};
  m.fleetSpec = "local:2";
  m.shardCount = 2;
  m.totalCells = 8;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ShardEntry sh;
    sh.index = i;
    sh.cells = 4;
    m.shards.push_back(sh);
  }
  m.shards[0].state = ShardState::Done;
  m.shards[0].attempts = 2;
  m.shards[0].worker = "local:1";
  m.shards[0].outputs = {"shard_0of2.attempt1.jsonl", "shard_0of2.attempt2.jsonl"};
  m.shards[0].cellsDone = 4;
  return m;
}

TEST(FleetManifest, RoundTripsThroughJson) {
  const Manifest m = sampleManifest();
  const Manifest back = Manifest::fromJson(m.toJson());
  EXPECT_EQ(back.sweeps, m.sweeps);
  EXPECT_EQ(back.benchArgs, m.benchArgs);
  EXPECT_EQ(back.fleetSpec, m.fleetSpec);
  EXPECT_EQ(back.shardCount, m.shardCount);
  EXPECT_EQ(back.totalCells, m.totalCells);
  ASSERT_EQ(back.shards.size(), m.shards.size());
  EXPECT_EQ(back.shards[0].state, ShardState::Done);
  EXPECT_EQ(back.shards[0].attempts, 2u);
  EXPECT_EQ(back.shards[0].worker, "local:1");
  EXPECT_EQ(back.shards[0].outputs, m.shards[0].outputs);
  EXPECT_EQ(back.shards[0].cellsDone, 4u);
  EXPECT_EQ(back.shards[1].state, ShardState::Pending);
}

TEST(FleetManifest, SaveIsAtomicAndLoadable) {
  const std::string dir = testDir("manifest_save");
  const std::string path = dir + "/" + kManifestFile;
  sampleManifest().save(path);
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // tmp+rename leaves no residue
  const Manifest back = Manifest::load(path);
  EXPECT_EQ(back.totalCells, 8u);
}

TEST(FleetManifest, RejectsCorruption) {
  const std::string good = sampleManifest().toJson();
  // Truncation (a crash mid-write would be caught before the rename, but a
  // corrupted disk image must still fail loudly).
  EXPECT_THROW((void)Manifest::fromJson(good.substr(0, good.size() / 2)),
               std::runtime_error);
  // Future/unknown version.
  std::string wrongVersion = good;
  wrongVersion.replace(wrongVersion.find("\"version\": 1"),
                       std::string("\"version\": 1").size(), "\"version\": 2");
  EXPECT_THROW((void)Manifest::fromJson(wrongVersion), std::runtime_error);
  // shard_count disagreeing with the shards array.
  std::string wrongCount = good;
  wrongCount.replace(wrongCount.find("\"shard_count\": 2"),
                     std::string("\"shard_count\": 2").size(),
                     "\"shard_count\": 3");
  EXPECT_THROW((void)Manifest::fromJson(wrongCount), std::runtime_error);
  // More outputs than attempts (impossible history).
  Manifest extra = sampleManifest();
  extra.shards[1].outputs = {"shard_1of2.attempt1.jsonl"};
  extra.shards[1].attempts = 0;
  EXPECT_THROW((void)Manifest::fromJson(extra.toJson()), std::runtime_error);
}

TEST(FleetManifest, LoadNamesThePathOnFailure) {
  try {
    (void)Manifest::load("/nonexistent/fleet_manifest.json");
    FAIL() << "expected load failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fleet_manifest.json"),
              std::string::npos);
  }
}

// ------------------------------------------------------------ collector

const char* const kRowA =
    R"({"sweep": "s", "table": "cell", "graph": "path:n=8", "k": "4", "time": "11", "moves": "9"})";
const char* const kRowB =
    R"({"sweep": "s", "table": "cell", "graph": "path:n=8", "k": "6", "time": "15", "moves": "12"})";

TEST(Collector, DedupDropsIdenticalRowsAcrossAttempts) {
  const std::string dir = testDir("dedup");
  writeFile(dir + "/a1.jsonl", std::string(kRowA) + "\n");
  writeFile(dir + "/a2.jsonl", std::string(kRowA) + "\n" + kRowB + "\n");
  const MergeResult res = mergeJsonl({{dir + "/a1.jsonl", false},
                                      {dir + "/a2.jsonl", false}},
                                     DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.rowsIn, 3u);
  EXPECT_EQ(res.rowsOut, 2u);
  EXPECT_EQ(res.dupsDropped, 1u);
  EXPECT_EQ(slurp(dir + "/out.jsonl"),
            std::string(kRowA) + "\n" + kRowB + "\n");
}

TEST(Collector, ErrorPolicyReportsOverlappingShards) {
  const std::string dir = testDir("overlap");
  writeFile(dir + "/s0.jsonl", std::string(kRowA) + "\n");
  writeFile(dir + "/s0b.jsonl", std::string(kRowA) + "\n");
  const MergeResult res = mergeJsonl({{dir + "/s0.jsonl", false},
                                      {dir + "/s0b.jsonl", false}},
                                     DupPolicy::Error, dir + "/out.jsonl");
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.errors.size(), 1u);
  EXPECT_NE(res.errors[0].find("overlapping shards?"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir + "/out.jsonl"));  // no output on failure
}

TEST(Collector, TelemetryColumnsAreExemptFromTheAudit) {
  const std::string dir = testDir("telemetry");
  // Same cell, different wall-clock telemetry: a legitimate rerun.
  writeFile(dir + "/a.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "9", "ms": "12.5"})"
            "\n");
  writeFile(dir + "/b.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "9", "ms": "99.9"})"
            "\n");
  const MergeResult res = mergeJsonl({{dir + "/a.jsonl", false},
                                      {dir + "/b.jsonl", false}},
                                     DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.dupsDropped, 1u);
  EXPECT_TRUE(isTelemetryColumn("ms"));
  EXPECT_TRUE(isTelemetryColumn("peak_rss_mb"));
  EXPECT_FALSE(isTelemetryColumn("moves"));
  EXPECT_FALSE(isTelemetryColumn("time"));
}

TEST(Collector, FactDivergenceFailsLoudlyWithACellDiff) {
  const std::string dir = testDir("diverge");
  writeFile(dir + "/a.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "9"})"
            "\n");
  writeFile(dir + "/b.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "10"})"
            "\n");
  const MergeResult res = mergeJsonl({{dir + "/a.jsonl", false},
                                      {dir + "/b.jsonl", false}},
                                     DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.divergences.size(), 1u);
  EXPECT_EQ(res.divergences[0].column, "moves");
  EXPECT_EQ(res.divergences[0].valueA, "9");
  EXPECT_EQ(res.divergences[0].valueB, "10");
  EXPECT_NE(res.divergences[0].identity.find("graph=er"), std::string::npos);
  EXPECT_NE(res.divergences[0].whereA.find("a.jsonl:1"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir + "/out.jsonl"));
}

TEST(Collector, PartialTailToleranceIsOptInAndFinalLineOnly) {
  const std::string dir = testDir("tail");
  const std::string torn = std::string(kRowA) + "\n" + R"({"sweep": "s", "tab)";
  writeFile(dir + "/killed.jsonl", torn);
  // Without the flag a torn line is an error ...
  MergeResult strict = mergeJsonl({{dir + "/killed.jsonl", false}},
                                  DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_FALSE(strict.ok);
  // ... with it, only the *final* line is forgiven.
  MergeResult lax = mergeJsonl({{dir + "/killed.jsonl", true}},
                               DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_TRUE(lax.ok);
  EXPECT_EQ(lax.partialTails, 1u);
  EXPECT_EQ(lax.rowsOut, 1u);
  writeFile(dir + "/midtorn.jsonl",
            R"({"broken)" "\n" + std::string(kRowA) + "\n");
  MergeResult mid = mergeJsonl({{dir + "/midtorn.jsonl", true}},
                               DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_FALSE(mid.ok);  // a torn line followed by data is real corruption
}

TEST(Collector, DiagnosticRowsCompareByFullContent) {
  const std::string dir = testDir("notes");
  // Fit/note rows carry only sweep/table coordinates: two different notes
  // must both survive, identical notes dedup.
  const std::string noteA = R"({"sweep": "s", "table": "fit", "slope": "1.9"})";
  const std::string noteB = R"({"sweep": "s", "table": "fit", "slope": "2.1"})";
  writeFile(dir + "/a.jsonl", noteA + "\n" + noteB + "\n");
  writeFile(dir + "/b.jsonl", noteA + "\n");
  const MergeResult res = mergeJsonl({{dir + "/a.jsonl", false},
                                      {dir + "/b.jsonl", false}},
                                     DupPolicy::Dedup, dir + "/out.jsonl");
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.rowsOut, 2u);
  EXPECT_EQ(res.dupsDropped, 1u);
}

TEST(Collector, CountsDistinctCellRowsAcrossAttempts) {
  const std::string dir = testDir("count");
  writeFile(dir + "/a1.jsonl", std::string(kRowA) + "\n" + R"({"torn)");
  writeFile(dir + "/a2.jsonl", std::string(kRowA) + "\n" + kRowB + "\n" +
                                   R"({"sweep": "s", "table": "fit", "x": "1"})" "\n");
  // kRowA appears twice (distinct -> 1), the fit row is not a cell row, the
  // torn tail and a missing file count as zero.
  EXPECT_EQ(countDistinctCellRows({dir + "/a1.jsonl", dir + "/a2.jsonl",
                                   dir + "/absent.jsonl"}),
            2u);
}

// ------------------------------------------------------------ transport

TEST(Transport, ParsesLocalPools) {
  const auto t = makeTransport("local:4");
  EXPECT_EQ(t->slots(), 4u);
  EXPECT_EQ(t->describe(), "local:4");
  EXPECT_EQ(t->slotName(2), "local:2");
}

TEST(Transport, RejectsBadSpecs) {
  for (const char* bad :
       {"", "local", "local:", "local:0", "local:abc", "local:-2", "ssh:",
        "ssh:a,,b", "ssh:alpha,beta", "carrier-pigeon:coop"}) {
    EXPECT_THROW((void)makeTransport(bad), std::invalid_argument) << bad;
  }
}

// ----------------------------------------------------------- supervisor

TEST(Supervisor, RejectsInconsistentOptions) {
  FleetOptions opt;
  opt.sweeps = {"scenario"};
  opt.dir = testDir("badopts");
  opt.shardCount = 2;
  opt.shardCells = {4};  // wrong arity
  opt.totalCells = 4;
  EXPECT_THROW((void)runFleet(opt), std::invalid_argument);
}

#if defined(DISP_BENCH_BIN) && defined(DISP_FLEET_BIN)

// ------------------------------------------------- subprocess end-to-end
//
// A tiny but real campaign: the `scenario` sweep narrowed to 4 cells via
// axis overrides (1 graph x 2 ks x 1 placement x 2 algorithms), small
// enough for CI yet sharded 2-ways under local:2.

const char* const kAxes =
    " --graphs=path --ks=4,6 --placements=rooted --seeds=1,2";

int exitCode(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

/// Fact payloads (sorted key=value, telemetry stripped) of the
/// {"table": "cell"} rows in a JSONL file — the byte-identity the fleet
/// must preserve against an unsharded reference.
std::multiset<std::string> cellFacts(const std::string& path) {
  std::multiset<std::string> out;
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue row = JsonValue::parse(line);
    const JsonValue* table = row.find("table");
    if (table == nullptr || table->asString() != "cell") continue;
    std::vector<std::string> kvs;
    for (const auto& [key, value] : row.members()) {
      if (isTelemetryColumn(key)) continue;
      kvs.push_back(key + "=" + value.asString());
    }
    std::sort(kvs.begin(), kvs.end());
    std::string joined;
    for (const std::string& kv : kvs) joined += kv + "|";
    out.insert(joined);
  }
  return out;
}

/// Schema gate over fleet_events.jsonl: every line is JSON with seq/t_ms/
/// event, seq strictly increases, kinds are known, run_start opens and
/// run_done closes.
void checkEvents(const std::string& path, const std::string& wantOk) {
  const std::set<std::string> kKinds{
      "run_start", "resume",   "spawn", "exit",       "stall", "chaos_kill",
      "retry",     "poison",   "shard_done", "merge", "divergence", "run_done"};
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::string line;
  std::uint64_t lastSeq = 0;
  std::string firstKind, lastKind, lastOkField;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue row = JsonValue::parse(line);
    ASSERT_NE(row.find("seq"), nullptr) << line;
    ASSERT_NE(row.find("t_ms"), nullptr) << line;
    ASSERT_NE(row.find("event"), nullptr) << line;
    const std::uint64_t seq = std::stoull(row.find("seq")->asString());
    EXPECT_GT(seq, lastSeq) << "seq must be strictly monotonic: " << line;
    lastSeq = seq;
    const std::string kind = row.find("event")->asString();
    EXPECT_TRUE(kKinds.count(kind) > 0) << "unknown event kind: " << line;
    if (firstKind.empty()) firstKind = kind;
    lastKind = kind;
    if (kind == "run_done") lastOkField = row.find("ok")->asString();
  }
  EXPECT_EQ(firstKind, "run_start");
  EXPECT_EQ(lastKind, "run_done");
  EXPECT_EQ(lastOkField, wantOk);
}

std::string refJsonl() {
  static std::string path;
  if (!path.empty()) return path;
  const std::string dir = testDir("reference");
  path = dir + "/ref.jsonl";
  EXPECT_EQ(exitCode(std::string(DISP_BENCH_BIN) + " scenario" + kAxes +
                     " --jsonl=" + path + " --stream-cells > " + dir +
                     "/ref.out 2>&1"),
            0);
  return path;
}

TEST(FleetE2E, ListCellsEnumeratesTheCampaign) {
  const std::string dir = testDir("list");
  ASSERT_EQ(exitCode(std::string(DISP_BENCH_BIN) + " scenario" + kAxes +
                     " --list-cells > " + dir + "/cells.jsonl 2> " + dir +
                     "/err.txt"),
            0);
  std::ifstream in(dir + "/cells.jsonl");
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue row = JsonValue::parse(line);
    EXPECT_NE(row.find("sweep"), nullptr);
    EXPECT_NE(row.find("index"), nullptr);
    EXPECT_NE(row.find("graph"), nullptr);
    EXPECT_NE(row.find("k"), nullptr);
    EXPECT_NE(row.find("algo"), nullptr);
    ++rows;
  }
  EXPECT_EQ(rows, 4u);  // 1 graph x 2 ks x 1 placement x 1 sched x 2 algos
}

TEST(FleetE2E, EmptyShardExitsWithTheDistinctCode) {
  const std::string dir = testDir("empty_shard");
  // 4 cells under --shard=5/6: indices 0..3 mod 6 never hit 5.
  EXPECT_EQ(exitCode(std::string(DISP_BENCH_BIN) + " scenario" + kAxes +
                     " --shard=5/6 --jsonl=" + dir + "/s.jsonl > " + dir +
                     "/out.txt 2>&1"),
            exp::kEmptyShardExitCode);
}

TEST(FleetE2E, MalformedShardSpecsAreUsageErrors) {
  const std::string dir = testDir("bad_shard");
  for (const char* bad : {"01/4", "1/4/2", "4/4", "1/"}) {
    EXPECT_EQ(exitCode(std::string(DISP_BENCH_BIN) + " scenario" + kAxes +
                       " --shard=" + bad + " > " + dir + "/out.txt 2>&1"),
              2)
        << bad;
  }
  // Hand-rolled sweeps cannot shard: every shard would rerun them whole.
  EXPECT_EQ(exitCode(std::string(DISP_BENCH_BIN) +
                     " fig1_empty_selection --shard=0/2 > " + dir +
                     "/out.txt 2>&1"),
            2);
}

TEST(FleetE2E, FleetRunMatchesUnshardedReference) {
  const std::string dir = testDir("campaign");
  // chaos-kill-rows=1: the supervisor SIGKILLs the first worker whose
  // attempt file reaches one flushed row, then auto-retries it.
  ASSERT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " run scenario" + kAxes +
                     " --fleet=local:2 --dir=" + dir +
                     " --chaos-kill-rows=1 --backoff=0.01"
                     " --poll-interval=0.005 --stall-timeout=120 > " +
                     dir + "/fleet.out 2>&1"),
            0)
      << slurp(dir + "/fleet.out");
  EXPECT_EQ(cellFacts(dir + "/" + kMergedFile), cellFacts(refJsonl()));
  checkEvents(dir + "/" + kEventsFile, "yes");
  const Manifest m = Manifest::load(dir + "/" + kManifestFile);
  EXPECT_EQ(m.shardCount, 2u);
  for (const ShardEntry& sh : m.shards) {
    EXPECT_EQ(sh.state, ShardState::Done);
    EXPECT_EQ(sh.cellsDone, sh.cells);
  }
}

TEST(FleetE2E, FreshRunRefusesAnExistingManifest) {
  const std::string dir = testDir("no_clobber");
  sampleManifest().save(dir + "/" + kManifestFile);
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " run scenario" + kAxes +
                     " --fleet=local:2 --dir=" + dir + " > " + dir +
                     "/out.txt 2>&1"),
            2);
  EXPECT_NE(slurp(dir + "/out.txt").find("--resume"), std::string::npos);
}

TEST(FleetE2E, ResumeCompletesAKilledShard) {
  const std::string dir = testDir("resume");
  const std::string flags = std::string(" run scenario") + kAxes +
                            " --fleet=local:2 --dir=" + dir +
                            " --backoff=0.01 --poll-interval=0.005"
                            " --stall-timeout=120";
  ASSERT_EQ(exitCode(std::string(DISP_FLEET_BIN) + flags + " > " + dir +
                     "/run1.out 2>&1"),
            0)
      << slurp(dir + "/run1.out");
  const std::multiset<std::string> want = cellFacts(dir + "/" + kMergedFile);
  EXPECT_EQ(want, cellFacts(refJsonl()));

  // Simulate a worker SIGKILL'd mid-shard after one flushed row plus a torn
  // tail, with the coordinator dead before observing the exit: shard 0 is
  // still Running in the manifest and its attempt file is truncated.
  Manifest m = Manifest::load(dir + "/" + kManifestFile);
  ASSERT_EQ(m.shards[0].outputs.size(), 1u);
  const std::string attempt1 = dir + "/" + m.shards[0].outputs[0];
  std::ifstream in(attempt1);
  std::string firstRow;
  ASSERT_TRUE(std::getline(in, firstRow));
  in.close();
  writeFile(attempt1, firstRow + "\n" + R"({"sweep": "scenario", "tor)");
  m.shards[0].state = ShardState::Running;
  m.save(dir + "/" + kManifestFile);
  fs::remove(dir + "/" + kMergedFile);

  ASSERT_EQ(exitCode(std::string(DISP_FLEET_BIN) + flags + " --resume > " +
                     dir + "/run2.out 2>&1"),
            0)
      << slurp(dir + "/run2.out");
  // Facts byte-identical to the unsharded reference; shard 0 relaunched
  // once (attempt 2), shard 1 untouched.
  EXPECT_EQ(cellFacts(dir + "/" + kMergedFile), want);
  const Manifest after = Manifest::load(dir + "/" + kManifestFile);
  EXPECT_EQ(after.shards[0].attempts, 2u);
  EXPECT_EQ(after.shards[0].outputs.size(), 2u);
  EXPECT_EQ(after.shards[1].attempts, 1u);
  checkEvents(dir + "/" + kEventsFile, "yes");
}

TEST(FleetE2E, PoisonsPersistentFailuresAndResumeRecovers) {
  const std::string dir = testDir("poison");
  const std::string common = std::string(" run scenario") + kAxes +
                             " --fleet=local:2 --dir=" + dir +
                             " --max-attempts=2 --backoff=0.01"
                             " --poll-interval=0.005 --stall-timeout=120";
  // /bin/false as the worker: every attempt fails, both shards poison.
  ASSERT_EQ(exitCode(std::string(DISP_FLEET_BIN) + common +
                     " --bench=/bin/false > " + dir + "/run1.out 2>&1"),
            1)
      << slurp(dir + "/run1.out");
  const Manifest poisoned = Manifest::load(dir + "/" + kManifestFile);
  for (const ShardEntry& sh : poisoned.shards) {
    EXPECT_EQ(sh.state, ShardState::Failed);
    EXPECT_EQ(sh.attempts, 2u);  // maxAttempts failures burned
  }
  checkEvents(dir + "/" + kEventsFile, "no");
  EXPECT_FALSE(fs::exists(dir + "/" + kMergedFile));

  // --resume with a working bench grants a fresh attempt budget and
  // completes the campaign.
  ASSERT_EQ(exitCode(std::string(DISP_FLEET_BIN) + common + " --resume > " +
                     dir + "/run2.out 2>&1"),
            0)
      << slurp(dir + "/run2.out");
  EXPECT_EQ(cellFacts(dir + "/" + kMergedFile), cellFacts(refJsonl()));
  checkEvents(dir + "/" + kEventsFile, "yes");
}

TEST(FleetE2E, MergeCliAuditsDivergence) {
  const std::string dir = testDir("merge_cli");
  writeFile(dir + "/a.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "9"})"
            "\n");
  writeFile(dir + "/b.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "10"})"
            "\n");
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " merge --out=" + dir +
                     "/out.jsonl " + dir + "/a.jsonl " + dir +
                     "/b.jsonl > " + dir + "/out.txt 2> " + dir + "/err.txt"),
            1);
  EXPECT_NE(slurp(dir + "/err.txt").find("DIVERGENCE"), std::string::npos);
  // Clean inputs merge and report the row count.
  writeFile(dir + "/b.jsonl", std::string(kRowB) + "\n");
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " merge --out=" + dir +
                     "/out.jsonl " + dir + "/a.jsonl " + dir +
                     "/b.jsonl > " + dir + "/out.txt 2>&1"),
            0);
  EXPECT_NE(slurp(dir + "/out.txt").find("merged 2 rows"), std::string::npos);
}

TEST(FleetE2E, RunRejectsCoordinatorOwnedFlags) {
  const std::string dir = testDir("forbidden");
  EXPECT_EQ(exitCode(std::string(DISP_FLEET_BIN) + " run scenario" + kAxes +
                     " --dir=" + dir + " --trace=t.jsonl > " + dir +
                     "/out.txt 2>&1"),
            2);
  EXPECT_NE(slurp(dir + "/out.txt").find("coordinator-owned"),
            std::string::npos);
}

#endif  // DISP_BENCH_BIN && DISP_FLEET_BIN

}  // namespace
}  // namespace disp::fleet
