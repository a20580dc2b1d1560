// Tests for sharded sweeps and their audited merge: the JSON reader, the
// --shard parse, the merge rules of exp/merge.hpp, and — when the bench
// binary is built (DISP_BENCH_BIN) — subprocess end-to-end runs: shards
// of `scenario` (empty ones included) and of `scale_real` must merge to
// the unsharded run, a torn or missing shard file must be refused until
// that shard is rerun, and `disp_bench merge` must refuse diverging and
// overlapping shards without writing anything; `disp_bench check`'s exit
// codes follow its verdict on a trace stream.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "temp_path.hpp"
#include "exp/bench_registry.hpp"
#include "exp/json.hpp"
#include "exp/merge.hpp"

namespace disp::exp {
namespace {

namespace fs = std::filesystem;

/// Root of every scratch directory below, private to this process: ctest
/// runs each test as its own process, and with a shared root one test
/// could rebuild the unsharded reference while another was reading it.
/// Removed when the process exits.
const std::string& processRoot() {
  struct Root {
    std::string path = processTempPath("merge") + "/";
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

/// The value of `key` in object `v`, or nullptr when the key is absent.
const JsonValue* member(const JsonValue& v, const std::string& key) {
  for (const auto& [k, value] : v.members()) {
    if (k == key) return &value;
  }
  return nullptr;
}

TEST(Json, RoundTripsJsonlWriterRows) {
  const std::string line =
      R"({"sweep": "scenario", "table": "cell", "graph": "path:n=64", "k": "4", "moves": "17"})";
  const JsonValue v = JsonValue::parse(line);
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.dump(), line);  // insertion order + string values preserved
  ASSERT_NE(member(v, "graph"), nullptr);
  EXPECT_EQ(member(v, "graph")->asString(), "path:n=64");
  EXPECT_EQ(member(v, "missing"), nullptr);
}

TEST(Json, ParsesNestedValuesAndEscapes) {
  const std::string text = R"({"a": [1, 2.5, true, null], "s": "q\"\\\nA"})";
  const JsonValue v = JsonValue::parse(text);
  EXPECT_EQ(v.dump(), text);  // foreign values compare by this compact form
  ASSERT_NE(member(v, "a"), nullptr);
  EXPECT_FALSE(member(v, "a")->isString());
  EXPECT_EQ(member(v, "s")->asString(), "q\"\\\nA");
}

TEST(Json, RejectsMalformedInputWithOffset) {
  EXPECT_THROW((void)JsonValue::parse(R"({"a": )"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 1} trailing)"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(""), std::runtime_error);
  try {
    (void)JsonValue::parse(R"({"a": nope})");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    // The diagnostic must carry a byte offset for corrupted-row triage.
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos) << e.what();
  }
}

/// The what() of the runtime_error parsing `text` throws ("" if none).
std::string parseError(const std::string& text) {
  try {
    (void)JsonValue::parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// The JSON escape for code unit `hex` ("00e9" -> backslash u 00e9).
std::string uEscape(const char* hex) { return std::string("\\") + "u" + hex; }

TEST(Json, DecodesUnicodeEscapesAsUtf8) {
  // One-, two- and three-byte UTF-8 encodings, plus the escaped solidus.
  const std::string text =
      "\"" + uEscape("0041") + uEscape("00e9") + uEscape("20ac") + "\\/\"";
  EXPECT_EQ(JsonValue::parse(text).asString(), "A\xc3\xa9\xe2\x82\xac/");
  EXPECT_EQ(JsonValue::parse("\"" + uEscape("00E9") + "\"").asString(),
            "\xc3\xa9");  // either hex case
}

TEST(Json, RejectsControlCharactersBadEscapesAndSurrogates) {
  EXPECT_NE(parseError("\"a\nb\"").find("raw control character"), std::string::npos);
  EXPECT_NE(parseError(R"("\x")").find("unknown escape"), std::string::npos);
  EXPECT_NE(parseError(R"("\u12g4")").find("bad hex digit"), std::string::npos);
  EXPECT_NE(parseError(R"("\u12")").find("truncated"), std::string::npos);
  // No writer in the repo emits surrogate pairs: refuse rather than mangle.
  EXPECT_NE(parseError("\"" + uEscape("d83d") + uEscape("de00") + "\"").find("surrogate"),
            std::string::npos);
  EXPECT_NE(parseError(R"("abc)").find("unterminated string"), std::string::npos);
}

TEST(Json, NumbersReparseToTheSameValue) {
  // Integers print exactly; anything else prints in a form that parses
  // back to the same double, so dump() is a fixed point.
  EXPECT_EQ(JsonValue::parse("4096").dump(), "4096");
  EXPECT_EQ(JsonValue::parse("-3").dump(), "-3");
  EXPECT_EQ(JsonValue::parse("1e3").dump(), "1000");
  EXPECT_EQ(JsonValue::parse("2.5").dump(), "2.5");
  for (const char* text : {"0", "-0.125", "1E-2", "0.1", "3.141592653589793",
                           "123456789012345678", "-7.5e-300"}) {
    const std::string once = JsonValue::parse(text).dump();
    EXPECT_EQ(std::strtod(once.c_str(), nullptr), std::strtod(text, nullptr)) << text;
    EXPECT_EQ(JsonValue::parse(once).dump(), once) << text;
  }
  for (const char* bad : {"-", "1.", "1e", "1e+", ".5", "+1"}) {
    EXPECT_THROW((void)JsonValue::parse(bad), std::runtime_error) << bad;
  }
}

TEST(Json, RepeatedKeyKeepsFirstPositionAndLastValue) {
  const JsonValue v = JsonValue::parse(R"({"a": "1", "b": "2", "a": "3"})");
  ASSERT_EQ(v.members().size(), 2u);
  EXPECT_EQ(member(v, "a")->asString(), "3");
  EXPECT_EQ(v.dump(), R"({"a": "3", "b": "2"})");
}

TEST(Json, QuoteRoundTripsEveryControlCharacter) {
  EXPECT_EQ(jsonQuote("a\"b\\c\nd\te"), R"("a\"b\\c\nd\te")");
  EXPECT_EQ(jsonQuote("\r"), R"("\u000d")");
  std::string every;
  for (int c = 0; c < 0x20; ++c) every += static_cast<char>(c);
  every += "\"\\/x\xc3\xa9";
  const std::string quoted = jsonQuote(every);
  for (const char c : quoted) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte in " << quoted;
  }
  EXPECT_EQ(JsonValue::parse(quoted).asString(), every);
}

TEST(Json, RejectsNestingDeeperThan64) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(JsonValue::parse(nested(65)).dump(), nested(65));
  EXPECT_NE(parseError(nested(66)).find("nesting too deep"), std::string::npos);
}

// members() returns a reference into its object, so only a named value
// may be asked: `for (... : JsonValue::parse(line).members())` would walk
// a destroyed temporary, and must not compile.
template <typename T>
concept CanListMembers = requires(T&& v) { std::forward<T>(v).members(); };
static_assert(!CanListMembers<JsonValue>);
static_assert(!CanListMembers<const JsonValue>);
static_assert(CanListMembers<JsonValue&>);
static_assert(CanListMembers<const JsonValue&>);

TEST(Json, AccessorsRejectTheWrongKind) {
  const JsonValue number = JsonValue::parse("4");
  const JsonValue array = JsonValue::parse("[1]");
  EXPECT_FALSE(number.isString());
  EXPECT_FALSE(array.isObject());
  EXPECT_THROW((void)number.asString(), std::runtime_error);
  EXPECT_THROW((void)array.members(), std::runtime_error);
  EXPECT_TRUE(JsonValue::parse(R"("s")").isString());
}

// ----------------------------------------------------------- shard flag

TEST(ShardFlag, ParsesCanonicalForms) {
  EXPECT_EQ(parseShardFlag("0/1"), (std::pair<unsigned, unsigned>{0, 1}));
  EXPECT_EQ(parseShardFlag("3/4"), (std::pair<unsigned, unsigned>{3, 4}));
  EXPECT_EQ(parseShardFlag("0/4096"), (std::pair<unsigned, unsigned>{0, 4096}));
}

TEST(ShardFlag, RejectsNonCanonicalForms) {
  for (const char* bad : {"", "/", "1", "1/", "/4", "01/4", "1/04", "1/4/2",
                          "a/b", " 1/4", "1/4 ", "-1/4", "+1/4", "4/4", "0/0",
                          "0/4097", "12345/12346"}) {
    EXPECT_THROW((void)parseShardFlag(bad), std::invalid_argument) << bad;
  }
}

// ---------------------------------------------------------------- merge

const char* const kRowA =
    R"({"sweep": "s", "table": "cell", "graph": "path:n=8", "k": "4", "time": "11", "moves": "9"})";
const char* const kRowB =
    R"({"sweep": "s", "table": "cell", "graph": "path:n=8", "k": "6", "time": "15", "moves": "12"})";

TEST(Merge, WritesDisjointShardsInInputOrder) {
  const std::string dir = testDir("disjoint");
  writeFile(dir + "/s0.jsonl", std::string(kRowA) + "\n\n");
  writeFile(dir + "/s1.jsonl", std::string(kRowB) + "\n");
  const MergeResult res =
      mergeJsonl({dir + "/s0.jsonl", dir + "/s1.jsonl"}, dir + "/out.jsonl");
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.rowsOut, 2u);
  EXPECT_EQ(slurp(dir + "/out.jsonl"), std::string(kRowA) + "\n" + kRowB + "\n");
}

TEST(Merge, RejectsOverlappingShards) {
  const std::string dir = testDir("overlap");
  writeFile(dir + "/s0.jsonl", std::string(kRowA) + "\n");
  writeFile(dir + "/s0b.jsonl", std::string(kRowA) + "\n");
  const MergeResult res =
      mergeJsonl({dir + "/s0.jsonl", dir + "/s0b.jsonl"}, dir + "/out.jsonl");
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.errors.size(), 1u);
  EXPECT_NE(res.errors[0].find("overlapping shards?"), std::string::npos);
  EXPECT_NE(res.errors[0].find("s0b.jsonl:1"), std::string::npos) << res.errors[0];
  EXPECT_FALSE(fs::exists(dir + "/out.jsonl"));  // no output on failure
}

TEST(Merge, FactDivergenceFailsLoudlyWithACellDiff) {
  const std::string dir = testDir("diverge");
  writeFile(dir + "/a.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "9"})"
            "\n");
  writeFile(dir + "/b.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "10"})"
            "\n");
  const MergeResult res =
      mergeJsonl({dir + "/a.jsonl", dir + "/b.jsonl"}, dir + "/out.jsonl");
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.divergences.size(), 1u);
  EXPECT_EQ(res.divergences[0].column, "moves");
  EXPECT_EQ(res.divergences[0].valueA, "9");
  EXPECT_EQ(res.divergences[0].valueB, "10");
  EXPECT_NE(res.divergences[0].identity.find("graph=er"), std::string::npos);
  EXPECT_NE(res.divergences[0].whereA.find("a.jsonl:1"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir + "/out.jsonl"));

  // A measured column is compared like any other: two runs of one cell
  // that differ only in peak RSS diverge there.
  writeFile(dir + "/a.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "peak_rss_mb": "12.5"})"
            "\n");
  writeFile(dir + "/b.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "peak_rss_mb": "99.9"})"
            "\n");
  const MergeResult rss =
      mergeJsonl({dir + "/a.jsonl", dir + "/b.jsonl"}, dir + "/out.jsonl");
  EXPECT_TRUE(rss.errors.empty());
  ASSERT_EQ(rss.divergences.size(), 1u);
  EXPECT_EQ(rss.divergences[0].column, "peak_rss_mb");
  EXPECT_FALSE(fs::exists(dir + "/out.jsonl"));
}

TEST(Merge, TornLineIsAnErrorNamingPathAndLine) {
  const std::string dir = testDir("torn");
  // A shard killed mid-write: its last line is cut short.
  writeFile(dir + "/killed.jsonl", std::string(kRowA) + "\n" + R"({"sweep": "s", "tab)");
  const MergeResult tail = mergeJsonl({dir + "/killed.jsonl"}, dir + "/out.jsonl");
  EXPECT_FALSE(tail.ok);
  ASSERT_EQ(tail.errors.size(), 1u);
  EXPECT_NE(tail.errors[0].find("killed.jsonl:2: not JSON"), std::string::npos)
      << tail.errors[0];
  // A torn line followed by data is refused the same way.
  writeFile(dir + "/midtorn.jsonl", R"({"broken)" "\n" + std::string(kRowA) + "\n");
  const MergeResult mid = mergeJsonl({dir + "/midtorn.jsonl"}, dir + "/out.jsonl");
  EXPECT_FALSE(mid.ok);
  ASSERT_EQ(mid.errors.size(), 1u);
  EXPECT_NE(mid.errors[0].find("midtorn.jsonl:1: not JSON"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir + "/out.jsonl"));
}

TEST(Merge, DiagnosticRowsCompareByFullContent) {
  const std::string dir = testDir("notes");
  // Fit/note rows carry only sweep/table coordinates: two different notes
  // are two rows, not one diverging row.
  const std::string noteA = R"({"sweep": "s", "table": "fit", "slope": "1.9"})";
  const std::string noteB = R"({"sweep": "s", "table": "fit", "slope": "2.1"})";
  writeFile(dir + "/a.jsonl", noteA + "\n" + noteB + "\n");
  const MergeResult res = mergeJsonl({dir + "/a.jsonl"}, dir + "/out.jsonl");
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.rowsOut, 2u);
}

TEST(Merge, EmptyShardFilesMergeToAnEmptyOutput) {
  const std::string dir = testDir("empty");
  // A shard that owns no cell streams nothing; blank lines are skipped.
  writeFile(dir + "/empty.jsonl", "");
  writeFile(dir + "/blank.jsonl", "\n\n");
  writeFile(dir + "/s.jsonl", std::string(kRowA) + "\n");
  const MergeResult none = mergeJsonl({dir + "/empty.jsonl"}, dir + "/none.jsonl");
  EXPECT_TRUE(none.ok);
  EXPECT_EQ(none.rowsOut, 0u);
  ASSERT_TRUE(fs::exists(dir + "/none.jsonl"));
  EXPECT_EQ(slurp(dir + "/none.jsonl"), "");

  const MergeResult some = mergeJsonl(
      {dir + "/empty.jsonl", dir + "/s.jsonl", dir + "/blank.jsonl"}, dir + "/out.jsonl");
  EXPECT_TRUE(some.ok);
  EXPECT_EQ(some.rowsOut, 1u);
  EXPECT_EQ(slurp(dir + "/out.jsonl"), std::string(kRowA) + "\n");
}

TEST(Merge, MissingInputIsAnErrorNamingThePath) {
  const std::string dir = testDir("missing");
  writeFile(dir + "/s0.jsonl", std::string(kRowA) + "\n");
  const MergeResult res =
      mergeJsonl({dir + "/s0.jsonl", dir + "/s1.jsonl"}, dir + "/out.jsonl");
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.errors.size(), 1u);
  EXPECT_EQ(res.errors[0], dir + "/s1.jsonl: cannot open");
  EXPECT_FALSE(fs::exists(dir + "/out.jsonl"));
}

TEST(Merge, RefusedMergeLeavesAnExistingOutputUntouched) {
  const std::string dir = testDir("keep_out");
  const std::string out = dir + "/out.jsonl";
  writeFile(out, "previous\n");
  writeFile(dir + "/a.jsonl", std::string(kRowA) + "\n");
  const MergeResult refused = mergeJsonl({dir + "/a.jsonl", dir + "/a.jsonl"}, out);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(slurp(out), "previous\n");
  // A clean merge replaces the old content rather than appending to it.
  const MergeResult clean = mergeJsonl({dir + "/a.jsonl"}, out);
  EXPECT_TRUE(clean.ok);
  EXPECT_EQ(slurp(out), std::string(kRowA) + "\n");
}

TEST(Merge, NonObjectRowIsAnErrorNamingPathAndLine) {
  const std::string dir = testDir("non_object");
  writeFile(dir + "/s.jsonl", std::string(kRowA) + "\n[1, 2]\n\"cell\"\n");
  const MergeResult res = mergeJsonl({dir + "/s.jsonl"}, dir + "/out.jsonl");
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.errors.size(), 2u);
  EXPECT_NE(res.errors[0].find("s.jsonl:2: not JSON (row is not a JSON object)"),
            std::string::npos)
      << res.errors[0];
  EXPECT_NE(res.errors[1].find("s.jsonl:3: not JSON"), std::string::npos) << res.errors[1];
  EXPECT_FALSE(fs::exists(dir + "/out.jsonl"));
}

TEST(Merge, AbsentFactColumnIsADivergence) {
  const std::string dir = testDir("absent");
  const std::string full =
      R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "9", "time": "3"})";
  const std::string noMoves =
      R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "time": "3"})";
  writeFile(dir + "/full.jsonl", full + "\n");
  writeFile(dir + "/short.jsonl", noMoves + "\n");
  const MergeResult lost =
      mergeJsonl({dir + "/full.jsonl", dir + "/short.jsonl"}, dir + "/out.jsonl");
  ASSERT_EQ(lost.divergences.size(), 1u);
  EXPECT_EQ(lost.divergences[0].column, "moves");
  EXPECT_EQ(lost.divergences[0].valueA, "9");
  EXPECT_EQ(lost.divergences[0].valueB, "(absent)");

  const MergeResult gained =
      mergeJsonl({dir + "/short.jsonl", dir + "/full.jsonl"}, dir + "/out.jsonl");
  ASSERT_EQ(gained.divergences.size(), 1u);
  EXPECT_EQ(gained.divergences[0].column, "moves");
  EXPECT_EQ(gained.divergences[0].valueA, "(absent)");
  EXPECT_EQ(gained.divergences[0].valueB, "9");
  EXPECT_FALSE(fs::exists(dir + "/out.jsonl"));
}

TEST(Merge, IdentityIsIndependentOfColumnOrder) {
  const std::string dir = testDir("order");
  writeFile(dir + "/a.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "9"})"
            "\n");
  writeFile(dir + "/b.jsonl",
            R"({"moves": "9", "k": "4", "graph": "er", "table": "cell", "sweep": "s"})"
            "\n");
  writeFile(dir + "/c.jsonl",
            R"({"moves": "8", "k": "4", "graph": "er", "table": "cell", "sweep": "s"})"
            "\n");
  const MergeResult same =
      mergeJsonl({dir + "/a.jsonl", dir + "/b.jsonl"}, dir + "/out.jsonl");
  EXPECT_TRUE(same.divergences.empty());
  ASSERT_EQ(same.errors.size(), 1u);
  EXPECT_NE(same.errors[0].find("overlapping shards?"), std::string::npos);

  const MergeResult differ =
      mergeJsonl({dir + "/a.jsonl", dir + "/c.jsonl"}, dir + "/out.jsonl");
  ASSERT_EQ(differ.divergences.size(), 1u);
  EXPECT_EQ(differ.divergences[0].column, "moves");
}

TEST(Merge, EveryCoordinateColumnSeparatesCells) {
  const std::string dir = testDir("coords");
  const std::vector<std::string> coordinates{
      "sweep", "table", "family", "graph", "file",  "k",
      "l",     "placement", "sched", "algo", "faults", "seed"};
  const auto row = [&](const std::string& changed) {
    std::string out = "{";
    for (const std::string& c : coordinates) {
      out += jsonQuote(c) + ": " + jsonQuote(c == changed ? c + "-other" : c) + ", ";
    }
    out += jsonQuote("n") + ": " + jsonQuote(changed == "n" ? "9" : "8") + "}\n";
    return out;
  };
  writeFile(dir + "/base.jsonl", row(""));
  for (const std::string& c : coordinates) {
    writeFile(dir + "/other.jsonl", row(c));
    const MergeResult res =
        mergeJsonl({dir + "/base.jsonl", dir + "/other.jsonl"}, dir + "/out.jsonl");
    EXPECT_TRUE(res.ok) << c;
    EXPECT_EQ(res.rowsOut, 2u) << c;
  }
  // A non-coordinate column is a fact of the same cell, not a new cell.
  writeFile(dir + "/other.jsonl", row("n"));
  const MergeResult fact =
      mergeJsonl({dir + "/base.jsonl", dir + "/other.jsonl"}, dir + "/out.jsonl");
  ASSERT_EQ(fact.divergences.size(), 1u);
  EXPECT_EQ(fact.divergences[0].column, "n");
}

TEST(Merge, ReportsEveryBadLineAcrossFiles) {
  const std::string dir = testDir("all_errors");
  // The merge reads every input to the end, so one pass names every shard
  // that needs a rerun.
  writeFile(dir + "/s0.jsonl", std::string(kRowA) + "\n" + R"({"sweep": "s", "ta)");
  writeFile(dir + "/s1.jsonl", "not json\n" + std::string(kRowB) + "\n");
  writeFile(dir + "/s2.jsonl", std::string(kRowA) + "\n");
  const MergeResult res = mergeJsonl(
      {dir + "/s0.jsonl", dir + "/s1.jsonl", dir + "/s2.jsonl"}, dir + "/out.jsonl");
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.errors.size(), 3u);
  EXPECT_NE(res.errors[0].find("s0.jsonl:2: not JSON"), std::string::npos) << res.errors[0];
  EXPECT_NE(res.errors[1].find("s1.jsonl:1: not JSON"), std::string::npos) << res.errors[1];
  EXPECT_NE(res.errors[2].find("s2.jsonl:1: duplicate row (also in "), std::string::npos)
      << res.errors[2];
  EXPECT_FALSE(fs::exists(dir + "/out.jsonl"));
}

#if defined(DISP_BENCH_BIN)

// ------------------------------------------------- subprocess end-to-end
//
// A tiny but real sweep: `scenario` narrowed to 4 cells via axis overrides
// (1 graph x 2 ks x 1 placement x 2 algorithms), split into two shards.

const char* const kAxes =
    " --graphs=path --ks=4,6 --placements=rooted --seeds=1,2";

int exitCode(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

/// The {"table": "cell"} rows of a JSONL file, as written.
std::multiset<std::string> cellRows(const std::string& path) {
  std::multiset<std::string> out;
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue row = JsonValue::parse(line);
    const JsonValue* table = member(row, "table");
    if (table != nullptr && table->asString() == "cell") out.insert(line);
  }
  return out;
}

/// Every row of a JSONL file with its run-dependent telemetry columns
/// (load time, peak RSS and the ratio over it) dropped.
std::multiset<std::string> factRows(const std::string& path) {
  std::multiset<std::string> out;
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue row = JsonValue::parse(line);
    std::string facts;
    for (const auto& [key, value] : row.members()) {
      if (key == "load_ms" || key == "peak_rss_mb" || key == "rss_ratio") continue;
      facts += jsonQuote(key) + ": " + value.dump() + "; ";
    }
    out.insert(facts);
  }
  return out;
}

/// The unsharded --stream-cells run of the 4-cell sweep.
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

/// Runs shard I of `count` into dir/shardI.jsonl; returns its exit code.
int runShard(const std::string& dir, int index, int count = 2) {
  const std::string jsonl = dir + "/shard" + std::to_string(index) + ".jsonl";
  return exitCode(std::string(DISP_BENCH_BIN) + " scenario" + kAxes + " --shard=" +
                  std::to_string(index) + "/" + std::to_string(count) +
                  " --jsonl=" + jsonl + " --stream-cells > " + jsonl + ".out 2>&1");
}

/// `disp_bench merge --out=dir/merged.jsonl` over the two shard files;
/// stderr lands in dir/merge.err.
int mergeShards(const std::string& dir) {
  return exitCode(std::string(DISP_BENCH_BIN) + " merge --out=" + dir +
                  "/merged.jsonl " + dir + "/shard0.jsonl " + dir +
                  "/shard1.jsonl > " + dir + "/merge.out 2> " + dir + "/merge.err");
}

TEST(MergeE2E, MalformedShardSpecsAreUsageErrors) {
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

TEST(MergeE2E, ShardsMergeToTheUnshardedReference) {
  const std::string dir = testDir("shards");
  ASSERT_EQ(runShard(dir, 0), 0) << slurp(dir + "/shard0.jsonl.out");
  ASSERT_EQ(runShard(dir, 1), 0) << slurp(dir + "/shard1.jsonl.out");
  ASSERT_EQ(mergeShards(dir), 0) << slurp(dir + "/merge.err");
  const std::multiset<std::string> want = cellRows(refJsonl());
  EXPECT_EQ(want.size(), 4u);
  EXPECT_EQ(cellRows(dir + "/merged.jsonl"), want);
}

TEST(MergeE2E, TornShardIsRefusedUntilRerun) {
  const std::string dir = testDir("torn_shard");
  ASSERT_EQ(runShard(dir, 0), 0);
  ASSERT_EQ(runShard(dir, 1), 0);
  // Shard 0 killed after one flushed row, mid-way through the next.
  const std::string shard0 = dir + "/shard0.jsonl";
  std::ifstream in(shard0);
  std::string firstRow;
  ASSERT_TRUE(std::getline(in, firstRow));
  in.close();
  writeFile(shard0, firstRow + "\n" + R"({"sweep": "scenario", "tor)");
  EXPECT_EQ(mergeShards(dir), 1);
  EXPECT_NE(slurp(dir + "/merge.err").find(shard0 + ":2"), std::string::npos)
      << slurp(dir + "/merge.err");
  EXPECT_FALSE(fs::exists(dir + "/merged.jsonl"));

  // Rerunning the killed shard is the whole recovery.
  ASSERT_EQ(runShard(dir, 0), 0);
  ASSERT_EQ(mergeShards(dir), 0) << slurp(dir + "/merge.err");
  EXPECT_EQ(cellRows(dir + "/merged.jsonl"), cellRows(refJsonl()));
}

TEST(MergeE2E, EmptyShardsExitZeroAndMergeToTheReference) {
  const std::string dir = testDir("six_shards");
  // 4 cells over 6 shards: shards 4 and 5 own no cell.  They exit 0 like
  // any other shard, and their empty files merge in without complaint.
  std::string files;
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(runShard(dir, i, 6), 0) << slurp(dir + "/shard" + std::to_string(i) +
                                              ".jsonl.out");
    files += " " + dir + "/shard" + std::to_string(i) + ".jsonl";
  }
  EXPECT_TRUE(cellRows(dir + "/shard4.jsonl").empty());
  EXPECT_TRUE(cellRows(dir + "/shard5.jsonl").empty());
  ASSERT_EQ(exitCode(std::string(DISP_BENCH_BIN) + " merge --out=" + dir +
                     "/merged.jsonl" + files + " > " + dir + "/merge.out 2> " + dir +
                     "/merge.err"),
            0)
      << slurp(dir + "/merge.err");
  EXPECT_EQ(cellRows(dir + "/merged.jsonl"), cellRows(refJsonl()));
}

TEST(MergeE2E, MissingShardFileIsRefused) {
  const std::string dir = testDir("missing_shard");
  // Shard 1 never ran (or its file was lost): the merge names the file and
  // writes nothing.  Only a missing file or a torn line is caught: a shard
  // killed between two rows leaves a short but clean file that merges, so
  // a shard's nonzero exit is the sign that it needs a rerun.
  ASSERT_EQ(runShard(dir, 0), 0);
  EXPECT_EQ(mergeShards(dir), 1);
  EXPECT_NE(slurp(dir + "/merge.err").find(dir + "/shard1.jsonl: cannot open"),
            std::string::npos)
      << slurp(dir + "/merge.err");
  EXPECT_FALSE(fs::exists(dir + "/merged.jsonl"));
}

TEST(MergeE2E, ScaleRealShardsMergeToTheUnshardedRun) {
  const std::string dir = testDir("scale_real");
  // One dataset on disk and one missing: scale_real writes an ingest row
  // for the first and a skip note for the second, once per dataset, not
  // once per cell.  Only shard 0 may write them, or every shard repeats
  // them and the merge refuses the overlap.
  std::string edges;
  for (int v = 0; v + 1 < 12; ++v) {
    edges += std::to_string(v) + " " + std::to_string(v + 1) + "\n";
  }
  writeFile(dir + "/path12.txt", edges);
  const std::string run = std::string(DISP_BENCH_BIN) + " scale_real --graphs='file:" +
                          dir + "/path12.txt;file:" + dir +
                          "/absent.e' --ks=4,6 --placements=rooted --stream-cells";
  const auto runInto = [&](const std::string& jsonl, const std::string& shard) {
    return exitCode(run + shard + " --jsonl=" + jsonl + " > " + jsonl + ".out 2>&1");
  };
  ASSERT_EQ(runInto(dir + "/ref.jsonl", ""), 0) << slurp(dir + "/ref.jsonl.out");
  ASSERT_EQ(runInto(dir + "/shard0.jsonl", " --shard=0/2"), 0);
  ASSERT_EQ(runInto(dir + "/shard1.jsonl", " --shard=1/2"), 0);
  ASSERT_EQ(mergeShards(dir), 0) << slurp(dir + "/merge.err");
  // Every row, not only the cell rows: the shards together write what
  // the unsharded run writes, each row exactly once.
  const std::multiset<std::string> want = factRows(dir + "/ref.jsonl");
  EXPECT_EQ(cellRows(dir + "/ref.jsonl").size(), 2u);
  EXPECT_EQ(want.size(), 6u);  // 2 cells, their 2 table rows, ingest, note
  EXPECT_EQ(factRows(dir + "/merged.jsonl"), want);
}

TEST(MergeE2E, ShardedRunsWriteNoFitNotes) {
  const std::string dir = testDir("fits");
  // A growth fit over one shard's cells is not the sweep's fit, so only
  // the unsharded run writes one; the merged shards hold the same cells
  // and no fit row.
  const std::string run =
      std::string(DISP_BENCH_BIN) + " table1_async_general --stream-cells";
  const auto runInto = [&](const std::string& jsonl, const std::string& shard) {
    return exitCode(run + shard + " --jsonl=" + jsonl + " > " + jsonl + ".out 2>&1");
  };
  const auto fitRows = [](const std::string& path) {
    std::size_t fits = 0;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && member(JsonValue::parse(line), "fit") != nullptr) ++fits;
    }
    return fits;
  };
  ASSERT_EQ(runInto(dir + "/ref.jsonl", ""), 0) << slurp(dir + "/ref.jsonl.out");
  ASSERT_EQ(runInto(dir + "/shard0.jsonl", " --shard=0/2"), 0);
  ASSERT_EQ(runInto(dir + "/shard1.jsonl", " --shard=1/2"), 0);
  ASSERT_EQ(mergeShards(dir), 0) << slurp(dir + "/merge.err");
  EXPECT_EQ(fitRows(dir + "/ref.jsonl"), 1u);
  EXPECT_EQ(fitRows(dir + "/shard0.jsonl"), 0u);
  EXPECT_EQ(fitRows(dir + "/shard1.jsonl"), 0u);
  EXPECT_EQ(fitRows(dir + "/merged.jsonl"), 0u);
  EXPECT_FALSE(cellRows(dir + "/ref.jsonl").empty());
  EXPECT_EQ(cellRows(dir + "/merged.jsonl"), cellRows(dir + "/ref.jsonl"));
}

TEST(MergeE2E, RefusesDivergenceOverlapAndUnknownFlags) {
  const std::string dir = testDir("merge_cli");
  const std::string bench(DISP_BENCH_BIN);
  const std::string out = dir + "/out.jsonl";
  writeFile(dir + "/a.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "9"})"
            "\n");
  writeFile(dir + "/b.jsonl",
            R"({"sweep": "s", "table": "cell", "graph": "er", "k": "4", "moves": "10"})"
            "\n");
  EXPECT_EQ(exitCode(bench + " merge --out=" + out + " " + dir + "/a.jsonl " + dir +
                     "/b.jsonl > " + dir + "/out.txt 2> " + dir + "/err.txt"),
            1);
  EXPECT_NE(slurp(dir + "/err.txt").find("DIVERGENCE"), std::string::npos);
  EXPECT_NE(slurp(dir + "/err.txt").find("column 'moves'"), std::string::npos);
  EXPECT_FALSE(fs::exists(out));

  // The same file twice: identical rows from overlapping shards.
  EXPECT_EQ(exitCode(bench + " merge --out=" + out + " " + dir + "/a.jsonl " + dir +
                     "/a.jsonl > " + dir + "/out.txt 2> " + dir + "/err.txt"),
            1);
  EXPECT_NE(slurp(dir + "/err.txt").find("overlapping shards?"), std::string::npos);
  EXPECT_FALSE(fs::exists(out));

  // merge takes --out and nothing else.
  for (const char* flag : {"--dup=error", "--partial-tail", "--threads=2", "--help"}) {
    EXPECT_EQ(exitCode(bench + " merge --out=" + out + " " + flag + " " + dir +
                       "/a.jsonl > " + dir + "/out.txt 2>&1"),
              2)
        << flag;
  }
  EXPECT_EQ(exitCode(bench + " merge " + dir + "/a.jsonl > " + dir + "/out.txt 2>&1"), 2);
  EXPECT_FALSE(fs::exists(out));

  // Clean inputs merge and report the row count.
  writeFile(dir + "/b.jsonl", std::string(kRowB) + "\n");
  EXPECT_EQ(exitCode(bench + " merge --out=" + out + " " + dir + "/a.jsonl " + dir +
                     "/b.jsonl > " + dir + "/out.txt 2>&1"),
            0);
  EXPECT_NE(slurp(dir + "/out.txt").find("merged 2 rows"), std::string::npos);
}

// A bare --out reads as "1": it must be a usage error, not a merge into a
// file named `1` in the working directory.
TEST(MergeE2E, OutWithoutAPathIsAUsageError) {
  const std::string dir = testDir("bare_out");
  writeFile(dir + "/a.jsonl", std::string(kRowB) + "\n");
  EXPECT_EQ(exitCode("cd " + dir + " && " + DISP_BENCH_BIN +
                     " merge --out a.jsonl > out.txt 2> err.txt"),
            2);
  EXPECT_NE(slurp(dir + "/err.txt").find("error: --out wants a path: --out=PATH"),
            std::string::npos)
      << slurp(dir + "/err.txt");
  EXPECT_FALSE(fs::exists(dir + "/1"));
}

// `disp_bench check` exits 0 with the per-kind summary on a valid trace
// stream, 1 naming path:line on an invalid one, and 2 on a usage error.
TEST(CheckE2E, ExitCodesFollowTheVerdict) {
  const std::string dir = testDir("check_cli");
  const std::string bench(DISP_BENCH_BIN);
  const std::string trace = dir + "/trace.jsonl";
  ASSERT_EQ(exitCode(bench + " trace_smoke --threads=1 --sample=4 --trace=" + trace +
                     " > " + dir + "/run.txt 2>&1"),
            0);
  const auto check = [&](const std::string& args) {
    return exitCode(bench + " check " + args + " > " + dir + "/out.txt 2> " + dir +
                    "/err.txt");
  };
  EXPECT_EQ(check(trace), 0);
  EXPECT_EQ(slurp(dir + "/out.txt").rfind("OK " + trace + ": 6 streams, collapse=", 0), 0u)
      << slurp(dir + "/out.txt");
  EXPECT_EQ(slurp(dir + "/err.txt"), "");

  std::string first;
  std::getline(std::ifstream(trace), first);
  writeFile(dir + "/torn.jsonl", first.substr(0, first.size() / 2) + "\n");
  EXPECT_EQ(check(dir + "/torn.jsonl"), 1);
  EXPECT_EQ(slurp(dir + "/err.txt").rfind("error: " + dir + "/torn.jsonl:1: not JSON", 0),
            0u)
      << slurp(dir + "/err.txt");
  EXPECT_EQ(slurp(dir + "/out.txt"), "");
  EXPECT_EQ(check(dir + "/absent.jsonl"), 1);

  // check takes one path and no flags, --help included.
  EXPECT_EQ(check(""), 2);
  EXPECT_EQ(check(trace + " " + trace), 2);
  EXPECT_EQ(check("--help " + dir + "/torn.jsonl"), 2);
  EXPECT_EQ(check("--sample=4 " + trace), 2);
  EXPECT_NE(slurp(dir + "/err.txt").find("error: unknown flag --sample"), std::string::npos);
}

#endif  // DISP_BENCH_BIN

}  // namespace
}  // namespace disp::exp
