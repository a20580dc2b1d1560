#include "graph/graph_io.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/generators.hpp"  // isConnected
#include "util/check.hpp"

namespace disp {

namespace {

[[noreturn]] void fail(const std::string& source, const std::string& why) {
  throw std::invalid_argument(source + ": " + why);
}

[[noreturn]] void failAt(const std::string& source, std::uint64_t line,
                         const std::string& why) {
  fail(source + ":" + std::to_string(line), why);
}

/// Strict unsigned parse of one token; nullopt on anything non-numeric.
/// Overflow saturates to ULLONG_MAX (the historical strtoull behavior).
std::optional<std::uint64_t> parseId(std::string_view tok) {
  if (tok.empty()) return std::nullopt;
  for (const char c : tok) {
    if (c < '0' || c > '9') return std::nullopt;
  }
  std::uint64_t v = 0;
  const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (res.ec == std::errc::result_out_of_range) return ULLONG_MAX;
  if (res.ec != std::errc() || res.ptr != tok.data() + tok.size()) {
    return std::nullopt;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Streaming line scanner: reads the stream in 1 MiB chunks and yields
// terminator-free string_view lines over the internal buffer — no per-line
// std::string allocation, no istream::getline small-read churn.  Views stay
// valid until the next next() call.

class LineScanner {
 public:
  explicit LineScanner(std::istream& is) : is_(is), buf_(kChunk) {}

  /// Yields the next line (without '\n') and bumps lineNo(); false at EOF.
  bool next(std::string_view& line) {
    for (;;) {
      const char* base = buf_.data();
      const void* nl = std::memchr(base + pos_, '\n', end_ - pos_);
      if (nl != nullptr) {
        const auto at =
            static_cast<std::size_t>(static_cast<const char*>(nl) - base);
        line = std::string_view(base + pos_, at - pos_);
        pos_ = at + 1;
        ++lineNo_;
        return true;
      }
      if (eof_) {
        if (pos_ == end_) return false;
        line = std::string_view(base + pos_, end_ - pos_);
        pos_ = end_;
        ++lineNo_;
        return true;
      }
      refill();
    }
  }

  [[nodiscard]] std::uint64_t lineNo() const noexcept { return lineNo_; }

 private:
  static constexpr std::size_t kChunk = 1u << 20;

  void refill() {
    if (pos_ > 0) {  // compact the partial tail line to the front
      std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
      end_ -= pos_;
      pos_ = 0;
    }
    if (buf_.size() - end_ < kChunk) {  // a single line longer than a chunk
      buf_.resize(std::max(buf_.size() * 2, end_ + kChunk));
    }
    is_.read(buf_.data() + end_,
             static_cast<std::streamsize>(buf_.size() - end_));
    const auto got = static_cast<std::size_t>(is_.gcount());
    end_ += got;
    if (got == 0) eof_ = true;
  }

  std::istream& is_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  std::uint64_t lineNo_ = 0;
  bool eof_ = false;
};

/// Matches the whitespace set `istream >> std::string` splits on.
bool isSpaceChar(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
         c == '\f';
}

/// Up to 5 whitespace-separated tokens of a line; count caps at 5, which
/// keeps every exact-arity check (2, 3 or 4 tokens) meaningful.
struct Tokens {
  std::string_view tok[5];
  std::size_t count = 0;
};

Tokens splitLine(std::string_view line) {
  Tokens t;
  std::size_t i = 0;
  const std::size_t len = line.size();
  while (i < len && t.count < 5) {
    while (i < len && isSpaceChar(line[i])) ++i;
    if (i >= len) break;
    std::size_t j = i;
    while (j < len && !isSpaceChar(line[j])) ++j;
    t.tok[t.count++] = line.substr(i, j - i);
    i = j;
  }
  return t;
}

bool isCommentOrBlank(const Tokens& toks) {
  return toks.count == 0 || toks.tok[0][0] == '#' || toks.tok[0][0] == '%';
}

/// The streamed loaders read their input twice (count, then build), so the
/// stream must rewind; every caller hands in an ifstream or a stringstream.
void rewind(std::istream& is, const std::string& source) {
  is.clear();
  is.seekg(0);
  if (!is.good()) {
    fail(source, "stream is not seekable (streaming ingest reads twice)");
  }
}

/// Cold path: a duplicate edge was detected on the sorted rows.  Rescans
/// the source with the historical per-line set so the error names the same
/// line and tokens the old single-pass loaders reported.  `mapKey` turns a
/// validated edge line into the dedup key (raw or remapped, normalized).
template <typename MapKey>
[[noreturn]] void reportDuplicateEdge(std::istream& is,
                                      const std::string& source,
                                      MapKey mapKey) {
  rewind(is, source);
  LineScanner sc(is);
  std::string_view line;
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  while (sc.next(line)) {
    const Tokens toks = splitLine(line);
    if (isCommentOrBlank(toks)) continue;
    if (!seen.insert(mapKey(toks)).second) {
      failAt(source, sc.lineNo(),
             "duplicate edge " + std::string(toks.tok[0]) + " " +
                 std::string(toks.tok[1]));
    }
  }
  DISP_CHECK(false, source + ": duplicate edge vanished on rescan");
  std::abort();  // unreachable; DISP_CHECK throws
}

/// Shared tail of the port-free formats, streaming edition: sorts the
/// as-written directed pairs into the canonical (u, v) order, rejects
/// duplicates (delegating the error message to `reportDuplicate`, which
/// rescans the source to name the offending line), then feeds the two-pass
/// CSR builder.  Ports are per-node arrival order over the sorted stream —
/// exactly the deterministic insertion-order labeling the historical
/// edge-vector path produced — and connectivity is checked last.  Peak
/// transient memory: the 8-byte pairs plus the CSR itself.
Graph buildFromMappedPairs(std::uint32_t n,
                           std::vector<std::pair<NodeId, NodeId>> pairs,
                           const std::string& source,
                           const std::function<void()>& reportDuplicate) {
  std::sort(pairs.begin(), pairs.end());
  bool dup = std::adjacent_find(pairs.begin(), pairs.end()) != pairs.end();
  if (!dup) {
    // Same-direction duplicates are adjacent; opposite-direction ones need
    // a lookup of the flipped pair (only one orientation must check).
    for (const auto& [u, v] : pairs) {
      if (v < u && std::binary_search(pairs.begin(), pairs.end(),
                                      std::pair<NodeId, NodeId>(v, u))) {
        dup = true;
        break;
      }
    }
  }
  if (dup) reportDuplicate();  // rescans and throws with the line number

  TwoPassBuilder b(n);
  for (const auto& [u, v] : pairs) b.countEdge(u, v);
  b.beginEdges();
  for (const auto& [u, v] : pairs) b.addEdge(u, v);
  pairs.clear();
  pairs.shrink_to_fit();
  Graph g = b.finish();
  if (!isConnected(g)) fail(source, "graph is not connected");
  return g;
}

}  // namespace

Graph readEdgeList(std::istream& is, const std::string& source) {
  // Pass one: validate every line in order, count edges, and collect the
  // distinct raw ids.  The id pool is compacted (sort + unique) whenever it
  // doubles past the last unique count, so memory stays proportional to
  // the number of *distinct* ids, not the number of edges.
  std::uint64_t m = 0;
  std::vector<std::uint64_t> ids;
  std::size_t compactAt = 1024;
  {
    LineScanner sc(is);
    std::string_view line;
    while (sc.next(line)) {
      const Tokens toks = splitLine(line);
      if (isCommentOrBlank(toks)) continue;
      if (toks.count != 2) {
        failAt(source, sc.lineNo(), "want '<u> <v>' per edge line");
      }
      const auto u = parseId(toks.tok[0]);
      const auto v = parseId(toks.tok[1]);
      if (!u || !v) {
        failAt(source, sc.lineNo(),
               "non-numeric node id '" +
                   std::string(!u ? toks.tok[0] : toks.tok[1]) + "'");
      }
      if (*u == *v) {
        failAt(source, sc.lineNo(),
               "self-loop at node " + std::string(toks.tok[0]));
      }
      ++m;
      ids.push_back(*u);
      ids.push_back(*v);
      if (ids.size() >= compactAt) {
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
        compactAt = std::max<std::size_t>(1024, ids.size() * 2);
      }
    }
  }
  if (m == 0) fail(source, "no edges");
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  ids.shrink_to_fit();
  DISP_REQUIRE(ids.size() <= 0xffffffffULL,
               "too many distinct node ids in " + source);
  DISP_REQUIRE(m <= 0x7fffffffULL, "too many edges in " + source);

  // Pass two: remap the (possibly sparse) ids to 0..n-1 in sorted-id order
  // — the historical contract — keeping the as-written direction.
  rewind(is, source);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(m);
  const auto indexOf = [&ids](std::uint64_t id) {
    return static_cast<NodeId>(
        std::lower_bound(ids.begin(), ids.end(), id) - ids.begin());
  };
  {
    LineScanner sc(is);
    std::string_view line;
    while (sc.next(line)) {
      const Tokens toks = splitLine(line);
      if (isCommentOrBlank(toks)) continue;
      pairs.emplace_back(indexOf(*parseId(toks.tok[0])),
                         indexOf(*parseId(toks.tok[1])));
    }
  }
  const auto n = static_cast<std::uint32_t>(ids.size());
  ids.clear();
  ids.shrink_to_fit();
  return buildFromMappedPairs(
      n, std::move(pairs), source, [&is, &source] {
        reportDuplicateEdge(is, source, [](const Tokens& toks) {
          const std::uint64_t a = *parseId(toks.tok[0]);
          const std::uint64_t b = *parseId(toks.tok[1]);
          return std::pair<std::uint64_t, std::uint64_t>(std::min(a, b),
                                                         std::max(a, b));
        });
      });
}

Graph readGraphalytics(std::istream& vs, std::istream& es,
                       const std::string& vSource, const std::string& eSource) {
  // One streamed pass over the .v file; a vertex's NodeId is its id-line
  // order, as before.  The (id, NodeId) table is then sorted once for
  // binary-search lookups instead of a std::map's per-node allocations.
  std::vector<std::pair<std::uint64_t, NodeId>> lookup;
  {
    LineScanner sc(vs);
    std::string_view line;
    while (sc.next(line)) {
      const Tokens toks = splitLine(line);
      if (isCommentOrBlank(toks)) continue;
      const auto id = parseId(toks.tok[0]);
      if (!id) {
        failAt(vSource, sc.lineNo(),
               "non-numeric vertex id '" + std::string(toks.tok[0]) + "'");
      }
      lookup.emplace_back(*id, static_cast<NodeId>(lookup.size()));
    }
  }
  if (lookup.empty()) fail(vSource, "no vertices");
  DISP_REQUIRE(lookup.size() <= 0xffffffffULL, "too many vertices in " + vSource);
  std::sort(lookup.begin(), lookup.end());
  if (std::adjacent_find(lookup.begin(), lookup.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }) != lookup.end()) {
    // Cold path: rescan with the historical per-line set so the error
    // names the second occurrence's line, exactly as before.
    rewind(vs, vSource);
    LineScanner sc(vs);
    std::string_view line;
    std::set<std::uint64_t> seen;
    while (sc.next(line)) {
      const Tokens toks = splitLine(line);
      if (isCommentOrBlank(toks)) continue;
      if (!seen.insert(*parseId(toks.tok[0])).second) {
        failAt(vSource, sc.lineNo(),
               "duplicate vertex id " + std::string(toks.tok[0]));
      }
    }
    DISP_CHECK(false, vSource + ": duplicate vertex id vanished on rescan");
  }
  const auto mapId = [&lookup](std::uint64_t id) {
    const auto it = std::lower_bound(
        lookup.begin(), lookup.end(), id,
        [](const std::pair<std::uint64_t, NodeId>& e, std::uint64_t key) {
          return e.first < key;
        });
    return (it != lookup.end() && it->first == id)
               ? std::optional<NodeId>(it->second)
               : std::nullopt;
  };

  // One streamed pass over the .e file straight into mapped pairs.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  {
    LineScanner sc(es);
    std::string_view line;
    while (sc.next(line)) {
      const Tokens toks = splitLine(line);
      if (isCommentOrBlank(toks)) continue;
      if (toks.count != 2 && toks.count != 3) {
        failAt(eSource, sc.lineNo(), "want '<src> <dst> [weight]' per edge line");
      }
      NodeId mapped[2];
      for (int i = 0; i < 2; ++i) {
        const auto id = parseId(toks.tok[static_cast<std::size_t>(i)]);
        const auto at = id ? mapId(*id) : std::nullopt;
        if (!at) {
          failAt(eSource, sc.lineNo(),
                 "unknown vertex id '" +
                     std::string(toks.tok[static_cast<std::size_t>(i)]) +
                     "' (not in " + vSource + ")");
        }
        mapped[i] = *at;
      }
      if (mapped[0] == mapped[1]) {
        failAt(eSource, sc.lineNo(),
               "self-loop at id " + std::string(toks.tok[0]));
      }
      pairs.emplace_back(mapped[0], mapped[1]);
    }
  }
  DISP_REQUIRE(pairs.size() <= 0x7fffffffULL, "too many edges in " + eSource);
  const auto n = static_cast<std::uint32_t>(lookup.size());
  return buildFromMappedPairs(
      n, std::move(pairs), eSource, [&es, &eSource, &mapId] {
        reportDuplicateEdge(es, eSource, [&mapId](const Tokens& toks) {
          const NodeId a = *mapId(*parseId(toks.tok[0]));
          const NodeId b = *mapId(*parseId(toks.tok[1]));
          return std::pair<std::uint64_t, std::uint64_t>(std::min(a, b),
                                                         std::max(a, b));
        });
      });
}

namespace {

void appendNum(std::string& buf, std::uint64_t v) {
  char tmp[20];
  const auto res = std::to_chars(tmp, tmp + sizeof tmp, v);
  buf.append(tmp, res.ptr);
}

void flushIfFull(std::ostream& os, std::string& buf) {
  if (buf.size() >= (1u << 20)) {
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
  }
}

}  // namespace

void writeGraphalytics(const std::string& basePath, const Graph& g) {
  std::string buf;
  buf.reserve(2u << 20);
  {
    std::ofstream os(basePath + ".v", std::ios::binary);
    DISP_REQUIRE(os.good(), "cannot open file for writing: " + basePath + ".v");
    for (NodeId v = 0; v < g.nodeCount(); ++v) {
      appendNum(buf, v);
      buf.push_back('\n');
      flushIfFull(os, buf);
    }
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
    DISP_REQUIRE(os.good(), "write failed: " + basePath + ".v");
  }
  {
    std::ofstream os(basePath + ".e", std::ios::binary);
    DISP_REQUIRE(os.good(), "cannot open file for writing: " + basePath + ".e");
    for (NodeId v = 0; v < g.nodeCount(); ++v) {
      for (const NodeId u : g.neighbors(v)) {
        if (v <= u) {
          appendNum(buf, v);
          buf.push_back(' ');
          appendNum(buf, u);
          buf.push_back('\n');
          flushIfFull(os, buf);
        }
      }
    }
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    DISP_REQUIRE(os.good(), "write failed: " + basePath + ".e");
  }
}

namespace {

std::ifstream openOrFail(const std::string& path) {
  std::ifstream is(path);
  DISP_REQUIRE(is.good(), "cannot open file for reading: " + path);
  return is;
}

}  // namespace

Graph loadGraphalytics(const std::string& path) {
  std::string base = path;
  if (base.size() >= 2 &&
      (base.ends_with(".v") || base.ends_with(".e"))) {
    base.resize(base.size() - 2);
  }
  std::ifstream vs = openOrFail(base + ".v");
  std::ifstream es = openOrFail(base + ".e");
  return readGraphalytics(vs, es, base + ".v", base + ".e");
}

Graph loadAnyGraph(const std::string& path) {
  if (path.ends_with(".v") || path.ends_with(".e")) return loadGraphalytics(path);
  std::ifstream is = openOrFail(path);
  return readEdgeList(is, path);
}

}  // namespace disp
