// displint — the repo's determinism & invariant static-analysis gate.
//
// Enforces the byte-identical-facts contract (DESIGN.md §12) over the fact
// paths (src/core/, src/algo/) and the wider src/ tree: no hash-order
// iteration, no wall-clock/entropy sources, no pointer ordering, no side
// effects in DISP_CHECK arguments, no mutable static state — plus the
// TraceEvent ↔ check_trace.sh schema cross-check.  Token-level by design:
// it runs in milliseconds on every build, needs no compiler front end, and
// over-approximates; `// displint: allow(RULE) — justification` records the
// reviewed exceptions in place.
//
// Usage:
//   displint [--root=DIR] [--compdb=FILE] [--assume=fact|exempt|auto] [files…]
//   displint --list-rules
//
// With no explicit files, scans every *.hpp/*.cpp under ROOT/src plus the
// translation units listed in the compilation database (filtered to ROOT).
// Exit status: 0 clean, 1 findings, 2 usage/IO error.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"

namespace fs = std::filesystem;
using displint::FileInput;
using displint::Finding;
using displint::RuleInfo;
using displint::Scope;

namespace {

struct Options {
  std::string root = ".";
  std::string compdb;
  std::string assume = "auto";  // fact | exempt | auto
  bool listRules = false;
  std::vector<std::string> files;
};

int usage(const char* msg) {
  if (msg != nullptr) std::cerr << "displint: " << msg << "\n";
  std::cerr << "usage: displint [--root=DIR] [--compdb=FILE] "
               "[--assume=fact|exempt|auto] [files...]\n"
               "       displint --list-rules\n";
  return 2;
}

bool parseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* prefix) -> std::string {
      return a.substr(std::string(prefix).size());
    };
    if (a == "--list-rules") {
      opt.listRules = true;
    } else if (a.rfind("--root=", 0) == 0) {
      opt.root = value("--root=");
    } else if (a.rfind("--compdb=", 0) == 0) {
      opt.compdb = value("--compdb=");
    } else if (a.rfind("--assume=", 0) == 0) {
      opt.assume = value("--assume=");
      if (opt.assume != "fact" && opt.assume != "exempt" && opt.assume != "auto") {
        return false;
      }
    } else if (a.rfind("--", 0) == 0) {
      return false;
    } else {
      opt.files.push_back(a);
    }
  }
  return true;
}

/// Normalizes `path` to a root-relative, forward-slash form when it lives
/// under `root`; otherwise returns it untouched.
std::string relativeTo(const std::string& root, const std::string& path) {
  std::error_code ec;
  const fs::path canonRoot = fs::weakly_canonical(root, ec);
  const fs::path canonPath = fs::weakly_canonical(path, ec);
  const fs::path rel = canonPath.lexically_relative(canonRoot);
  if (rel.empty() || rel.native().rfind("..", 0) == 0) return path;
  return rel.generic_string();
}

Scope classify(const std::string& relPath, const std::string& assume) {
  if (assume == "fact") return {true, false};
  if (assume == "exempt") return {false, true};
  Scope s;
  s.factPath = relPath.rfind("src/core/", 0) == 0 || relPath.rfind("src/algo/", 0) == 0;
  s.telemetryExempt = relPath.rfind("src/exp/", 0) == 0 ||
                      relPath.rfind("src/util/mem.", 0) == 0 ||
                      relPath.rfind("bench/", 0) == 0;
  return s;
}

/// Minimal compile_commands.json reader: collects the values of every
/// "file" key.  Tolerates any formatting clang/cmake emit; handles the
/// standard JSON string escapes.
std::vector<std::string> compdbFiles(const std::string& path, std::string& err) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    err = "cannot read compilation database: " + path;
    return {};
  }
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  std::vector<std::string> files;
  std::size_t i = 0;
  auto readString = [&](std::size_t start, std::string& out) -> std::size_t {
    std::size_t j = start;
    for (; j < text.size(); ++j) {
      if (text[j] == '\\' && j + 1 < text.size()) {
        const char e = text[j + 1];
        out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
        ++j;
        continue;
      }
      if (text[j] == '"') return j + 1;
      out += text[j];
    }
    return j;
  };
  while ((i = text.find("\"file\"", i)) != std::string::npos) {
    i += 6;
    while (i < text.size() && (text[i] == ' ' || text[i] == ':' || text[i] == '\n')) ++i;
    if (i >= text.size() || text[i] != '"') continue;
    std::string value;
    i = readString(i + 1, value);
    files.push_back(std::move(value));
  }
  return files;
}

bool isSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parseArgs(argc, argv, opt)) return usage("bad argument");
  if (opt.listRules) {
    for (const RuleInfo& r : displint::ruleCatalog()) {
      std::cout << r.id << "  " << r.name << "\n    " << r.summary << "\n";
    }
    return 0;
  }

  // ------------------------------------------------------- file discovery
  std::vector<std::string> paths;  // as given / discovered
  if (!opt.files.empty()) {
    paths = opt.files;
  } else {
    std::error_code ec;
    const fs::path srcDir = fs::path(opt.root) / "src";
    if (fs::is_directory(srcDir, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(srcDir, ec)) {
        if (entry.is_regular_file() && isSourceFile(entry.path())) {
          paths.push_back(entry.path().string());
        }
      }
    }
    if (!opt.compdb.empty()) {
      std::string err;
      std::vector<std::string> tu = compdbFiles(opt.compdb, err);
      if (!err.empty()) {
        std::cerr << "displint: " << err << "\n";
        return 2;
      }
      for (std::string& f : tu) {
        // Only lint sources owned by the tree being scanned (the database
        // also lists third-party TUs, e.g. a vendored gtest).  displint's
        // own implementation is exempt: it quotes the suppression grammar
        // and rule trigger patterns as string/comment literals throughout.
        const std::string rel = relativeTo(opt.root, f);
        if (rel.rfind("tools/displint/", 0) == 0) continue;
        if (rel.rfind("src/", 0) == 0 || rel.rfind("bench/", 0) == 0 ||
            rel.rfind("tools/", 0) == 0) {
          paths.push_back(f);
        }
      }
    }
    if (paths.empty()) {
      std::cerr << "displint: nothing to scan under " << opt.root
                << " (no src/ directory and no --compdb files)\n";
      return 2;
    }
  }

  // Normalize, dedupe, fixed order — output must be deterministic.
  std::vector<std::string> relPaths;
  relPaths.reserve(paths.size());
  for (const std::string& p : paths) relPaths.push_back(relativeTo(opt.root, p));
  std::sort(relPaths.begin(), relPaths.end());
  relPaths.erase(std::unique(relPaths.begin(), relPaths.end()), relPaths.end());

  // ------------------------------------------------------------- analysis
  std::vector<FileInput> inputs;
  std::vector<Finding> findings;
  for (const std::string& rel : relPaths) {
    const fs::path full = fs::path(rel).is_absolute() ? fs::path(rel)
                                                      : fs::path(opt.root) / rel;
    std::ifstream f(full, std::ios::binary);
    if (!f) {
      std::cerr << "displint: cannot read " << full.string() << "\n";
      return 2;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    FileInput in;
    in.path = rel;
    in.scope = classify(rel, opt.assume);
    in.lex = displint::lex(ss.str());
    displint::runFileRules(in, findings);
    inputs.push_back(std::move(in));
  }
  displint::runCrossRules(opt.root, findings);

  std::size_t suppressed = 0;
  for (FileInput& in : inputs) {
    displint::applySuppressions(in, findings);
    for (const displint::Suppression& s : in.lex.suppressions) {
      if (s.used && displint::knownRule(s.rule) && s.rule != "DL000") ++suppressed;
    }
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });

  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
              << "\n";
  }
  std::cout << "displint: " << findings.size() << " finding"
            << (findings.size() == 1 ? "" : "s") << ", " << suppressed
            << " suppressed, " << relPaths.size() << " files scanned\n";
  return findings.empty() ? 0 : 1;
}
