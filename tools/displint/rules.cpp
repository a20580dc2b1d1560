#include "rules.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <utility>

namespace displint {

namespace {

constexpr std::size_t npos = static_cast<std::size_t>(-1);

// ---------------------------------------------------------------- helpers

/// Bounds-safe view over a token stream.
struct Toks {
  const std::vector<Token>& t;

  [[nodiscard]] std::size_t size() const { return t.size(); }
  [[nodiscard]] bool has(std::size_t i) const { return i < t.size(); }
  [[nodiscard]] TokKind kind(std::size_t i) const {
    return has(i) ? t[i].kind : TokKind::Punct;
  }
  [[nodiscard]] const std::string& text(std::size_t i) const {
    static const std::string empty;
    return has(i) ? t[i].text : empty;
  }
  [[nodiscard]] int line(std::size_t i) const { return has(i) ? t[i].line : 0; }
  [[nodiscard]] bool ident(std::size_t i, const char* s) const {
    return has(i) && t[i].kind == TokKind::Identifier && t[i].text == s;
  }
  [[nodiscard]] bool isIdent(std::size_t i) const {
    return has(i) && t[i].kind == TokKind::Identifier;
  }
  [[nodiscard]] bool punct(std::size_t i, const char* s) const {
    return has(i) && t[i].kind == TokKind::Punct && t[i].text == s;
  }
  [[nodiscard]] bool isPunct(std::size_t i) const {
    return has(i) && t[i].kind == TokKind::Punct;
  }
};

void report(const FileInput& in, std::vector<Finding>& out, int line,
            const char* rule, std::string message) {
  out.push_back({in.path, line, rule, std::move(message)});
}

/// `i` points at a '<'.  Returns the index one past the matching close, or
/// npos when the '<' is a comparison (no close before ';', '{' or EOF).
/// '>>' closes two levels; parenthesized subexpressions are skipped whole.
std::size_t skipAngles(const Toks& ts, std::size_t i) {
  int depth = 0;
  int parens = 0;
  const std::size_t limit = std::min(ts.size(), i + 400);
  for (std::size_t j = i; j < limit; ++j) {
    if (ts.punct(j, "(") || ts.punct(j, "[")) {
      ++parens;
      continue;
    }
    if (ts.punct(j, ")") || ts.punct(j, "]")) {
      if (parens > 0) --parens;
      continue;
    }
    if (parens > 0) continue;
    if (ts.punct(j, "<")) {
      ++depth;
    } else if (ts.punct(j, ">")) {
      if (--depth == 0) return j + 1;
    } else if (ts.punct(j, ">>")) {
      depth -= 2;
      if (depth <= 0) return j + 1;
    } else if (ts.punct(j, ";") || ts.punct(j, "{")) {
      return npos;
    }
  }
  return npos;
}

/// `open` points at a '('.  Returns the index of the matching ')', or npos.
std::size_t matchParen(const Toks& ts, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < ts.size(); ++j) {
    if (ts.punct(j, "(")) ++depth;
    else if (ts.punct(j, ")") && --depth == 0) return j;
  }
  return npos;
}

[[nodiscard]] bool isUnorderedName(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

[[nodiscard]] bool isAssocName(const std::string& s) {
  return s == "map" || s == "set" || s == "multimap" || s == "multiset" ||
         s == "flat_map" || s == "flat_set" || isUnorderedName(s);
}

// ------------------------------------------------- DL001 unordered-iteration

// Fact paths only.  Three finding shapes:
//  * `#include <unordered_map>` — the intent marker, suppressible,
//  * any unordered_* type occurrence — the declaration site, suppressible
//    with a keyed-lookup-only justification,
//  * iteration constructs (range-for, begin()/end()) over a variable whose
//    declaration statement mentions an unordered container — the actual
//    determinism hazard.
void ruleUnorderedIteration(const FileInput& in, std::vector<Finding>& out) {
  if (!in.scope.factPath) return;
  const Toks ts{in.lex.tokens};

  std::set<std::string> unorderedVars;
  // Variable capture: any statement that mentions an unordered container and
  // declares a name (identifier right before ';', '=' or '{') taints that
  // name.  Over-approximate on purpose: iterating anything hash-adjacent in
  // a fact path deserves a human look (and a suppression if legitimate).
  std::size_t stmtStart = 0;
  bool stmtHasUnordered = false;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.kind(i) == TokKind::Preprocessor) {
      stmtStart = i + 1;
      stmtHasUnordered = false;
      continue;
    }
    if (ts.isIdent(i) && isUnorderedName(ts.text(i))) stmtHasUnordered = true;
    if (ts.punct(i, ";") || ts.punct(i, "{") || ts.punct(i, "}")) {
      if (stmtHasUnordered) {
        // declared name: last identifier of the statement head
        for (std::size_t j = i; j > stmtStart; --j) {
          if (ts.isIdent(j - 1) && !isUnorderedName(ts.text(j - 1))) {
            unorderedVars.insert(ts.text(j - 1));
            break;
          }
        }
      }
      stmtStart = i + 1;
      stmtHasUnordered = false;
    }
  }

  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.kind(i) == TokKind::Preprocessor) {
      const std::string& p = ts.text(i);
      if (p.find("<unordered_map>") != std::string::npos ||
          p.find("<unordered_set>") != std::string::npos) {
        report(in, out, ts.line(i), "DL001",
               "include of an unordered container in a fact path — hash "
               "iteration order must never reach facts; keyed-lookup-only use "
               "needs a displint allow");
      }
      continue;
    }
    if (ts.isIdent(i) && isUnorderedName(ts.text(i))) {
      report(in, out, ts.line(i), "DL001",
             "std::" + ts.text(i) +
                 " in a fact path — keyed lookups only; justify with "
                 "// displint: allow(DL001) — ...");
    }
    // range-for over a tainted variable (or a fresh unordered temporary)
    if (ts.ident(i, "for") && ts.punct(i + 1, "(")) {
      const std::size_t close = matchParen(ts, i + 1);
      if (close == npos) continue;
      std::size_t colon = npos;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (ts.punct(j, "(")) ++depth;
        else if (ts.punct(j, ")")) --depth;
        else if (depth == 1 && ts.punct(j, ":") && !ts.punct(j - 1, ":") &&
                 !ts.punct(j + 1, ":")) {
          colon = j;
          break;
        }
      }
      if (colon == npos) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (ts.isIdent(j) && (unorderedVars.count(ts.text(j)) != 0 ||
                              isUnorderedName(ts.text(j)))) {
          report(in, out, ts.line(i), "DL001",
                 "range-for over unordered container '" + ts.text(j) +
                     "' in a fact path — hash order would reach facts");
          break;
        }
      }
    }
    // Explicit begin() iteration on a tainted variable.  end()-family calls
    // alone are the `find() != end()` keyed-lookup idiom and stay legal —
    // iteration always needs a begin (or a range-for, handled above).
    static const std::array<const char*, 4> iters = {"begin", "cbegin", "rbegin",
                                                     "crbegin"};
    if (ts.isIdent(i) && ts.punct(i + 1, "(") &&
        std::any_of(iters.begin(), iters.end(),
                    [&](const char* s) { return ts.text(i) == s; }) &&
        (ts.punct(i - 1, ".") || ts.punct(i - 1, "->"))) {
      // receiver: ident, or ident[...] — walk back over one bracket group
      std::size_t r = i - 1;  // at '.' / '->'
      if (r > 0 && ts.punct(r - 1, "]")) {
        int depth = 0;
        while (r > 0) {
          --r;
          if (ts.punct(r, "]")) ++depth;
          else if (ts.punct(r, "[") && --depth == 0) break;
        }
      }
      if (r > 0 && ts.isIdent(r - 1) && unorderedVars.count(ts.text(r - 1)) != 0) {
        report(in, out, ts.line(i), "DL001",
               "iteration (" + ts.text(i) + "()) over unordered container '" +
                   ts.text(r - 1) + "' in a fact path");
      }
    }
  }
}

// ------------------------------------------------- DL002 wallclock-entropy

// Everywhere scanned except the telemetry-exempt paths.
void ruleWallclockEntropy(const FileInput& in, std::vector<Finding>& out) {
  if (in.scope.telemetryExempt) return;
  const Toks ts{in.lex.tokens};

  static const std::array<const char*, 11> kAlways = {
      "random_device", "rand_r",       "drand48",  "getentropy",
      "gettimeofday",  "clock_gettime", "localtime", "gmtime",
      "mktime",        "srand",        "srandom"};
  auto flag = [&](std::size_t i) {
    report(in, out, ts.line(i), "DL002",
           "nondeterministic wall-clock/entropy source '" + ts.text(i) +
               "' — facts must be reproducible from the seed (telemetry "
               "belongs in src/exp/, bench/ or util/mem)");
  };

  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (!ts.isIdent(i)) continue;
    const std::string& s = ts.text(i);
    if (std::any_of(kAlways.begin(), kAlways.end(),
                    [&](const char* a) { return s == a; })) {
      flag(i);
      continue;
    }
    // clock_type::now()
    if (s == "now" && i >= 2 && ts.punct(i - 1, "::") && ts.isIdent(i - 2) &&
        ts.text(i - 2).size() > 6 &&
        ts.text(i - 2).compare(ts.text(i - 2).size() - 6, 6, "_clock") == 0) {
      flag(i);
      continue;
    }
    // rand(...) / random(...) / time(...) / clock(...) in call position:
    // member accesses and declarations (preceding identifier) are excluded.
    if ((s == "rand" || s == "random" || s == "time" || s == "clock") &&
        ts.punct(i + 1, "(")) {
      const bool member = ts.punct(i - 1, ".") || ts.punct(i - 1, "->");
      const bool declOrQualified =
          ts.isIdent(i - 1) ||
          (ts.punct(i - 1, "::") && !(i >= 2 && ts.ident(i - 2, "std")));
      if (!member && !declOrQualified) flag(i);
    }
  }
}

// ---------------------------------------------------- DL003 pointer-order

// Fact paths only: facts derived from addresses differ run to run (ASLR,
// allocation order), so pointers may never be sorted, compared, hashed or
// used as container keys.
void rulePointerOrder(const FileInput& in, std::vector<Finding>& out) {
  if (!in.scope.factPath) return;
  const Toks ts{in.lex.tokens};

  // last token of the first template argument of the group opening at `lt`
  auto firstArgEndsInStar = [&](std::size_t lt) -> bool {
    int depth = 0;
    int parens = 0;
    std::size_t last = npos;
    const std::size_t limit = std::min(ts.size(), lt + 400);
    for (std::size_t j = lt; j < limit; ++j) {
      if (ts.punct(j, "(") || ts.punct(j, "[")) ++parens;
      else if (ts.punct(j, ")") || ts.punct(j, "]")) {
        if (parens > 0) --parens;
      }
      if (parens > 0) continue;
      if (ts.punct(j, "<")) {
        ++depth;
        continue;
      }
      if (ts.punct(j, ">") || ts.punct(j, ">>")) {
        depth -= ts.punct(j, ">>") ? 2 : 1;
        if (depth <= 0) break;  // single-argument group ended
        continue;
      }
      if (ts.punct(j, ";") || ts.punct(j, "{")) return false;  // not a template
      if (depth == 1 && ts.punct(j, ",")) break;
      if (depth >= 1) last = j;
    }
    return last != npos && ts.punct(last, "*");
  };

  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.isIdent(i) && ts.punct(i + 1, "<") &&
        (isAssocName(ts.text(i)) || ts.text(i) == "less" ||
         ts.text(i) == "greater" || ts.text(i) == "hash") &&
        firstArgEndsInStar(i + 1)) {
      const bool assoc = isAssocName(ts.text(i));
      report(in, out, ts.line(i), "DL003",
             assoc ? "std::" + ts.text(i) +
                         " keyed on a pointer — address order/hash is "
                         "nondeterministic and must not reach facts"
                   : "std::" + ts.text(i) +
                         "<T*> orders/hashes addresses — nondeterministic");
      continue;
    }
    if (ts.ident(i, "reinterpret_cast") && ts.punct(i + 1, "<")) {
      const std::size_t close = skipAngles(ts, i + 1);
      if (close != npos) {
        for (std::size_t j = i + 2; j + 1 < close; ++j) {
          if (ts.ident(j, "uintptr_t") || ts.ident(j, "intptr_t")) {
            report(in, out, ts.line(i), "DL003",
                   "pointer-to-integer cast in a fact path — address-derived "
                   "values are nondeterministic");
            break;
          }
        }
      }
      continue;
    }
    // &a < &b — direct address comparison
    if (ts.isPunct(i) && (ts.text(i) == "<" || ts.text(i) == ">" ||
                          ts.text(i) == "<=" || ts.text(i) == ">=")) {
      // `&` is address-of (not bitwise-and) when what precedes it cannot end
      // an expression; `return`/`case` are keywords, not value identifiers.
      const bool lhs =
          i >= 2 && ts.isIdent(i - 1) && ts.punct(i - 2, "&") &&
          !(i >= 3 &&
            ((ts.isIdent(i - 3) && !ts.ident(i - 3, "return") &&
              !ts.ident(i - 3, "case")) ||
             ts.punct(i - 3, ")") || ts.punct(i - 3, "]")));
      const bool rhs = ts.punct(i + 1, "&") && ts.isIdent(i + 2);
      if (lhs && rhs) {
        report(in, out, ts.line(i), "DL003",
               "relational comparison of addresses (&x " + ts.text(i) +
                   " &y) — allocation order is nondeterministic");
      }
    }
  }
}

// ------------------------------------------------ DL004 check-side-effect

// All scanned files.  DISP_DCHECK compiles out under NDEBUG, so a side
// effect there makes Debug and Release facts diverge outright; DISP_CHECK /
// DISP_REQUIRE stay on but an assertion that mutates state hides a fact
// transition inside error handling.  Mutation is detected heuristically:
// ++/--, assignment operators, and calls to well-known mutating members.
void ruleCheckSideEffect(const FileInput& in, std::vector<Finding>& out) {
  const Toks ts{in.lex.tokens};
  static const std::array<const char*, 23> kMutators = {
      "push_back", "pop_back",  "push_front", "pop_front", "insert",
      "erase",     "clear",     "emplace",    "emplace_back",
      "emplace_front", "reset", "release",    "resize",    "reserve",
      "shrink_to_fit", "swap",  "assign",     "splice",    "merge",
      "sort",      "remove",    "unique",     "advance"};

  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (!ts.isIdent(i)) continue;
    const std::string& macro = ts.text(i);
    if (macro != "DISP_CHECK" && macro != "DISP_REQUIRE" && macro != "DISP_DCHECK") {
      continue;
    }
    if (!ts.punct(i + 1, "(")) continue;
    const std::size_t close = matchParen(ts, i + 1);
    if (close == npos) continue;
    const char* why =
        macro == "DISP_DCHECK"
            ? " — DISP_DCHECK compiles out under NDEBUG, so Debug and Release "
              "facts diverge"
            : " — assertions must be observation-only";
    auto flag = [&](std::size_t j, const std::string& what) {
      report(in, out, ts.line(j), "DL004",
             what + " inside a " + macro + " argument" + why);
    };
    for (std::size_t j = i + 2; j < close; ++j) {
      if (!ts.isPunct(j)) {
        if (ts.isIdent(j) && ts.punct(j + 1, "(") &&
            (ts.punct(j - 1, ".") || ts.punct(j - 1, "->")) &&
            std::any_of(kMutators.begin(), kMutators.end(),
                        [&](const char* m) { return ts.text(j) == m; })) {
          flag(j, "mutating call '" + ts.text(j) + "()'");
        }
        continue;
      }
      const std::string& p = ts.text(j);
      if (p == "++" || p == "--") {
        flag(j, "'" + p + "'");
        continue;
      }
      static const std::array<const char*, 11> kAssign = {
          "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
      if (std::any_of(kAssign.begin(), kAssign.end(),
                      [&](const char* a) { return p == a; })) {
        if (p == "=" && ts.punct(j - 1, "[") && ts.punct(j + 1, "]")) {
          continue;  // [=] lambda capture
        }
        flag(j, "assignment '" + p + "'");
      }
    }
    i = close;
  }
}

// -------------------------------------------------- DL005 mutable-static

// Fact paths only: mutable statics and globals make facts depend on process
// history (and are shared across the BatchRunner's threads).  thread_local,
// const, constexpr and constinit declarations pass; everything else needs a
// justification.
void ruleMutableStatic(const FileInput& in, std::vector<Finding>& out) {
  if (!in.scope.factPath) return;
  const Toks ts{in.lex.tokens};

  enum class SK { Namespace, Class, Enum, Function, Other };
  std::vector<SK> stack;
  auto current = [&] { return stack.empty() ? SK::Namespace : stack.back(); };

  auto headContains = [&](std::size_t from, std::size_t to, const char* word) {
    for (std::size_t j = from; j < to; ++j) {
      if (ts.ident(j, word)) return true;
    }
    return false;
  };
  auto headContainsPunct = [&](std::size_t from, std::size_t to, const char* p) {
    for (std::size_t j = from; j < to; ++j) {
      if (ts.punct(j, p)) return true;
    }
    return false;
  };

  std::size_t stmtStart = 0;
  int parens = 0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts.kind(i) == TokKind::Preprocessor) {
      stmtStart = i + 1;
      continue;
    }
    if (ts.punct(i, "(")) {
      ++parens;
      continue;
    }
    if (ts.punct(i, ")")) {
      if (parens > 0) --parens;
      continue;
    }
    if (parens > 0) continue;

    if (ts.punct(i, "{")) {
      SK kind;
      if (headContains(stmtStart, i, "namespace") || headContains(stmtStart, i, "extern")) {
        kind = SK::Namespace;
      } else if (headContains(stmtStart, i, "enum")) {
        kind = SK::Enum;
      } else if (headContainsPunct(stmtStart, i, "(")) {
        kind = SK::Function;  // function/lambda body, or a control block
      } else if (headContains(stmtStart, i, "class") ||
                 headContains(stmtStart, i, "struct") ||
                 headContains(stmtStart, i, "union")) {
        kind = SK::Class;
      } else if (stmtStart == i) {
        kind = current() == SK::Function ? SK::Function : SK::Other;
      } else {
        kind = current();  // brace initializer / try / do / else …
      }
      stack.push_back(kind);
      stmtStart = i + 1;
      continue;
    }
    if (ts.punct(i, "}")) {
      if (!stack.empty()) stack.pop_back();
      stmtStart = i + 1;
      continue;
    }

    // `static` declarations at any scope.
    if (ts.ident(i, "static") && current() != SK::Enum) {
      bool allowed = false;
      bool isFunctionDecl = false;
      std::size_t j = i + 1;
      const std::size_t limit = std::min(ts.size(), i + 200);
      while (j < limit) {
        if (ts.ident(j, "const") || ts.ident(j, "constexpr") ||
            ts.ident(j, "constinit") || ts.ident(j, "thread_local")) {
          allowed = true;
        }
        if (ts.punct(j, "<")) {
          const std::size_t past = skipAngles(ts, j);
          if (past != npos) {
            j = past;
            continue;
          }
        }
        if (ts.punct(j, "(")) {
          isFunctionDecl = true;  // member/free function, not a variable
          break;
        }
        if (ts.punct(j, ";") || ts.punct(j, "=") || ts.punct(j, "{")) break;
        ++j;
      }
      if (!allowed && !isFunctionDecl && j < limit) {
        const char* where = current() == SK::Function
                                ? "function-local static mutable state"
                            : current() == SK::Class
                                ? "mutable static data member"
                                : "file-scope mutable static";
        report(in, out, ts.line(i), "DL005",
               std::string(where) +
                   " in a fact path — facts must not depend on process-wide "
                   "mutable state (const/constexpr/thread_local pass)");
      }
      continue;
    }

    // Namespace-scope mutable globals declared without `static`.
    if (ts.punct(i, ";") && current() == SK::Namespace) {
      const std::size_t from = stmtStart;
      stmtStart = i + 1;
      if (from >= i) continue;
      static const std::array<const char*, 15> kSkipWords = {
          "using",  "typedef",   "extern",        "friend",   "template",
          "static", "constexpr", "constinit",     "const",    "thread_local",
          "namespace", "class",  "struct",        "union",    "static_assert"};
      bool skip = false;
      for (const char* w : kSkipWords) {
        if (headContains(from, i, w)) {
          skip = true;
          break;
        }
      }
      if (skip || headContains(from, i, "enum") || headContains(from, i, "operator")) {
        continue;
      }
      // A '(' before any '=' means a function declaration, not a variable.
      std::size_t eq = npos;
      bool parenBeforeEq = false;
      for (std::size_t j = from; j < i; ++j) {
        if (ts.punct(j, "=")) {
          eq = j;
          break;
        }
        if (ts.punct(j, "(")) {
          parenBeforeEq = true;
          break;
        }
        if (ts.punct(j, "<")) {  // skip template argument lists
          const std::size_t past = skipAngles(ts, j);
          if (past != npos && past <= i) j = past - 1;
        }
      }
      if (parenBeforeEq) continue;
      // Anchor: the declared name (identifier before '=' / the ';').
      const std::size_t endTok = eq == npos ? i : eq;
      if (endTok <= from + 1) continue;  // need at least "Type name"
      if (!ts.isIdent(endTok - 1)) continue;
      report(in, out, ts.line(endTok - 1), "DL005",
             "namespace-scope mutable global '" + ts.text(endTok - 1) +
                 "' in a fact path — facts must not depend on process-wide "
                 "mutable state");
    }
  }
}

// ----------------------------------------------- DL007 co-await-condition

// All scanned files.  gcc 12.2 miscompiles a co_await in a loop condition:
// with `while (!co_await engine.park(a))` a woken fiber never left the
// loop.  Await in the body and test a local instead:
// `for (bool woken = false; !woken;) woken = co_await engine.park(a);`.
// The parenthesized header of every while or for is checked, which covers
// the condition of a do ... while as well.
void ruleCoAwaitCondition(const FileInput& in, std::vector<Finding>& out) {
  const Toks ts{in.lex.tokens};
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (!ts.ident(i, "while") && !ts.ident(i, "for")) continue;
    if (!ts.punct(i + 1, "(")) continue;
    const std::size_t close = matchParen(ts, i + 1);
    if (close == npos) continue;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (ts.ident(j, "co_await")) {
        report(in, out, ts.line(j), "DL007",
               "co_await in a '" + ts.text(i) +
                   "' loop header — gcc 12 miscompiles it; await in the loop "
                   "body and test a local");
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------- catalog

const std::vector<RuleInfo>& ruleCatalog() {
  static const std::vector<RuleInfo> catalog = {
      {"DL000", "suppression-hygiene",
       "malformed, unknown-rule or unused displint suppression comments"},
      {"DL001", "unordered-iteration",
       "unordered containers in fact paths: declarations need a keyed-lookup-only "
       "justification; iteration is forbidden"},
      {"DL002", "wallclock-entropy",
       "rand()/std::random_device/<clock>::now()/time() outside the telemetry-"
       "exempt paths (src/exp/, bench/, util/mem)"},
      {"DL003", "pointer-order",
       "sorting, comparing, hashing or keying on pointer values — address order "
       "is nondeterministic"},
      {"DL004", "check-side-effect",
       "side effects inside DISP_CHECK/DISP_REQUIRE/DISP_DCHECK arguments"},
      {"DL005", "mutable-static",
       "mutable global or static state in fact paths (const/constexpr/"
       "thread_local pass)"},
      {"DL007", "co-await-condition",
       "co_await inside a while/for header or a do-while condition — gcc 12 "
       "miscompiles it"},
  };
  return catalog;
}

bool knownRule(const std::string& id) {
  const std::vector<RuleInfo>& cat = ruleCatalog();
  return std::any_of(cat.begin(), cat.end(),
                     [&](const RuleInfo& r) { return id == r.id; });
}

void runFileRules(const FileInput& in, std::vector<Finding>& findings) {
  ruleUnorderedIteration(in, findings);
  ruleWallclockEntropy(in, findings);
  rulePointerOrder(in, findings);
  ruleCheckSideEffect(in, findings);
  ruleMutableStatic(in, findings);
  ruleCoAwaitCondition(in, findings);
}

void applySuppressions(FileInput& in, std::vector<Finding>& findings) {
  std::vector<Finding> meta;
  for (const SuppressionError& e : in.lex.suppressionErrors) {
    meta.push_back({in.path, e.line, "DL000", e.message});
  }
  for (Suppression& s : in.lex.suppressions) {
    if (!knownRule(s.rule)) {
      meta.push_back({in.path, s.line, "DL000",
                      "allow(" + s.rule + ") names an unknown rule (see --list-rules)"});
      s.used = true;  // don't double-report as unused
      continue;
    }
    if (s.rule == "DL000") {
      meta.push_back(
          {in.path, s.line, "DL000", "DL000 (suppression hygiene) cannot be suppressed"});
      s.used = true;
      continue;
    }
  }
  findings.erase(
      std::remove_if(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       if (f.file != in.path || f.rule == "DL000") return false;
                       for (Suppression& s : in.lex.suppressions) {
                         if (s.rule == f.rule && s.coversLine == f.line) {
                           s.used = true;
                           return true;
                         }
                       }
                       return false;
                     }),
      findings.end());
  for (const Suppression& s : in.lex.suppressions) {
    if (!s.used) {
      meta.push_back({in.path, s.line, "DL000",
                      "unused suppression allow(" + s.rule +
                          ") — delete it or move it to the flagged line"});
    }
  }
  findings.insert(findings.end(), meta.begin(), meta.end());
}

}  // namespace displint
