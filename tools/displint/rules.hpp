#pragma once
// displint rule framework (DESIGN.md §12).
//
// A rule is a named check over one lexed file.  Adding a rule means
// appending one entry to the tables in rules.cpp — the driver, suppression
// matching, output formatting and the selftest harness all key off the
// catalog and need no changes.
//
// Scope model: every scanned file carries a Scope describing which rule
// families apply.
//   * fact paths (src/core/, src/algo/)   — DL001/DL003/DL005 enforced
//   * telemetry-exempt (src/exp/, bench/, src/util/mem.*) — DL002 waived
//   * everything scanned                  — DL002 (unless exempt), DL004
// Suppressions (`// displint: allow(RULE) — justification`, lexer.hpp)
// silence a finding on their line (trailing) or the next code line
// (standalone); unused or malformed suppressions are themselves findings
// (DL000), so stale annotations cannot rot in place.

#include <string>
#include <vector>

#include "lexer.hpp"

namespace displint {

struct Scope {
  bool factPath = false;         ///< src/core/ or src/algo/
  bool telemetryExempt = false;  ///< src/exp/, bench/ or src/util/mem.*
};

struct FileInput {
  std::string path;  ///< as reported in findings (root-relative when scanned)
  Scope scope;
  LexedFile lex;
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* id;       ///< "DL001"
  const char* name;     ///< short kebab-case handle
  const char* summary;  ///< one-line catalog entry (--list-rules, DESIGN.md)
};

/// The full rule catalog, DL000 first.  Order is the documentation order.
[[nodiscard]] const std::vector<RuleInfo>& ruleCatalog();

/// True iff `id` names a rule in the catalog (suppression validation).
[[nodiscard]] bool knownRule(const std::string& id);

/// Runs every per-file rule applicable to `in.scope`, appending raw
/// (pre-suppression) findings.
void runFileRules(const FileInput& in, std::vector<Finding>& findings);

/// Applies suppressions in place: removes findings covered by a matching
/// allow() comment (marking it used), then appends DL000 findings for
/// malformed, unknown-rule and unused suppressions.  DL000 itself cannot
/// be suppressed.
void applySuppressions(FileInput& in, std::vector<Finding>& findings);

}  // namespace displint
