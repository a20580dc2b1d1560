#pragma once
// String-keyed algorithm registry: one constant table of the dispersion
// protocols.
//
// Every algorithm has a row under a stable snake_case key ("rooted_sync",
// "general_async", ...) with its traits (model, placement requirements,
// paper reference) and a factory that instantiates the protocol on an
// engine.  The run session (runner.hpp), the experiment driver (exp/sweep),
// `disp_bench`, examples and tests all resolve algorithms here by name —
// adding an algorithm (e.g. the Theorem 8.1 SYNC-general oscillation
// machinery) means one more row in registry.cpp's table, not edits to five
// parallel switch statements.  The table is constant: nothing registers at
// run time, so no run can depend on what an earlier one added.
//
// Lookup accepts either the canonical key or the display name (the string
// historically printed in Table 1 rows, e.g. "RootedSyncDisp"), so output
// produced by older runs round-trips back into the API.

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/async_engine.hpp"
#include "core/sync_engine.hpp"

namespace disp {

/// Static facts about an algorithm.
struct AlgorithmTraits {
  std::string key;      ///< canonical registry key (snake_case)
  std::string display;  ///< table/display name (historical algorithmName)
  std::string paperRef;  ///< theorem/section the implementation maps to
  bool isAsync = false;
  /// Requires a rooted initial configuration (all agents on one node).
  bool requiresRooted = false;
};

/// Type-erased protocol handle: the registry factories wrap each concrete
/// protocol class (which owns per-agent state and installs its fibers on
/// the engine) behind this minimal run-session interface.
class ProtocolHandle {
 public:
  virtual ~ProtocolHandle() = default;
  /// Installs the protocol's fibers/hooks; call engine.run() afterwards.
  virtual void start() = 0;
  /// Protocol-level termination predicate, valid after engine.run().
  [[nodiscard]] virtual bool dispersed() const = 0;
};

/// One registry entry.  Exactly one of makeSync/makeAsync is non-null,
/// matching traits.isAsync.
struct AlgorithmDef {
  AlgorithmTraits traits;
  std::unique_ptr<ProtocolHandle> (*makeSync)(SyncEngine&) = nullptr;
  std::unique_ptr<ProtocolHandle> (*makeAsync)(AsyncEngine&) = nullptr;
};

/// Every algorithm, in table order.  Entries live for the whole process
/// (runSession and the display-name accessors hold them across runs).
[[nodiscard]] std::span<const AlgorithmDef> algorithmRegistry();

/// Lookup by canonical key or display name; nullptr when unknown.
[[nodiscard]] const AlgorithmDef* findAlgorithm(std::string_view name);

/// Lookup that throws std::invalid_argument naming the unknown algorithm
/// and listing the known keys.
[[nodiscard]] const AlgorithmDef& algorithmDef(std::string_view name);

/// Canonical keys in table order (CLI help, test enumeration).
[[nodiscard]] std::vector<std::string> algorithmKeys();

/// Display name for a registry key ("rooted_sync" -> "RootedSyncDisp");
/// throws on unknown names.  This is the string Table 1 rows print.
[[nodiscard]] const std::string& algorithmDisplayName(std::string_view name);

}  // namespace disp
