#include "algo/registry.hpp"

#include <stdexcept>

#include "algo/async_rooted.hpp"
#include "algo/baseline_ks.hpp"
#include "algo/general_async.hpp"
#include "algo/general_sync.hpp"
#include "algo/sync_rooted.hpp"

namespace disp {

namespace {

template <typename Algo, typename Engine>
class Adapter final : public ProtocolHandle {
 public:
  explicit Adapter(Engine& engine) : algo_(engine) {}
  void start() override { algo_.start(); }
  [[nodiscard]] bool dispersed() const override { return algo_.dispersed(); }

 private:
  Algo algo_;
};

template <typename Algo>
std::unique_ptr<ProtocolHandle> makeSyncAlgo(SyncEngine& engine) {
  return std::make_unique<Adapter<Algo, SyncEngine>>(engine);
}

template <typename Algo>
std::unique_ptr<ProtocolHandle> makeAsyncAlgo(AsyncEngine& engine) {
  return std::make_unique<Adapter<Algo, AsyncEngine>>(engine);
}

// RootedSyncDisp's seeker machinery is vacuous below k = 7; the facade has
// always fallen back to the KS baseline there (DESIGN.md §4.5), so the
// factory is where that policy lives now.
std::unique_ptr<ProtocolHandle> makeRootedSync(SyncEngine& engine) {
  if (engine.agentCount() < 7) return makeSyncAlgo<KsSyncDispersion>(engine);
  return makeSyncAlgo<RootedSyncDispersion>(engine);
}

}  // namespace

std::span<const AlgorithmDef> algorithmRegistry() {
  static const AlgorithmDef kAlgorithms[] = {
      {{"rooted_sync", "RootedSyncDisp", "Theorem 6.1", false, true},
       &makeRootedSync, nullptr},
      {{"rooted_async", "RootedAsyncDisp", "Theorem 7.1", true, true},
       nullptr, &makeAsyncAlgo<RootedAsyncDispersion>},
      {{"general_sync", "GeneralSync(doubling)", "§8.1 / Table 1 row [36]", false,
        false},
       &makeSyncAlgo<GeneralSyncDispersion>, nullptr},
      {{"general_async", "GeneralAsync(Thm8.2)", "Theorem 8.2", true, false},
       nullptr, &makeAsyncAlgo<GeneralAsyncDispersion>},
      {{"ks_sync", "KS-sync", "baseline [24], O(min{m, kΔ})", false, true},
       &makeSyncAlgo<KsSyncDispersion>, nullptr},
      {{"ks_async", "KS-async", "baseline [24], O(min{m, kΔ})", true, true},
       nullptr, &makeAsyncAlgo<KsAsyncDispersion>},
  };
  return kAlgorithms;
}

const AlgorithmDef* findAlgorithm(std::string_view name) {
  for (const AlgorithmDef& def : algorithmRegistry()) {
    if (name == def.traits.key || name == def.traits.display) return &def;
  }
  return nullptr;
}

const AlgorithmDef& algorithmDef(std::string_view name) {
  if (const AlgorithmDef* def = findAlgorithm(name)) return *def;
  std::string known;
  for (const AlgorithmDef& def : algorithmRegistry()) {
    if (!known.empty()) known += ", ";
    known += def.traits.key;
  }
  throw std::invalid_argument("unknown algorithm '" + std::string(name) +
                              "' — known: " + known);
}

std::vector<std::string> algorithmKeys() {
  std::vector<std::string> keys;
  keys.reserve(algorithmRegistry().size());
  for (const AlgorithmDef& def : algorithmRegistry()) keys.push_back(def.traits.key);
  return keys;
}

const std::string& algorithmDisplayName(std::string_view name) {
  return algorithmDef(name).traits.display;
}

}  // namespace disp
