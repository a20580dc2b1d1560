#pragma once
// LocalTransport — how the coordinator starts and watches worker
// processes.
//
// Fleet spec grammar (parse errors throw std::invalid_argument):
//
//   local:P            P-slot pool of local disp_bench processes
//                      (fork/exec; stdout+stderr to a per-attempt log)
//
// The fail-stop model is deliberate: a worker either exits (code/signal
// observable via poll) or makes progress observable through its shard's
// JSONL growth; the supervisor never inspects worker internals.

#include <cstdint>
#include <string>
#include <vector>

namespace disp::fleet {

/// One observed worker process.
struct WorkerStatus {
  bool running = true;
  /// Valid when !running: exit code, or -1 if signaled.
  int exitCode = -1;
  /// Valid when !running: terminating signal, or 0 for a clean exit.
  int signal = 0;
};

/// A pool of local worker processes.  Handles are PIDs; poll is
/// waitpid(WNOHANG).
class LocalTransport {
 public:
  explicit LocalTransport(std::uint32_t slots);

  /// Human-readable transport description ("local:4").
  [[nodiscard]] std::string describe() const;
  /// Concurrent worker slots this pool offers.
  [[nodiscard]] std::uint32_t slots() const { return slots_; }
  /// Short per-slot label recorded in the manifest ("local:2").
  [[nodiscard]] std::string slotName(std::uint32_t slot) const;

  /// Launches `argv` (argv[0] = binary) on `slot`, redirecting stdout and
  /// stderr to `logPath` (append).  Returns an opaque worker handle.
  /// Throws std::runtime_error on launch failure.
  [[nodiscard]] std::uint64_t spawn(const std::vector<std::string>& argv,
                                    const std::string& logPath, std::uint32_t slot);

  /// Non-blocking status check for a handle returned by spawn().
  [[nodiscard]] WorkerStatus poll(std::uint64_t handle);

  /// Hard-kills the worker (SIGKILL semantics — the crash-failure model);
  /// the exit must still be observed via poll() to release the handle.
  void terminate(std::uint64_t handle);

 private:
  std::uint32_t slots_;
};

/// Parses a fleet spec ("local:4") into a worker pool.
[[nodiscard]] LocalTransport makeTransport(const std::string& spec);

}  // namespace disp::fleet
