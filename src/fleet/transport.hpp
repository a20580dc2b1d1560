#pragma once
// WorkerTransport — how the coordinator starts and watches worker
// processes, abstracted so shard dispatch is transport-agnostic.
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
#include <memory>
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

class WorkerTransport {
 public:
  virtual ~WorkerTransport() = default;

  /// Human-readable transport description ("local:4").
  [[nodiscard]] virtual std::string describe() const = 0;
  /// Concurrent worker slots this transport offers.
  [[nodiscard]] virtual std::uint32_t slots() const = 0;
  /// Short per-slot label recorded in the manifest ("local:2").
  [[nodiscard]] virtual std::string slotName(std::uint32_t slot) const = 0;

  /// Launches `argv` (argv[0] = binary) on `slot`, redirecting stdout and
  /// stderr to `logPath` (append).  Returns an opaque worker handle.
  /// Throws std::runtime_error on launch failure.
  [[nodiscard]] virtual std::uint64_t spawn(const std::vector<std::string>& argv,
                                            const std::string& logPath,
                                            std::uint32_t slot) = 0;

  /// Non-blocking status check for a handle returned by spawn().
  [[nodiscard]] virtual WorkerStatus poll(std::uint64_t handle) = 0;

  /// Hard-kills the worker (SIGKILL semantics — the crash-failure model);
  /// the exit must still be observed via poll() to release the handle.
  virtual void terminate(std::uint64_t handle) = 0;
};

/// Local process pool: handles are PIDs, poll is waitpid(WNOHANG).
class LocalTransport final : public WorkerTransport {
 public:
  explicit LocalTransport(std::uint32_t slots);
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::uint32_t slots() const override { return slots_; }
  [[nodiscard]] std::string slotName(std::uint32_t slot) const override;
  [[nodiscard]] std::uint64_t spawn(const std::vector<std::string>& argv,
                                    const std::string& logPath,
                                    std::uint32_t slot) override;
  [[nodiscard]] WorkerStatus poll(std::uint64_t handle) override;
  void terminate(std::uint64_t handle) override;

 private:
  std::uint32_t slots_;
};

/// Parses a fleet spec ("local:4") into a transport.
[[nodiscard]] std::unique_ptr<WorkerTransport> makeTransport(const std::string& spec);

}  // namespace disp::fleet
