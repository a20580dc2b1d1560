#include "fleet/transport.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace disp::fleet {

// --------------------------------------------------------------- local

LocalTransport::LocalTransport(std::uint32_t slots) : slots_(slots) {
  if (slots_ < 1 || slots_ > 1024) {
    throw std::invalid_argument("local fleet wants 1..1024 slots, got " +
                                std::to_string(slots_));
  }
}

std::string LocalTransport::describe() const {
  return "local:" + std::to_string(slots_);
}

std::string LocalTransport::slotName(std::uint32_t slot) const {
  return "local:" + std::to_string(slot);
}

std::uint64_t LocalTransport::spawn(const std::vector<std::string>& argv,
                                    const std::string& logPath,
                                    std::uint32_t slot) {
  if (argv.empty()) throw std::runtime_error("spawn with empty argv");
  if (slot >= slots_) throw std::runtime_error("spawn on out-of-range slot");
  // Open the log in the parent so a failure is reported as an exception,
  // not a silent child death.
  const int logFd = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (logFd < 0) {
    throw std::runtime_error("cannot open worker log " + logPath + ": " +
                             std::strerror(errno));
  }
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(logFd);
    throw std::runtime_error(std::string("fork failed: ") + std::strerror(err));
  }
  if (pid == 0) {
    // Child: markdown/diagnostics to the attempt log; facts go to the
    // --jsonl path the coordinator put in argv.
    ::dup2(logFd, STDOUT_FILENO);
    ::dup2(logFd, STDERR_FILENO);
    ::close(logFd);
    ::execvp(cargv[0], cargv.data());
    // exec failed: 127 is the shell convention the supervisor reports as-is.
    ::_exit(127);
  }
  ::close(logFd);
  return static_cast<std::uint64_t>(pid);
}

WorkerStatus LocalTransport::poll(std::uint64_t handle) {
  int status = 0;
  const pid_t pid = static_cast<pid_t>(handle);
  const pid_t r = ::waitpid(pid, &status, WNOHANG);
  WorkerStatus out;
  if (r == 0) return out;  // still running
  if (r < 0) {
    throw std::runtime_error("waitpid(" + std::to_string(pid) + ") failed: " +
                             std::strerror(errno));
  }
  out.running = false;
  if (WIFEXITED(status)) {
    out.exitCode = WEXITSTATUS(status);
    out.signal = 0;
  } else if (WIFSIGNALED(status)) {
    out.exitCode = -1;
    out.signal = WTERMSIG(status);
  }
  return out;
}

void LocalTransport::terminate(std::uint64_t handle) {
  (void)::kill(static_cast<pid_t>(handle), SIGKILL);
}

// -------------------------------------------------------------- factory

std::unique_ptr<WorkerTransport> makeTransport(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string rest =
      colon == std::string::npos ? std::string() : spec.substr(colon + 1);
  if (kind == "local") {
    if (rest.empty() || rest.find_first_not_of("0123456789") != std::string::npos) {
      throw std::invalid_argument("bad fleet spec '" + spec +
                                  "': local wants a worker count (local:4)");
    }
    const unsigned long long p = std::stoull(rest);
    if (p < 1 || p > 1024) {
      throw std::invalid_argument("bad fleet spec '" + spec +
                                  "': worker count must be in [1, 1024]");
    }
    return std::make_unique<LocalTransport>(static_cast<std::uint32_t>(p));
  }
  throw std::invalid_argument("bad fleet spec '" + spec +
                              "': the known transport is local:P");
}

}  // namespace disp::fleet
