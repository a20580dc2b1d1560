#pragma once
// Scratch paths for tests that write files.  ctest runs every test as its
// own process, several at once under `ctest -j`, so a fixed name under the
// shared GTest temp dir lets one process read another's half-written file.
// Tagging each name with the process id keeps concurrent tests apart.
#include <gtest/gtest.h>

#include <unistd.h>

#include <string>

namespace disp {

/// TempDir()/<stem>.<pid><ext>: unique to this test process.
inline std::string processTempPath(const std::string& stem, const std::string& ext = "") {
  return ::testing::TempDir() + stem + "." + std::to_string(::getpid()) + ext;
}

}  // namespace disp
