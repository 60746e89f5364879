#pragma once

#include <gtest/gtest.h>
#include <sys/types.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace qfr {

/// Scratch file path for a test: `name` inside a directory of its own for
/// this process under the gtest temp directory, so two copies of one test
/// binary running at once (a sanitizer tree beside tier-1 ctest, or
/// parallel --gtest_repeat runs) never share a checkpoint, store or report
/// file. The directory is removed when the process that made it exits;
/// forked leader children exiting through static destructors leave it be.
inline std::string scratch_path(const std::string& name) {
  struct Dir {
    pid_t owner = ::getpid();
    std::string path = std::string(::testing::TempDir()) + "qfr_test_" +
                       std::to_string(owner);
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      if (::getpid() == owner) std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path + "/" + name;
}

}  // namespace qfr
