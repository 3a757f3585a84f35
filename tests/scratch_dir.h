// A test case's output directory under testing::TempDir(), named after the
// case and the test process. The directory is removed when the case ends,
// unless the case failed: then it stays so it can be debugged.

#ifndef SQM_TESTS_SCRATCH_DIR_H_
#define SQM_TESTS_SCRATCH_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace sqm {
namespace testing {

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(::testing::TempDir() + "/" + name + "_" +
              std::to_string(::getpid())) {
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    if (::testing::Test::HasFailure()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace testing
}  // namespace sqm

#endif  // SQM_TESTS_SCRATCH_DIR_H_
