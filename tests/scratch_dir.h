// Unique scratch directory for tests that write durable state (WAL,
// checkpoints); removed recursively on destruction.
#ifndef RFID_TESTS_SCRATCH_DIR_H_
#define RFID_TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace rfid {

class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = ::testing::TempDir() + "rfid_durability_XXXXXX";
    char* got = mkdtemp(tmpl.data());
    EXPECT_NE(got, nullptr);
    path_ = got != nullptr ? got : tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

}  // namespace rfid

#endif  // RFID_TESTS_SCRATCH_DIR_H_
