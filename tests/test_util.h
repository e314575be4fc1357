#ifndef XVR_TESTS_TEST_UTIL_H_
#define XVR_TESTS_TEST_UTIL_H_

// Helpers shared by the test files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace xvr {

// A path under the test temp directory that belongs to the running test
// alone: "<suite>.<test>.<pid>.<leaf>". ctest runs every test case as its
// own process, in parallel, so a fixed file name would let cases overwrite
// each other's files. Call it from inside a test (or its fixture).
inline std::string TestTempPath(const std::string& leaf) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name =
      std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : name) {
    if (c == '/') {
      c = '_';  // parameterized names ("Seeds/Suite.Test/3")
    }
  }
  return ::testing::TempDir() + name + "." + std::to_string(::getpid()) +
         "." + leaf;
}

}  // namespace xvr

#endif  // XVR_TESTS_TEST_UTIL_H_
