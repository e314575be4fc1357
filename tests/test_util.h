#ifndef XVR_TESTS_TEST_UTIL_H_
#define XVR_TESTS_TEST_UTIL_H_

// Helpers shared by the test files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <utility>

#include "core/engine.h"
#include "pattern/tree_pattern.h"
#include "xml/xml_parser.h"

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

// An engine whose exact minimum selection always degrades: the document
// <a><b1/>...<b20/><c/></a> with the 20 views /a[b<i>]/c, and in `query`
// /a[b1]...[b20]/c, whose 20 predicate leaves plus the answer overflow the
// set-cover DP's 20-bit universe. MN and MV fall back to the greedy
// heuristic, which answers it with all 20 views.
inline std::unique_ptr<Engine> NewOversizedLeafEngine(TreePattern* query) {
  std::string xml = "<a>";
  std::string xpath = "/a";
  for (int i = 1; i <= 20; ++i) {
    xml += "<b" + std::to_string(i) + "/>";
    xpath += "[b" + std::to_string(i) + "]";
  }
  xml += "<c/></a>";
  xpath += "/c";
  auto doc = ParseXml(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  auto engine = std::make_unique<Engine>(std::move(doc).value());
  for (int i = 1; i <= 20; ++i) {
    auto view = engine->Parse("/a[b" + std::to_string(i) + "]/c");
    EXPECT_TRUE(view.ok()) << view.status();
    EXPECT_TRUE(engine->AddView(std::move(view).value()).ok()) << i;
  }
  auto parsed = engine->Parse(xpath);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  *query = std::move(parsed).value();
  return engine;
}

}  // namespace xvr

#endif  // XVR_TESTS_TEST_UTIL_H_
