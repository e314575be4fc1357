#ifndef XVR_TESTS_TEST_UTIL_H_
#define XVR_TESTS_TEST_UTIL_H_

// Helpers shared by the test files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

// Answers `queries` on `num_threads` std::threads through
// Engine::AnswerQuery, each thread taking the next unanswered query, and
// returns the results in input order. Every thread answers through its own
// ExecutionContext (the engine keeps one per calling thread), so a TSan
// build sees that many concurrent readers of one engine.
inline std::vector<Result<Engine::Answer>> AnswerOnThreads(
    const Engine& engine, std::span<const TreePattern> queries,
    AnswerStrategy strategy, int num_threads,
    const QueryLimits& limits = QueryLimits()) {
  std::vector<Result<Engine::Answer>> results;
  results.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    results.emplace_back(Status::Internal("query not answered"));
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < queries.size();
           i = next.fetch_add(1)) {
        results[i] = engine.AnswerQuery(queries[i], strategy, limits);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return results;
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
