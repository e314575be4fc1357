// Quickstart: the paper's running example end to end.
//
// Loads the book.xml tree of Figure 2, registers the Table I views,
// filters with VFILTER for the Example 3.4 query s[f//i][t]/p, selects a
// minimal view set (Algorithm 2 / Example 4.3) and answers the query from
// materialized fragments only (Example 5.1), cross-checking against direct
// evaluation.
//
// Run:  ./quickstart

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "pattern/pattern_writer.h"
#include "xml/xml_parser.h"

namespace {

constexpr const char* kBookXml =
    "<b>"
    "<t/><a/><a/>"
    "<s><t/><f><i/></f><p/></s>"
    "<s><t/><p/>"
    "<s><t/><p/><f><i/></f></s>"
    "</s>"
    "</b>";

}  // namespace

int main() {
  auto parsed = xvr::ParseXml(kBookXml);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  xvr::Engine engine(std::move(parsed).value());
  std::printf("Loaded book.xml: %zu nodes\n", engine.doc().size());

  // Table I views.
  const std::vector<std::string> views = {"//s[t]/p", "//s[.//f]/p", "//s/p",
                                          "//s[p]/f//i"};
  for (size_t i = 0; i < views.size(); ++i) {
    auto pattern = engine.Parse(views[i]);
    if (!pattern.ok()) {
      std::fprintf(stderr, "bad view %s\n", views[i].c_str());
      return 1;
    }
    auto id = engine.AddView(std::move(pattern).value());
    if (!id.ok()) {
      std::fprintf(stderr, "materialization failed for %s: %s\n",
                   views[i].c_str(), id.status().ToString().c_str());
      return 1;
    }
    std::printf("  V%zu = %-16s  -> %zu fragments (%zu bytes)\n", i + 1,
                views[i].c_str(), engine.fragments().GetView(*id)->size(),
                engine.fragments().ViewByteSize(*id));
  }

  // The Example 3.4 query.
  auto query = engine.Parse("//s[f//i][t]/p");
  if (!query.ok()) {
    return 1;
  }
  std::printf("\nQuery Q = //s[f//i][t]/p\n");

  // Step 1: VFILTER.
  const xvr::FilterResult filtered = engine.vfilter().Filter(*query);
  std::printf("VFILTER: %zu states, candidates after filtering:",
              engine.vfilter().num_states());
  for (int32_t id : filtered.candidates) {
    std::printf(" V%d", id + 1);
  }
  std::printf("\n");

  // Step 2: selection (heuristic, Algorithm 2).
  xvr::AnswerStats stats;
  auto selection = engine.SelectViews(
      *query, xvr::AnswerStrategy::kHeuristicFiltered, &stats);
  if (!selection.ok()) {
    std::fprintf(stderr, "selection failed: %s\n",
                 selection.status().ToString().c_str());
    return 1;
  }
  std::printf("Selected %zu view(s):", selection->views.size());
  for (const xvr::SelectedView& v : selection->views) {
    std::printf(" V%d", v.view_id + 1);
  }
  std::printf("  (%d leaf covers computed)\n", stats.covers_computed);

  // Step 3: rewriting from fragments only.
  auto answer =
      engine.AnswerQuery(*query, xvr::AnswerStrategy::kHeuristicFiltered);
  if (!answer.ok()) {
    std::fprintf(stderr, "answering failed: %s\n",
                 answer.status().ToString().c_str());
    return 1;
  }
  // The answer comes out of the fragments themselves — the base document
  // is never touched on the answering path.
  std::printf("\nAnswer (extended Dewey codes):\n");
  for (const xvr::DeweyCode& code : answer->codes) {
    std::printf("  %s\n", code.ToString().c_str());
  }

  // Cross-check against direct evaluation on base data.
  auto direct =
      engine.AnswerQuery(*query, xvr::AnswerStrategy::kBaseNodeIndex);
  const bool match = direct.ok() && direct->codes == answer->codes;
  std::printf("\nCross-check vs base-data evaluation: %s\n",
              match ? "MATCH" : "MISMATCH");
  return match ? 0 : 1;
}
