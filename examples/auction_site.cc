// auction_site: the paper's motivating scenario at workload scale.
//
// An auction site caches the results of popular XPath queries as
// materialized views. New queries are answered from the view cache when a
// combination of cached views covers them, and fall back to the base
// database otherwise. The example prints, per query, which strategy ran,
// which views were combined, and the observed speedup over the base-data
// baselines.
//
// Run:  ./auction_site [num_views] [scale]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "workload/workloads.h"

int main(int argc, char** argv) {
  const size_t num_views = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 200;
  const double scale = argc > 2 ? std::strtod(argv[2], nullptr) : 0.5;

  xvr::XmarkOptions doc_options;
  doc_options.scale = scale;
  std::printf("Generating XMark-like document (scale %.2f)...\n", scale);
  xvr::PaperSetup setup = xvr::BuildPaperSetup(doc_options, num_views, 2024);
  xvr::Engine& engine = *setup.engine;
  std::printf("Document: %zu nodes. Materialized %zu views (%s total).\n",
              engine.doc().size(), setup.views_materialized,
              xvr::HumanBytes(engine.fragments().TotalByteSize()).c_str());
  std::printf("VFILTER: %zu states, %zu transitions.\n\n",
              engine.vfilter().num_states(),
              engine.vfilter().num_transitions());

  std::printf("%-4s %-10s %-10s %-10s %-8s %-12s %s\n", "Q", "BN(us)",
              "BF(us)", "HV(us)", "views", "results", "selected");
  for (size_t i = 0; i < setup.queries.size(); ++i) {
    auto bn = engine.AnswerQuery(setup.queries[i],
                                 xvr::AnswerStrategy::kBaseNodeIndex);
    auto bf = engine.AnswerQuery(setup.queries[i],
                                 xvr::AnswerStrategy::kBaseFullIndex);
    auto hv = engine.AnswerQuery(setup.queries[i],
                                 xvr::AnswerStrategy::kHeuristicFiltered);
    if (!bn.ok() || !bf.ok() || !hv.ok()) {
      std::printf("%-4s query failed: %s\n", setup.query_names[i].c_str(),
                  hv.status().ToString().c_str());
      continue;
    }
    xvr::AnswerStats stats;
    auto selection = engine.SelectViews(
        setup.queries[i], xvr::AnswerStrategy::kHeuristicFiltered, &stats);
    std::string selected;
    if (selection.ok()) {
      for (const xvr::SelectedView& v : selection->views) {
        if (!selected.empty()) selected += "+";
        selected += "view" + std::to_string(v.view_id);
      }
    }
    const bool correct = hv->codes == bn->codes && bf->codes == bn->codes;
    std::printf("%-4s %-10.1f %-10.1f %-10.1f %-8zu %-12zu %s%s\n",
                setup.query_names[i].c_str(), bn->stats.total_micros,
                bf->stats.total_micros, hv->stats.total_micros,
                hv->stats.views_selected, hv->codes.size(), selected.c_str(),
                correct ? "" : "  [MISMATCH!]");
    if (!correct) {
      return 1;
    }
  }

  // Ad-hoc query: answered from the views when a view set covers it, on
  // base data otherwise.
  const char* adhoc = "/site/categories/category[name]/description";
  auto odd = engine.Parse(adhoc);
  if (odd.ok()) {
    std::printf("\nAd-hoc query %s:\n", adhoc);
    auto hv = engine.AnswerQuery(*odd, xvr::AnswerStrategy::kHeuristicFiltered);
    if (hv.ok()) {
      std::printf("  answered from %zu view(s): %zu results\n",
                  hv->stats.views_selected, hv->codes.size());
    } else if (hv.status().code() == xvr::StatusCode::kNotAnswerable) {
      std::printf("  no view set covers it; executing on base data...\n");
      auto bf = engine.AnswerQuery(*odd, xvr::AnswerStrategy::kBaseFullIndex);
      if (bf.ok()) {
        std::printf("  base-data answer: %zu results in %.1f us\n",
                    bf->codes.size(), bf->stats.total_micros);
      }
    } else {
      std::printf("  failed: %s\n", hv.status().ToString().c_str());
    }
  }
  return 0;
}
