// xvr_certify — randomized sweep driver for the static plan certifier
// (analysis/certify.h).
//
// Sweeps randomized catalogs × queries: per round it generates an
// adversarial random document, materializes a random view catalog over it,
// plans a batch of random queries under every view strategy and certifies
// each successful plan — no execution, no document access at
// certification time. The invariant under test: the planner never emits a
// plan the certifier rejects. Inconclusive verdicts are allowed (recorded
// coNP escalations that could not run), rejections are bugs.
//
// On a rejection the driver minimizes the counterexample by greedily
// dropping catalog views while the rejection persists, and dumps a
// reproducible fixture (document generator knobs, view XPaths, query XPath,
// strategy, certificate summary) into --fixtures-dir. Exit status is
// nonzero iff any plan was rejected.
//
//   xvr_certify [--quick] [--rounds N] [--views K] [--queries M]
//               [--seed S] [--fixtures-dir DIR]
//
// --quick (or XVR_CERTIFY_QUICK=1) shrinks the sweep for per-commit CI.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/certify.h"
#include "common/random.h"
#include "core/engine.h"
#include "pattern/pattern_writer.h"
#include "workload/query_gen.h"
#include "workload/random_doc.h"

namespace xvr {
namespace {

struct SweepOptions {
  int rounds = 12;
  int views = 10;
  int queries = 24;
  uint64_t seed = 7;
  std::string fixtures_dir = "certify-fixtures";
};

struct SweepTally {
  uint64_t plans = 0;
  uint64_t certified = 0;
  uint64_t inconclusive = 0;
  uint64_t rejected = 0;
  uint64_t escalations = 0;
  uint64_t non_minimal = 0;
  uint64_t degraded = 0;
  uint64_t unplannable = 0;
};

constexpr AnswerStrategy kViewStrategies[] = {
    AnswerStrategy::kMinimumNoFilter,
    AnswerStrategy::kMinimumFiltered,
    AnswerStrategy::kHeuristicFiltered,
};

RandomDocOptions DocOptionsForRound(const SweepOptions& sweep, int round) {
  RandomDocOptions doc;
  doc.seed = sweep.seed + 1000u * static_cast<uint64_t>(round);
  doc.num_nodes = 200 + 100 * (round % 3);
  doc.alphabet_size = 3 + round % 3;
  doc.max_children = 4;
  return doc;
}

// Plans `query` under `strategy` against an engine rebuilt from `doc` and
// `views`, certifies it, and reports whether the certifier rejected it.
// Plans that fail to build count as not-rejected (the invariant only covers
// plans the planner actually emits). Views travel as XPath source text, so
// a counterexample can be rebuilt in a fresh engine (and pasted into a
// regression test) without sharing label ids with the engine that found it.
bool PlanRejects(const RandomDocOptions& doc_options,
                 const std::vector<std::string>& views,
                 const std::string& query, AnswerStrategy strategy,
                 std::string* summary) {
  Engine engine(GenerateRandomDoc(doc_options));
  for (const std::string& view : views) {
    Result<TreePattern> pattern = engine.Parse(view);
    if (!pattern.ok()) {
      return false;
    }
    const Result<int32_t> id = engine.AddView(std::move(*pattern));
    (void)id;  // a view that fails to materialize just shrinks the catalog
  }
  const Result<TreePattern> pattern = engine.Parse(query);
  if (!pattern.ok()) {
    return false;
  }
  const CatalogRef catalog = engine.Catalog();
  ExecutionContext ctx;
  const Result<QueryPlan> plan = engine.planner().BuildPlan(
      *catalog, *pattern, strategy, &ctx.nfa_scratch);
  if (!plan.ok()) {
    return false;
  }
  CertifyOptions options;
  options.dict = &engine.doc().labels();
  const Certificate cert = CertifyPlan(*plan, catalog->MakeLookup(), options);
  if (summary != nullptr) {
    *summary = cert.Summary();
  }
  return cert.verdict == CertifyVerdict::kRejected;
}

// Greedy delta-debugging over the catalog: drop one view at a time, keep
// the drop whenever the rejection persists.
std::vector<std::string> MinimizeViews(const RandomDocOptions& doc_options,
                                       std::vector<std::string> views,
                                       const std::string& query,
                                       AnswerStrategy strategy) {
  for (size_t i = 0; i < views.size();) {
    std::vector<std::string> smaller = views;
    smaller.erase(smaller.begin() + static_cast<ptrdiff_t>(i));
    if (PlanRejects(doc_options, smaller, query, strategy, nullptr)) {
      views = std::move(smaller);
    } else {
      ++i;
    }
  }
  return views;
}

void DumpFixture(const SweepOptions& sweep, const RandomDocOptions& doc,
                 const std::vector<std::string>& views,
                 const std::string& query, AnswerStrategy strategy,
                 const std::string& summary, int fixture_index) {
  std::error_code ec;
  std::filesystem::create_directories(sweep.fixtures_dir, ec);
  const std::string path = sweep.fixtures_dir + "/reject-" +
                           std::to_string(doc.seed) + "-" +
                           std::to_string(fixture_index) + ".txt";
  std::ofstream out(path);
  out << "# xvr_certify counterexample (minimized)\n";
  out << "doc.seed = " << doc.seed << "\n";
  out << "doc.num_nodes = " << doc.num_nodes << "\n";
  out << "doc.alphabet_size = " << doc.alphabet_size << "\n";
  out << "doc.max_children = " << doc.max_children << "\n";
  out << "strategy = " << AnswerStrategyName(strategy) << "\n";
  out << "query = " << query << "\n";
  for (const std::string& view : views) {
    out << "view = " << view << "\n";
  }
  out << "certificate = " << summary << "\n";
  std::cerr << "xvr_certify: REJECTED plan, fixture written to " << path
            << "\n  " << summary << "\n";
}

int RunSweep(const SweepOptions& sweep) {
  SweepTally tally;
  int fixtures = 0;
  for (int round = 0; round < sweep.rounds; ++round) {
    const RandomDocOptions doc_options = DocOptionsForRound(sweep, round);
    Engine engine(GenerateRandomDoc(doc_options));
    Rng rng(doc_options.seed ^ 0x9e3779b97f4a7c15ull);

    // Materialize a random catalog. Views come from shallow walks so they
    // anchor high enough to cover.
    QueryGenOptions view_gen_options;
    view_gen_options.max_depth = 3 + round % 2;
    view_gen_options.prob_wild = 0.2;
    view_gen_options.prob_desc = 0.25;
    view_gen_options.num_pred = 1;
    view_gen_options.num_nestedpath = 2;
    const QueryGenerator view_gen(engine.doc(), view_gen_options);
    std::vector<std::string> views;
    for (int attempt = 0;
         attempt < 12 * sweep.views &&
         views.size() < static_cast<size_t>(sweep.views);
         ++attempt) {
      TreePattern candidate = view_gen.Generate(&rng);
      if (candidate.empty()) {
        continue;
      }
      std::string xpath = PatternToXPath(candidate, engine.doc().labels());
      if (engine.AddView(std::move(candidate)).ok()) {
        views.push_back(std::move(xpath));
      }
    }

    QueryGenOptions query_gen_options;
    query_gen_options.max_depth = 4;
    query_gen_options.prob_wild = 0.25;
    query_gen_options.prob_desc = 0.25;
    query_gen_options.num_pred = 1 + round % 2;
    query_gen_options.num_nestedpath = 2;
    const QueryGenerator query_gen(engine.doc(), query_gen_options);

    const CatalogRef catalog = engine.Catalog();
    CertifyOptions certify_options;
    certify_options.dict = &engine.doc().labels();
    const ViewLookup lookup = catalog->MakeLookup();

    // The query batch: random walks plus every materialized view's own
    // pattern echoed back as a query. Echoes are always answerable, so they
    // guarantee plan volume (including multi-view covers when several views
    // overlap) no matter how adversarial the random walks turn out.
    for (int qi = 0; qi < sweep.queries; ++qi) {
      TreePattern query;
      if (qi % 2 == 1 && !views.empty()) {
        Result<TreePattern> echoed =
            engine.Parse(views[static_cast<size_t>(qi / 2) % views.size()]);
        if (echoed.ok()) {
          query = std::move(*echoed);
        }
      }
      if (query.empty()) {
        query = query_gen.Generate(&rng);
      }
      if (query.empty()) {
        continue;
      }
      const std::string query_xpath =
          PatternToXPath(query, engine.doc().labels());
      for (const AnswerStrategy strategy : kViewStrategies) {
        ExecutionContext ctx;
        const Result<QueryPlan> plan = engine.planner().BuildPlan(
            *catalog, query, strategy, &ctx.nfa_scratch);
        if (!plan.ok()) {
          ++tally.unplannable;  // not answerable from this catalog — fine
          continue;
        }
        const Certificate cert =
            CertifyPlan(*plan, lookup, certify_options);
        ++tally.plans;
        tally.escalations += static_cast<uint64_t>(cert.escalations);
        if (cert.non_minimal) {
          ++tally.non_minimal;
        }
        if (cert.degraded_plan) {
          ++tally.degraded;
        }
        switch (cert.verdict) {
          case CertifyVerdict::kCertified:
            ++tally.certified;
            break;
          case CertifyVerdict::kInconclusive:
            ++tally.inconclusive;
            break;
          case CertifyVerdict::kRejected: {
            ++tally.rejected;
            const std::vector<std::string> minimized =
                MinimizeViews(doc_options, views, query_xpath, strategy);
            std::string summary = cert.Summary();
            (void)PlanRejects(doc_options, minimized, query_xpath, strategy,
                              &summary);
            DumpFixture(sweep, doc_options, minimized, query_xpath, strategy,
                        summary, fixtures++);
            break;
          }
        }
      }
    }
  }

  std::cout << "xvr_certify: plans=" << tally.plans
            << " certified=" << tally.certified
            << " inconclusive=" << tally.inconclusive
            << " rejected=" << tally.rejected
            << " escalations=" << tally.escalations
            << " non_minimal=" << tally.non_minimal
            << " degraded=" << tally.degraded
            << " unplannable=" << tally.unplannable << "\n";
  if (tally.plans == 0) {
    std::cerr << "xvr_certify: sweep produced no certifiable plans — "
                 "generator knobs are broken\n";
    return 2;
  }
  return tally.rejected == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  SweepOptions sweep;
  bool quick = std::getenv("XVR_CERTIFY_QUICK") != nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--rounds") {
      if (const char* v = next()) sweep.rounds = std::atoi(v);
    } else if (arg == "--views") {
      if (const char* v = next()) sweep.views = std::atoi(v);
    } else if (arg == "--queries") {
      if (const char* v = next()) sweep.queries = std::atoi(v);
    } else if (arg == "--seed") {
      if (const char* v = next()) sweep.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--fixtures-dir") {
      if (const char* v = next()) sweep.fixtures_dir = v;
    } else {
      std::cerr << "usage: xvr_certify [--quick] [--rounds N] [--views K] "
                   "[--queries M] [--seed S] [--fixtures-dir DIR]\n";
      return 2;
    }
  }
  if (quick) {
    sweep.rounds = 4;
    sweep.views = 6;
    sweep.queries = 8;
  }
  return RunSweep(sweep);
}

}  // namespace
}  // namespace xvr

int main(int argc, char** argv) { return xvr::Main(argc, argv); }
