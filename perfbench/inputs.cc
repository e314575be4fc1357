#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>
#include <utility>

#include "net/json.h"
#include "pattern/evaluate.h"
#include "pattern/minimize.h"
#include "pattern/pattern_writer.h"
#include "storage/materializer.h"
#include "workload/query_gen.h"
#include "workload/xmark.h"

namespace perfbench {
namespace {

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

// The generator knobs of the paper's §VI-A view set; only num_pred varies.
xvr::QueryGenOptions PaperGenOptions(int num_pred) {
  xvr::QueryGenOptions options;
  options.max_depth = 4;
  options.prob_wild = 0.2;
  options.prob_desc = 0.2;
  options.num_pred = num_pred;
  options.num_nestedpath = 1;
  return options;
}

// Independent streams from one workload seed.
uint64_t Stream(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream;
}

std::vector<xvr::DeweyCode> EvaluateTruth(const xvr::TreePattern& pattern,
                                          const xvr::XmlTree& doc) {
  std::vector<xvr::DeweyCode> codes;
  for (const xvr::NodeId node : xvr::EvaluatePattern(pattern, doc)) {
    codes.push_back(doc.dewey(node));
  }
  std::sort(codes.begin(), codes.end());
  return codes;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const WorkloadSpec kSpecs[] = {
      {"warm_http", 12.0, 1000, 512, true, {1}, DrawOrder::kZipf,
       /*http=*/true, /*churn=*/false, /*cpus=*/1},
      {"cold_plan", 2.0, 4000, 3500, false, {1, 2}, DrawOrder::kUniform,
       /*http=*/false, /*churn=*/false, /*cpus=*/1},
      {"churn", 12.0, 1000, 512, true, {1}, DrawOrder::kZipf,
       /*http=*/false, /*churn=*/true, /*cpus=*/2},
  };
  for (const WorkloadSpec& spec : kSpecs) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

xvr::PaperSetup BuildEngine(const WorkloadSpec& spec) {
  xvr::XmarkOptions doc;
  doc.scale = spec.xmark_scale;
  doc.seed = kDocSeed;
  return xvr::BuildPaperSetup(doc, spec.views, kViewSeed);
}

std::vector<PoolQuery> BuildPool(const WorkloadSpec& spec,
                                 xvr::Engine* engine, uint64_t seed,
                                 PoolStats* stats) {
  std::vector<std::string> xpaths;
  std::unordered_set<std::string> seen;
  const auto admit = [&](const std::string& xpath, bool must_answer) {
    for (const char* shape : kExcludedShapes) {
      if (xpath.find(shape) != std::string::npos) {
        ++stats->rejected_shape;
        return;
      }
    }
    xvr::Result<xvr::TreePattern> parsed = engine->Parse(xpath);
    if (!parsed.ok()) {
      Fail("generated query does not parse: " + xpath);
    }
    if (!seen.insert(parsed->CanonicalKey()).second) {
      ++stats->rejected_duplicate;
      return;
    }
    // Plan exactly as AnswerQuery does: on the minimized pattern.
    xvr::TreePattern minimized = *parsed;
    xvr::MinimizePattern(&minimized);
    xvr::AnswerStats select_stats;
    if (!engine
             ->SelectViews(minimized, xvr::AnswerStrategy::kHeuristicFiltered,
                           &select_stats)
             .ok()) {
      if (must_answer) {
        Fail("Table III query is not answerable: " + xpath);
      }
      ++stats->rejected_unanswerable;
      return;
    }
    xpaths.push_back(xpath);
  };
  if (spec.table_iii) {
    for (const xvr::TableIIIQuery& tq : xvr::TableIII()) {
      admit(tq.xpath, /*must_answer=*/true);
    }
  }
  std::vector<xvr::QueryGenerator> generators;
  for (const int num_pred : spec.num_preds) {
    generators.emplace_back(engine->doc(), PaperGenOptions(num_pred));
  }
  xvr::Rng rng(Stream(seed, 1));
  const size_t wanted = xpaths.size() + spec.generated_queries;
  const size_t max_attempts = spec.generated_queries * 400;
  while (xpaths.size() < wanted && stats->candidates_tried < max_attempts) {
    const xvr::QueryGenerator& generator =
        generators[stats->candidates_tried % generators.size()];
    ++stats->candidates_tried;
    admit(xvr::PatternToXPath(generator.Generate(&rng), engine->labels()),
          /*must_answer=*/false);
  }
  if (xpaths.size() < wanted) {
    Fail("only " + std::to_string(xpaths.size()) + " of " +
         std::to_string(wanted) + " answerable queries found");
  }

  std::vector<PoolQuery> pool;
  pool.reserve(xpaths.size());
  for (std::string& xpath : xpaths) {
    PoolQuery q;
    q.pattern = std::move(engine->Parse(xpath)).value();
    q.truth = EvaluateTruth(q.pattern, engine->doc());
    for (size_t i = 0; i < q.truth.size(); ++i) {
      if (i > 0) {
        q.truth_json.push_back(',');
      }
      xvr::AppendJsonString(&q.truth_json, q.truth[i].ToString());
    }
    q.request_body = "{\"xpath\":";
    xvr::AppendJsonString(&q.request_body, xpath);
    q.request_body.push_back('}');
    q.xpath = std::move(xpath);
    pool.push_back(std::move(q));
  }
  return pool;
}

std::vector<xvr::TreePattern> BuildChurnViews(const xvr::Engine& engine,
                                              uint64_t seed, size_t count) {
  std::unordered_set<std::string> seen;
  for (const int32_t id : engine.view_ids()) {
    seen.insert(engine.view(id)->CanonicalKey());
  }
  xvr::MaterializeOptions materialize;
  materialize.evaluate = [&engine](const xvr::TreePattern& pattern,
                                   const xvr::XmlTree&) {
    return engine.base().Evaluate(pattern, xvr::BaseStrategy::kNodeIndex);
  };
  const xvr::QueryGenerator generator(engine.doc(), PaperGenOptions(1));
  xvr::Rng rng(Stream(seed, 3));
  std::vector<xvr::TreePattern> views;
  for (size_t attempts = 0; views.size() < count && attempts < count * 400;
       ++attempts) {
    xvr::TreePattern view = generator.Generate(&rng);
    xvr::MinimizePattern(&view);
    if (!seen.insert(view.CanonicalKey()).second) {
      continue;
    }
    if (xvr::MaterializeView(view, engine.doc(), materialize).ok()) {
      views.push_back(std::move(view));
    }
  }
  if (views.size() < count) {
    Fail("only " + std::to_string(views.size()) + " of " +
         std::to_string(count) + " churn views materialize");
  }
  return views;
}

Drawer::Drawer(DrawOrder order, size_t pool_size, size_t fixed_ranks,
               uint64_t seed)
    : order_(order), fixed_ranks_(fixed_ranks), rng_(Stream(seed, 2)) {
  by_rank_.resize(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    by_rank_[i] = i;
  }
  if (order_ == DrawOrder::kZipf) {
    double total = 0;
    cdf_.reserve(pool_size);
    for (size_t rank = 1; rank <= pool_size; ++rank) {
      total += 1.0 / static_cast<double>(rank);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }
}

size_t Drawer::Next() {
  if (order_ == DrawOrder::kUniform) {
    return static_cast<size_t>(rng_.NextBounded(by_rank_.size()));
  }
  if (draws_++ % kDriftDraws == 0) {
    // Fisher-Yates over the drifting ranks.
    for (size_t i = by_rank_.size() - 1; i > fixed_ranks_; --i) {
      const size_t j =
          fixed_ranks_ + static_cast<size_t>(rng_.NextBounded(i - fixed_ranks_ + 1));
      std::swap(by_rank_[i], by_rank_[j]);
    }
  }
  const double u = rng_.NextDouble();
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return by_rank_[std::min(rank, by_rank_.size() - 1)];
}

}  // namespace perfbench
