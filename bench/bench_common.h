#ifndef XVR_BENCH_BENCH_COMMON_H_
#define XVR_BENCH_BENCH_COMMON_H_

// Shared setup for the benchmark binaries reproducing the paper's §VI.
//
// The §VI-A setup (Figs. 8/9, Table III): an XMark-like document with 1000
// materialized positive views (max_depth 4, p_wild = p_desc = 0.2,
// num_pred = 1, num_nestedpath = 1; 128 KB per-view cap) and the four test
// queries Q1..Q4.
//
// The §VI-B setup (Figs. 10/11/12): view sets V1..V8 with 1000..8000
// generated view patterns (num_nestedpath = 2), indexed without
// materialization.
//
// Environment knobs (all optional):
//   XVR_BENCH_VIEWS     number of materialized views for §VI-A (default 1000)
//   XVR_BENCH_SCALE     document scale (default 12.0)

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "pattern/xpath_parser.h"
#include "workload/query_gen.h"
#include "workload/workloads.h"
#include "workload/xmark.h"

namespace xvr_bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtod(v, nullptr);
}

inline size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtoul(v, nullptr, 10);
}

// --- §VI-A: materialized setup ---------------------------------------------

inline xvr::PaperSetup* NewQuerySetup(xvr::EngineOptions options = {}) {
  xvr::XmarkOptions doc;
  doc.scale = EnvDouble("XVR_BENCH_SCALE", 12.0);
  doc.seed = 42;
  return new xvr::PaperSetup(xvr::BuildPaperSetup(
      doc, EnvSize("XVR_BENCH_VIEWS", 1000), /*seed=*/20080407, options));
}

inline xvr::PaperSetup& QuerySetup() {
  static xvr::PaperSetup* setup = NewQuerySetup();
  return *setup;
}

// --- §VI-B: view pattern sets V1..V8 (indexed only, never materialized) ----

struct FilterSetup {
  xvr::XmlTree doc;
  // 8000 generated views; V_i = the first i*1000 of them.
  std::vector<xvr::TreePattern> views;
  std::vector<xvr::TreePattern> queries;  // Q1..Q4 (Table III)
  std::vector<std::string> query_names;
};

inline FilterSetup& ViewScalingSetup() {
  static FilterSetup* setup = [] {
    auto* s = new FilterSetup();
    xvr::XmarkOptions doc;
    doc.scale = 0.5;
    doc.seed = 42;
    s->doc = xvr::GenerateXmark(doc);
    xvr::QueryGenOptions gen;
    gen.max_depth = 4;
    gen.prob_wild = 0.2;
    gen.prob_desc = 0.2;
    gen.num_pred = 1;
    gen.num_nestedpath = 2;
    s->views = xvr::GenerateViewSet(s->doc, 8000, gen, /*seed=*/7);
    for (const xvr::TableIIIQuery& tq : xvr::TableIII()) {
      auto q = xvr::ParseXPath(tq.xpath, &s->doc.labels());
      s->queries.push_back(std::move(q).value());
      s->query_names.push_back(tq.name);
    }
    return s;
  }();
  return *setup;
}

// A VFilter over the first `count` views of the scaling setup.
inline std::unique_ptr<xvr::VFilter> BuildFilter(size_t count) {
  FilterSetup& setup = ViewScalingSetup();
  auto filter = std::make_unique<xvr::VFilter>();
  const size_t n = std::min(count, setup.views.size());
  for (size_t i = 0; i < n; ++i) {
    filter->AddView(static_cast<int32_t>(i), setup.views[i]);
  }
  return filter;
}

}  // namespace xvr_bench

#endif  // XVR_BENCH_BENCH_COMMON_H_
