// Ablations for the design choices DESIGN.md calls out:
//
//  * normalization on/off — candidate matches the filter loses without
//    normalization (§III-C), recomputed from a raw-only NFA;
//  * prefix sharing on/off — automaton size (the §III-D space argument);
//  * set-based vs counter-based NUM(V) candidate accounting (our fix vs the
//    paper's literal Algorithm 1, recomputed from the NFA's accepts);
//  * heuristic vs minimum selection — fragment bytes touched by the chosen
//    view sets (why HV beats MV in Fig. 8).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "pattern/homomorphism.h"

namespace {

// --- normalization ----------------------------------------------------------
//
// Raw-form indexing already removes every false negative relative to
// homomorphism containment; what normalization adds is the semantically
// equivalent forms of §III-C (Example 3.2: s/*//t vs s//*/t) that no
// homomorphism relates. This ablation filters wildcard-heavy queries —
// including a synthetic Example 3.2 family — and counts the candidate
// matches that disappear without normalization. The normalized row is the
// filter. The raw row is recomputed from a PathNfa that indexes and reads
// every path in its raw form only, with Filter's candidate rule: a view is
// a candidate when each of its paths accepts some query path.

void BM_Ablation_Normalization(benchmark::State& state) {
  const bool normalize = state.range(0) != 0;
  xvr_bench::FilterSetup& setup = xvr_bench::ViewScalingSetup();
  std::vector<xvr::TreePattern> views(setup.views.begin(),
                                      setup.views.begin() + 2000);
  // The Example 3.2 family over the XMark schema.
  for (const char* vx :
       {"/site//*/item/name", "/site/open_auctions//*/increase",
        "/site//*/person/name"}) {
    views.push_back(xvr::ParseXPath(vx, &setup.doc.labels()).value());
  }
  std::vector<xvr::TreePattern> probes;
  for (const char* qx :
       {"/site/*//item/name", "/site/open_auctions/*//increase",
        "/site/*//person/name"}) {
    probes.push_back(xvr::ParseXPath(qx, &setup.doc.labels()).value());
  }
  for (size_t qi = 0; qi < 300; ++qi) {
    probes.push_back(setup.views[qi]);
  }

  xvr::VFilter filter;
  xvr::PathNfa raw;
  std::vector<size_t> num_paths;  // |D(V)| by view id
  for (size_t v = 0; v < views.size(); ++v) {
    const int32_t id = static_cast<int32_t>(v);
    if (normalize) {
      filter.AddView(id, views[v]);
      continue;
    }
    const std::vector<xvr::PathPattern> paths = xvr::Decompose(views[v]).paths;
    num_paths.push_back(paths.size());
    for (size_t p = 0; p < paths.size(); ++p) {
      raw.Insert(paths[p], id, static_cast<int32_t>(p));
    }
  }
  xvr::NfaReadScratch scratch;
  std::vector<int32_t> tokens;
  std::vector<const xvr::AcceptEntry*> hits;
  size_t total_candidates = 0;
  for (auto _ : state) {
    total_candidates = 0;
    for (const xvr::TreePattern& query : probes) {
      if (normalize) {
        total_candidates += filter.Filter(query, &scratch).candidates.size();
        continue;
      }
      std::set<std::pair<int32_t, int32_t>> accepted;  // (view, view path)
      for (const xvr::PathPattern& path : xvr::Decompose(query).paths) {
        xvr::PathToTokens(path, &tokens);
        raw.Read(tokens, &hits, &scratch);
        for (const xvr::AcceptEntry* e : hits) {
          accepted.emplace(e->view_id, e->path_id);
        }
      }
      std::map<int32_t, size_t> covered;  // view id -> its paths accepted
      for (const auto& [view_id, path_id] : accepted) {
        ++covered[view_id];
      }
      for (const auto& [view_id, count] : covered) {
        if (count == num_paths[static_cast<size_t>(view_id)]) {
          ++total_candidates;
        }
      }
    }
  }
  state.SetLabel(normalize ? "normalized" : "raw");
  state.counters["total_candidates"] = static_cast<double>(total_candidates);
}
BENCHMARK(BM_Ablation_Normalization)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// --- prefix sharing ---------------------------------------------------------
//
// The trie against the automaton without sharing, which gives every indexed
// path form a private chain off the start state: 1 plus the summed chain
// lengths, each a fresh one-path NFA's state count minus its start state.

void BM_Ablation_PrefixSharing(benchmark::State& state) {
  const bool share = state.range(0) != 0;
  xvr_bench::FilterSetup& setup = xvr_bench::ViewScalingSetup();
  size_t states = 0;
  size_t size = 0;
  for (auto _ : state) {
    if (share) {
      auto filter = xvr_bench::BuildFilter(4000);
      states = filter->num_states();
      size = filter->automaton_size();
      continue;
    }
    states = 1;
    for (size_t i = 0; i < 4000 && i < setup.views.size(); ++i) {
      for (const xvr::PathPattern& path : xvr::Decompose(setup.views[i]).paths) {
        xvr::ForEachPathForm(path, [&](const xvr::PathPattern& form) {
          xvr::PathNfa chain;
          chain.Insert(form, 0, 0);
          states += chain.num_states() - 1;
        });
      }
    }
  }
  state.SetLabel(share ? "shared" : "unshared");
  state.counters["states"] = static_cast<double>(states);
  if (share) {
    state.counters["size"] = static_cast<double>(size);
  }
}
BENCHMARK(BM_Ablation_PrefixSharing)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// --- NUM(V) accounting ------------------------------------------------------
//
// Algorithm 1's literal counter: NUM(V) counts V's distinct (view path,
// query path) acceptances, and V is a candidate when NUM(V) = |D(V)|.
// Recomputed from the accept entries each query path's reads reach in
// Filter's NFA, and compared with Filter's per-path coverage: one view path
// accepting two query paths makes the counter over- or under-select.

void BM_Ablation_CounterMode(benchmark::State& state) {
  xvr_bench::FilterSetup& setup = xvr_bench::ViewScalingSetup();
  auto filter = xvr_bench::BuildFilter(2000);
  xvr::NfaReadScratch scratch;
  std::vector<const xvr::AcceptEntry*> hits;
  size_t disagreements = 0;
  for (auto _ : state) {
    disagreements = 0;
    for (size_t qi = 0; qi < 200; ++qi) {
      const xvr::TreePattern& query = setup.views[qi];
      std::map<int32_t, int32_t> num;  // view id -> NUM(V)
      for (const xvr::PathPattern& path : xvr::Decompose(query).paths) {
        std::vector<std::vector<int32_t>> reads;
        xvr::AppendStructuralReads(path, &reads);
        std::set<std::pair<int32_t, int32_t>> accepted;  // (view, view path)
        for (const std::vector<int32_t>& tokens : reads) {
          filter->nfa().Read(tokens, &hits, &scratch);
          for (const xvr::AcceptEntry* e : hits) {
            accepted.emplace(e->view_id, e->path_id);
          }
        }
        for (const auto& [view_id, path_id] : accepted) {
          ++num[view_id];
        }
      }
      std::vector<int32_t> counter_candidates;
      for (const auto& [view_id, count] : num) {
        if (count == filter->NumPathsOf(view_id)) {
          counter_candidates.push_back(view_id);
        }
      }
      if (counter_candidates != filter->Filter(query, &scratch).candidates) {
        ++disagreements;
      }
    }
  }
  state.SetLabel("counter");
  state.counters["queries_diverging"] = static_cast<double>(disagreements);
}
BENCHMARK(BM_Ablation_CounterMode)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// --- heuristic vs minimum fragment footprint --------------------------------

void BM_Ablation_SelectionFootprint(benchmark::State& state) {
  const bool heuristic = state.range(0) != 0;
  xvr::PaperSetup& setup = xvr_bench::QuerySetup();
  const xvr::AnswerStrategy strategy =
      heuristic ? xvr::AnswerStrategy::kHeuristicFiltered
                : xvr::AnswerStrategy::kMinimumFiltered;
  size_t fragment_bytes = 0;
  size_t views = 0;
  for (auto _ : state) {
    fragment_bytes = 0;
    views = 0;
    for (const xvr::TreePattern& query : setup.queries) {
      xvr::AnswerStats stats;
      auto selection = setup.engine->SelectViews(query, strategy, &stats);
      if (!selection.ok()) {
        continue;
      }
      views += selection->views.size();
      for (const xvr::SelectedView& v : selection->views) {
        fragment_bytes +=
            setup.engine->fragments().ViewByteSize(v.view_id);
      }
    }
  }
  state.SetLabel(heuristic ? "HV" : "MV");
  state.counters["fragment_kb"] = static_cast<double>(fragment_bytes) / 1024.0;
  state.counters["views_selected"] = static_cast<double>(views);
}
BENCHMARK(BM_Ablation_SelectionFootprint)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
