// xvr_shell: an interactive console over the engine.
//
// Commands:
//   gen [scale]           generate an XMark-like document
//   load <file.xml>       load a document from disk
//   view <xpath>          materialize a view
//   views                 list materialized views
//   drop <id>             remove a view
//   q <xpath>             answer with HV and cross-check against base data
//   q! <strategy> <xpath> answer with BN|BF|MN|MV|HV
//   filter <xpath>        show VFILTER candidates and LIST(P_i)
//   explain <xpath>       show selection (views, covers, anchors)
//   save <file> / open <file>   persist / restore the engine state
//   stats                 engine statistics (incl. serving health)
//   \metrics [json]       full metric catalog as text or JSON
//   help / quit
//
// Run:  ./xvr_shell            (or pipe a script into stdin)

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "core/engine.h"
#include "pattern/pattern_writer.h"
#include "workload/xmark.h"
#include "xml/xml_parser.h"

namespace {

using xvr::AnswerStrategy;

class Shell {
 public:
  int Run() {
    std::printf("xvr shell — type 'help' for commands\n");
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!Dispatch(std::string(xvr::Trim(line)))) {
        break;
      }
    }
    return 0;
  }

 private:
  bool RequireEngine() {
    if (engine_ == nullptr) {
      std::printf("no document; use 'gen [scale]' or 'load <file>'\n");
      return false;
    }
    return true;
  }

  void PrintAnswer(const xvr::Engine::Answer& answer, bool verify) {
    std::printf("%zu result(s) in %.1f us (filter %.1f, select %.1f, "
                "exec %.1f); %zu view(s)%s\n",
                answer.codes.size(), answer.stats.total_micros,
                answer.stats.filter_micros, answer.stats.selection_micros,
                answer.stats.execution_micros, answer.stats.views_selected,
                answer.stats.plan_cache_hit ? " [plan cached]" : "");
    size_t shown = 0;
    for (const xvr::DeweyCode& code : answer.codes) {
      if (++shown > 5) {
        std::printf("  ... (%zu more)\n", answer.codes.size() - 5);
        break;
      }
      std::printf("  %s\n", code.ToString().c_str());
    }
    if (verify) {
      auto base = engine_->AnswerQuery(*last_query_,
                                       AnswerStrategy::kBaseNodeIndex);
      std::printf("  base-data cross-check: %s\n",
                  base.ok() && base->codes == answer.codes ? "MATCH"
                                                           : "MISMATCH");
    }
  }

  bool Dispatch(const std::string& line) {
    if (line.empty()) return true;
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    std::string rest;
    std::getline(in, rest);
    rest = std::string(xvr::Trim(rest));

    if (cmd == "quit" || cmd == "exit") {
      return false;
    }
    if (cmd == "help") {
      std::printf(
          "gen [scale] | load <file> | view <xpath> | views | drop <id>\n"
          "q <xpath> | q! <BN|BF|MN|MV|HV> <xpath>\n"
          "filter <xpath> | explain <xpath> | save <file> | open <file>\n"
          "stats | \\metrics [json] | quit\n");
      return true;
    }
    if (cmd == "gen") {
      xvr::XmarkOptions options;
      if (!rest.empty()) options.scale = std::strtod(rest.c_str(), nullptr);
      engine_ = std::make_unique<xvr::Engine>(xvr::GenerateXmark(options));
      std::printf("generated document: %zu nodes\n", engine_->doc().size());
      return true;
    }
    if (cmd == "load") {
      auto tree = xvr::ParseXmlFile(rest);
      if (!tree.ok()) {
        std::printf("load failed: %s\n", tree.status().ToString().c_str());
        return true;
      }
      engine_ = std::make_unique<xvr::Engine>(std::move(tree).value());
      std::printf("loaded %s: %zu nodes\n", rest.c_str(),
                  engine_->doc().size());
      return true;
    }
    if (cmd == "save") {
      if (!RequireEngine()) return true;
      xvr::Status s = engine_->SaveState(rest);
      std::printf("%s\n", s.ok() ? "saved" : s.ToString().c_str());
      return true;
    }
    if (cmd == "open") {
      auto loaded = xvr::Engine::LoadState(rest);
      if (!loaded.ok()) {
        std::printf("open failed: %s\n", loaded.status().ToString().c_str());
        return true;
      }
      engine_ = std::move(loaded).value();
      std::printf("restored: %zu nodes, %zu views\n", engine_->doc().size(),
                  engine_->num_views());
      return true;
    }
    if (!RequireEngine()) return true;

    if (cmd == "view") {
      auto pattern = engine_->Parse(rest);
      if (!pattern.ok()) {
        std::printf("parse error: %s\n", pattern.status().ToString().c_str());
        return true;
      }
      auto id = engine_->AddView(std::move(pattern).value());
      if (!id.ok()) {
        std::printf("rejected: %s\n", id.status().ToString().c_str());
        return true;
      }
      std::printf("view %d: %zu fragment(s), %s\n", *id,
                  engine_->fragments().GetView(*id)->size(),
                  xvr::HumanBytes(engine_->fragments().ViewByteSize(*id))
                      .c_str());
      return true;
    }
    if (cmd == "views") {
      for (int32_t id : engine_->view_ids()) {
        std::printf("  %4d  %-50s %8s\n", id,
                    PatternToXPath(*engine_->view(id), engine_->labels())
                        .c_str(),
                    xvr::HumanBytes(engine_->fragments().ViewByteSize(id))
                        .c_str());
      }
      return true;
    }
    if (cmd == "drop") {
      const xvr::Status dropped =
          engine_->RemoveView(static_cast<int32_t>(std::atoi(rest.c_str())));
      if (!dropped.ok()) {
        std::printf("drop: %s\n", dropped.ToString().c_str());
      }
      return true;
    }
    if (cmd == "stats") {
      std::printf("document: %zu nodes; views: %zu (%s of fragments)\n",
                  engine_->doc().size(), engine_->num_views(),
                  xvr::HumanBytes(engine_->fragments().TotalByteSize())
                      .c_str());
      std::printf("VFILTER: %zu states, %zu transitions, size %zu\n",
                  engine_->vfilter().num_states(),
                  engine_->vfilter().num_transitions(),
                  engine_->vfilter().automaton_size());
      const xvr::ServerStats server = engine_->ServerStats();
      std::printf(
          "queries: %llu total, %llu ok, %llu failed "
          "(%llu deadline, %llu cancelled, %llu budget), "
          "%llu degraded\n",
          static_cast<unsigned long long>(server.queries_total),
          static_cast<unsigned long long>(server.queries_ok),
          static_cast<unsigned long long>(server.queries_failed),
          static_cast<unsigned long long>(server.queries_deadline_exceeded),
          static_cast<unsigned long long>(server.queries_cancelled),
          static_cast<unsigned long long>(server.queries_budget_exhausted),
          static_cast<unsigned long long>(server.queries_degraded_selection));
      std::printf(
          "plan cache: %llu lookups, %llu hits (%.0f%%), %llu stale drops, "
          "%llu evictions; publish sweeps: %llu dep + %llu fingerprint "
          "invalidations, %llu survived\n",
          static_cast<unsigned long long>(server.plan_cache.lookups),
          static_cast<unsigned long long>(server.plan_cache.hits),
          100.0 * server.plan_cache.HitRatio(),
          static_cast<unsigned long long>(server.plan_cache.stale_drops),
          static_cast<unsigned long long>(server.plan_cache.evictions),
          static_cast<unsigned long long>(
              server.plan_cache.dep_invalidations),
          static_cast<unsigned long long>(
              server.plan_cache.fingerprint_invalidations),
          static_cast<unsigned long long>(
              server.plan_cache.survived_publications));
      std::printf(
          "latency: p50 %.1f us, p95 %.1f, p99 %.1f, max %.1f (n=%llu); "
          "catalog v%llu, %llu publishes, %llu WAL appends\n",
          server.query_latency.p50_micros, server.query_latency.p95_micros,
          server.query_latency.p99_micros, server.query_latency.max_micros,
          static_cast<unsigned long long>(server.query_latency.count),
          static_cast<unsigned long long>(server.catalog_version),
          static_cast<unsigned long long>(server.catalog_publishes),
          static_cast<unsigned long long>(server.wal_appends));
      return true;
    }
    if (cmd == "\\metrics" || cmd == "metrics") {
      if (rest == "json") {
        std::printf("%s\n", engine_->MetricsJson().c_str());
      } else {
        std::printf("%s", engine_->MetricsText().c_str());
      }
      return true;
    }

    // Query-style commands.
    std::string strategy_name = "HV";
    std::string xpath = rest;
    if (cmd == "q!") {
      std::istringstream split(rest);
      split >> strategy_name;
      std::getline(split, xpath);
      xpath = std::string(xvr::Trim(xpath));
    }
    auto query = engine_->Parse(xpath);
    if (!query.ok()) {
      std::printf("parse error: %s\n", query.status().ToString().c_str());
      return true;
    }
    last_query_ = std::make_unique<xvr::TreePattern>(std::move(query).value());

    if (cmd == "q" || cmd == "q!") {
      auto strategy = xvr::ParseAnswerStrategy(strategy_name);
      if (!strategy.ok()) {
        std::printf("%s\n", strategy.status().ToString().c_str());
        return true;
      }
      auto answer = engine_->AnswerQuery(*last_query_, *strategy);
      if (!answer.ok()) {
        std::printf("failed: %s\n", answer.status().ToString().c_str());
        return true;
      }
      PrintAnswer(*answer, cmd == "q");
      return true;
    }
    if (cmd == "filter") {
      const xvr::FilterResult result =
          engine_->vfilter().Filter(*last_query_);
      std::printf("%zu candidate(s):", result.candidates.size());
      for (int32_t id : result.candidates) std::printf(" %d", id);
      std::printf("\n");
      for (size_t i = 0; i < result.decomposition.paths.size(); ++i) {
        std::printf("  LIST(%s):",
                    result.decomposition.paths[i]
                        .ToString(engine_->labels())
                        .c_str());
        for (const auto& entry : result.lists[i]) {
          std::printf(" (%d,len %d)", entry.view_id, entry.length);
        }
        std::printf("\n");
      }
      return true;
    }
    if (cmd == "explain") {
      xvr::AnswerStats stats;
      auto selection = engine_->SelectViews(
          *last_query_, AnswerStrategy::kHeuristicFiltered, &stats);
      if (!selection.ok()) {
        std::printf("not answerable: %s\n",
                    selection.status().ToString().c_str());
        return true;
      }
      std::printf("%zu view(s), %d cover(s) computed, %zu candidate(s)\n",
                  selection->views.size(), stats.covers_computed,
                  stats.candidates_after_filter);
      for (const xvr::SelectedView& v : selection->views) {
        std::printf("  view %d = %s\n    anchor q* = query node %d%s, "
                    "covers %zu leaf(s)\n",
                    v.view_id,
                    PatternToXPath(*engine_->view(v.view_id),
                                   engine_->labels())
                        .c_str(),
                    v.cover.mapped_answer,
                    v.cover.covers_answer ? " (supplies the answer)" : "",
                    v.cover.leaves.size());
      }
      return true;
    }
    std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    return true;
  }

  std::unique_ptr<xvr::Engine> engine_;
  std::unique_ptr<xvr::TreePattern> last_query_;
};

}  // namespace

int main() {
  Shell shell;
  return shell.Run();
}
