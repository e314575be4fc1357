#include "core/engine.h"

#include <algorithm>
#include <utility>

#include "analysis/validate.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/plan_deps.h"
#include "pattern/pattern_writer.h"
#include "pattern/xpath_parser.h"
#include "pattern/minimize.h"
#include "storage/kv_store.h"
#include "xml/fst.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace xvr {
namespace {

// The calling thread's one context, shared by AnswerQuery and SelectViews
// and by every engine the thread calls. Callers clear its catalog pin
// before they return.
ExecutionContext& ThreadContext() {
  thread_local ExecutionContext ctx;
  return ctx;
}

}  // namespace

Engine::Engine(XmlTree doc, EngineOptions options)
    : doc_(std::move(doc)), options_(std::move(options)), base_(doc_) {
  if (!doc_.has_dewey()) {
    doc_.AssignDeweyCodes();
  }
  XVR_DEBUG_VALIDATE(ValidateDocument(doc_));
  if (!options_.materialize.evaluate) {
    // Use the indexed evaluator for materialization speed.
    options_.materialize.evaluate = [this](const TreePattern& pattern,
                                           const XmlTree& tree) {
      XVR_CHECK(&tree == &doc_);
      return base_.Evaluate(pattern, BaseStrategy::kNodeIndex);
    };
  }

  // The empty initial catalog (version 0). Installed before the plan
  // cache exists, so there is no sweep to run — the only raw install
  // outside PublishCatalog (lint:publish-hook-ok).
  {
    MutexLock lock(&published_mu_);
    catalog_ = std::make_shared<const CatalogSnapshot>();
  }

  metrics_ = std::make_unique<EngineMetrics>(&metrics_registry_);

  metered_env_ = std::make_unique<MeteredEnv>(
      options_.env != nullptr ? options_.env : DefaultEnv(),
      metrics_->storage_syncs, metrics_->storage_io_errors,
      metrics_->storage_enospc);

  planner_ = std::make_unique<Planner>();

  if (options_.plan_cache_capacity > 0) {
    plan_cache_ = std::make_unique<PlanCache>(options_.plan_cache_capacity);
    PlanCache::MetricSinks sinks;
    sinks.lookups = metrics_->plan_cache_lookups;
    sinks.hits = metrics_->plan_cache_hits;
    sinks.misses = metrics_->plan_cache_misses;
    sinks.stale_drops = metrics_->plan_cache_stale_drops;
    sinks.evictions = metrics_->plan_cache_evictions;
    sinks.dep_invalidations = metrics_->plan_cache_dep_invalidations;
    sinks.fingerprint_invalidations =
        metrics_->plan_cache_fingerprint_invalidations;
    sinks.survived_publications =
        metrics_->plan_cache_survived_publications;
    plan_cache_->BindMetrics(sinks);
  }

  QueryPipeline::Deps deps;
  deps.planner = planner_.get();
  deps.cache = plan_cache_.get();
  deps.base = &base_;
  deps.doc = &doc_;
  deps.catalog = [this] { return Catalog(); };
  deps.metrics = metrics_.get();
  pipeline_ = std::make_unique<QueryPipeline>(std::move(deps));
}

Result<TreePattern> Engine::Parse(const std::string& xpath) {
  return ParseXPath(xpath, &doc_.labels());
}

CatalogSnapshot Engine::CloneCatalog() const {
  // The writer mutex is held, so nobody can publish underneath us; the copy
  // shares its table chunks with the current snapshot (see core/catalog.h)
  // and is private to this writer until Publish.
  return *Catalog();
}

void Engine::PublishCatalog(CatalogSnapshot next, CatalogDelta delta) {
  next.version = Catalog()->version + 1;
  XVR_DEBUG_VALIDATE(ValidateCatalogSnapshot(next));
  const uint64_t version = next.version;
  const size_t views = next.views.size();
  if (plan_cache_ != nullptr) {
    // Targeted invalidation BEFORE the pointer install: once a reader can
    // pin the successor, every plan the mutation could have changed is
    // already gone and every survivor is re-stamped — a reader still
    // pinned to the predecessor simply misses on the version skew.
    plan_cache_->OnCatalogPublish(version, delta);
  }
  // Build the successor off-lock; only the pointer install sits inside the
  // readers' critical section.
  auto published = std::make_shared<const CatalogSnapshot>(std::move(next));
  CatalogRef retired;
  {
    MutexLock lock(&published_mu_);
    retired = std::move(catalog_);
    catalog_ = std::move(published);
  }
  // Released after the unlock: when no query pins the predecessor, its
  // destructor frees what it alone held (a removed view's fragments, the
  // chunks this mutation cloned) while readers pin the successor.
  retired.reset();
  metrics_->catalog_publishes->Add();
  metrics_->catalog_version->Set(static_cast<int64_t>(version));
  metrics_->catalog_views->Set(static_cast<int64_t>(views));
  // Debug cross-check of the sweep's soundness: surviving filtered plans
  // must still have exactly the candidate sets a fresh VFILTER run yields.
  XVR_DEBUG_VALIDATE(
      ValidatePlanCacheDependencies(plan_cache_.get(), *Catalog()));
}

Result<int32_t> Engine::AddViewLocked(TreePattern view, bool log_to_wal) {
  MinimizePattern(&view);
  // Materialize before touching any shared state: a failed materialization
  // leaves no trace in the catalog and never reaches the WAL.
  std::vector<Fragment> fragments;
  XVR_ASSIGN_OR_RETURN(fragments,
                       MaterializeView(view, doc_, options_.materialize));
  CatalogSnapshot next = CloneCatalog();
  const int32_t id = next.next_view_id++;
  if (log_to_wal && wal_ != nullptr) {
    // Log before publish: once the mutation is visible to readers it must
    // survive a crash. A failed append aborts the whole mutation.
    const Result<uint64_t> seq =
        wal_->Append(CatalogWalOp::kAddView, id,
                     PatternToXPath(view, doc_.labels()));
    XVR_RETURN_IF_ERROR(seq.status());
    metrics_->wal_appends->Add();
  }
  next.fragments.PutView(id, std::move(fragments));
  next.vfilter.AddView(id, view);
  // Summarize the (minimized) view for the plan-cache sweep before the
  // pattern moves into the snapshot.
  auto publication =
      std::make_shared<const ViewPublication>(MakeViewPublication(id, view));
  next.views.Set(id, std::move(view));
  PublishCatalog(std::move(next), CatalogDelta::Added(std::move(publication)));
  XVR_DEBUG_VALIDATE(ValidateVFilter(Catalog()->vfilter));
  XVR_DEBUG_VALIDATE(ValidateViewFragments(Catalog()->fragments, id,
                                           *doc_.fst(),
                                           Catalog()->MakeLookup()));
  return id;
}

Status Engine::RemoveViewLocked(int32_t id, bool log_to_wal) {
  CatalogSnapshot next = CloneCatalog();
  if (!next.views.Contains(id)) {
    return Status::NotFound("no view with id " + std::to_string(id));
  }
  if (log_to_wal && wal_ != nullptr) {
    const Result<uint64_t> seq =
        wal_->Append(CatalogWalOp::kRemoveView, id, /*xpath=*/"");
    XVR_RETURN_IF_ERROR(seq.status());
    metrics_->wal_appends->Add();
  }
  next.views.Erase(id);
  next.vfilter.RemoveView(id);
  next.fragments.RemoveView(id);
  next.quarantined_views.erase(id);
  PublishCatalog(std::move(next), CatalogDelta::Removed(id));
  XVR_DEBUG_VALIDATE(ValidateVFilter(Catalog()->vfilter));
  return Status::Ok();
}

Result<int32_t> Engine::AddView(TreePattern view) {
  MutexLock lock(&catalog_mu_);
  return AddViewLocked(std::move(view), /*log_to_wal=*/true);
}

Status Engine::RemoveView(int32_t id) {
  MutexLock lock(&catalog_mu_);
  return RemoveViewLocked(id, /*log_to_wal=*/true);
}

Status Engine::ApplyWalRecordLocked(const CatalogWalRecord& record) {
  switch (record.op) {
    case CatalogWalOp::kRemoveView:
      return RemoveViewLocked(record.view_id, /*log_to_wal=*/false);
    case CatalogWalOp::kAddView: {
      // Ids are issued in order and every logged add was published, so a
      // replayed add carries the next id. Any other id is a corrupt record;
      // it must neither re-add a view nor size the catalog's id tables.
      const int32_t next_id = Catalog()->next_view_id;
      if (record.view_id != next_id) {
        return Status::ParseError(
            "WAL record " + std::to_string(record.seq) + " adds view " +
            std::to_string(record.view_id) + ", but the next view id is " +
            std::to_string(next_id));
      }
      // Replay is deterministic: the pattern re-parses against the same
      // document and re-materializes the same fragments the original
      // mutation produced (the original append only happened after a
      // successful materialization).
      Result<TreePattern> pattern = ParseXPath(record.xpath, &doc_.labels());
      XVR_RETURN_IF_ERROR(pattern.status());
      const Result<int32_t> id =
          AddViewLocked(std::move(pattern).value(), /*log_to_wal=*/false);
      return id.status();
    }
  }
  return Status::Internal("unknown catalog WAL op " +
                          std::to_string(static_cast<int>(record.op)));
}

Status Engine::EnableCatalogWal(const std::string& path) {
  MutexLock lock(&catalog_mu_);
  if (wal_ != nullptr) {
    return Status::InvalidArgument("catalog WAL already enabled at " +
                                   wal_->path());
  }
  std::vector<CatalogWalRecord> records;
  uint64_t intact_bytes = 0;
  uint64_t clipped_bytes = 0;
  XVR_ASSIGN_OR_RETURN(records, CatalogWal::ReadAll(path, env(), &intact_bytes,
                                                    &clipped_bytes));
  XVR_DEBUG_VALIDATE(ValidateCatalogWalRecords(records));
  if (clipped_bytes > 0) {
    metrics_->storage_recovery_tail_clipped->Add();
  }
  uint64_t last_seq = wal_checkpoint_seq_;
  uint64_t replayed = 0;
  for (const CatalogWalRecord& record : records) {
    if (record.seq <= wal_checkpoint_seq_) {
      // Covered by the loaded image (a SaveState whose truncate failed), so
      // an add skipped here issued an id below the image's next id. One
      // that did not is an acked add the checkpoint claims without holding.
      if (record.op == CatalogWalOp::kAddView &&
          record.view_id >= Catalog()->next_view_id) {
        return Status::ParseError(
            "WAL checkpoint " + std::to_string(wal_checkpoint_seq_) +
            " covers record " + std::to_string(record.seq) +
            ", which adds view " + std::to_string(record.view_id) +
            " the image does not hold");
      }
      continue;
    }
    XVR_RETURN_IF_ERROR(ApplyWalRecordLocked(record));
    last_seq = record.seq;
    ++replayed;
  }
  metrics_->storage_recovery_wal_records_replayed->Add(replayed);
  // Open trims anything beyond the intact prefix (the torn tail ReadAll
  // just clipped), so new appends land on a decodable boundary.
  XVR_ASSIGN_OR_RETURN(wal_, CatalogWal::Open(path, last_seq, env(),
                                              intact_bytes));
  return Status::Ok();
}

bool Engine::catalog_wal_enabled() const {
  MutexLock lock(&catalog_mu_);
  return wal_ != nullptr;
}

uint64_t Engine::catalog_wal_last_seq() const {
  MutexLock lock(&catalog_mu_);
  return wal_ == nullptr ? 0 : wal_->last_seq();
}

Result<SelectionResult> Engine::SelectViews(const TreePattern& query,
                                            AnswerStrategy strategy,
                                            AnswerStats* stats) const {
  // NOTE: the query is used as given — the cover node indices in the result
  // refer to it. AnswerQuery plans on the minimized pattern so that the
  // same pattern flows through selection and rewriting.
  ExecutionContext& ctx = ThreadContext();
  ctx.catalog = Catalog();  // lint:catalog-pin-ok (one snapshot per call)
  Result<SelectionResult> selection = planner_->Select(
      *ctx.catalog, query, strategy, stats, &ctx.nfa_scratch);
  // The result holds view ids, never pointers into the snapshot: drop the
  // pin, as AnswerQuery does.
  ctx.catalog = nullptr;
  return selection;
}

Result<Engine::Answer> Engine::AnswerQuery(const TreePattern& query,
                                           AnswerStrategy strategy) const {
  return AnswerQuery(query, strategy, QueryLimits());
}

Result<Engine::Answer> Engine::AnswerQuery(const TreePattern& query,
                                           AnswerStrategy strategy,
                                           const QueryLimits& limits) const {
  ExecutionContext& ctx = ThreadContext();
  ctx.limits = limits;
  Result<Answer> answer = pipeline_->Answer(query, strategy, &ctx);
  // Drop the pin: it would hold the snapshot alive until the thread's next
  // query.
  ctx.catalog = nullptr;
  return answer;
}

std::vector<Result<Engine::Answer>> Engine::BatchAnswer(
    std::span<const TreePattern> queries, AnswerStrategy strategy,
    int num_threads, const QueryLimits& limits) const {
  return pipeline_->BatchAnswer(queries, strategy, num_threads, limits);
}

Status Engine::SaveState(const std::string& path) const {
  // The writer mutex makes the saved image + checkpoint atomic with respect
  // to concurrent mutations (answering is unaffected: it reads snapshots).
  MutexLock lock(&catalog_mu_);
  const CatalogRef catalog = Catalog();  // lint:catalog-pin-ok (save source)
  KvStore kv;
  kv.Put("meta/doc", WriteXml(doc_, doc_.root()));
  // All views in ascending id order, including quarantined ones — their
  // patterns survive the round trip, marked so the restored engine
  // quarantines them again. Quarantine is the only marker: every other
  // view is fully materialized and its fragments are saved below.
  for (const auto& [id, pattern] : catalog->views) {
    const std::string key =
        "view/" + std::string(10 - std::min<size_t>(
                                       10, std::to_string(id).size()),
                              '0') +
        std::to_string(id);
    kv.Put(key, PatternToXPath(pattern, doc_.labels()));
    if (catalog->quarantined_views.count(id) > 0) {
      kv.Put("viewmeta/" + std::to_string(id), "quarantined");
    }
  }
  kv.Put("meta/next_view_id", std::to_string(catalog->next_view_id));
  // The WAL checkpoint: this image covers every mutation up to wal_seq, so
  // replay must skip records at or below it.
  const uint64_t wal_seq =
      wal_ != nullptr ? wal_->last_seq() : wal_checkpoint_seq_;
  kv.Put("meta/wal_seq", std::to_string(wal_seq));
  XVR_RETURN_IF_ERROR(catalog->fragments.SaveTo(&kv));
  // KvStore::SaveToFile writes via sync-temp-then-rename-then-syncdir with
  // a trailing checksum: a crash here — power cut included — cannot lose a
  // previous good image, and on any failure the engine keeps serving (and
  // re-saving) from unchanged in-memory state.
  int stale_tmps_removed = 0;
  XVR_RETURN_IF_ERROR(kv.SaveToFile(path, env(), &stale_tmps_removed));
  metrics_->storage_stale_tmp_removed->Add(
      static_cast<uint64_t>(stale_tmps_removed));
  wal_checkpoint_seq_ = wal_seq;
  if (wal_ != nullptr) {
    // The image is durable at this point. A failed truncate only leaves
    // stale records behind, and those are at or below the checkpoint the
    // image just recorded, so replay skips them — surface the error, but
    // the state is safe either way.
    XVR_RETURN_IF_ERROR(wal_->Truncate());
  }
  return Status::Ok();
}

Result<std::unique_ptr<Engine>> Engine::LoadState(const std::string& path,
                                                  EngineOptions options) {
  KvStore kv;
  // Pre-engine: no MeteredEnv exists yet, read through the raw env. The
  // torn-image checksum check happens inside LoadFromFile's Deserialize.
  XVR_RETURN_IF_ERROR(kv.LoadFromFile(
      path, options.env != nullptr ? options.env : DefaultEnv()));
  const std::string* doc_xml = kv.Get("meta/doc");
  if (doc_xml == nullptr) {
    return Status::ParseError("engine image has no document");
  }
  XmlTree doc;
  XVR_ASSIGN_OR_RETURN(doc, ParseXml(*doc_xml));
  doc.AssignDeweyCodes();
  auto engine = std::make_unique<Engine>(std::move(doc), std::move(options));

  // The restored catalog is assembled privately and published once at the
  // end: a reader of the returned engine only ever sees the complete state.
  CatalogSnapshot next;

  // Every id the image names must be one its catalog issued, below
  // next_view_id, before it indexes a table: the id tables size themselves
  // to the largest id they hold. Without the key the catalog issued none.
  const std::string* next_id = kv.Get("meta/next_view_id");
  if (next_id != nullptr && !ParseBoundedId(*next_id, int64_t{INT32_MAX} + 1,
                                            &next.next_view_id)) {
    return Status::ParseError("engine image has a malformed next view id " +
                              *next_id);
  }
  // The WAL checkpoint must parse exactly and leave a sequence number for
  // the next append: a misread or maximal one would make EnableCatalogWal
  // skip acked records and the next append wrap to 0. Without the key the
  // image covers no WAL record.
  uint64_t wal_checkpoint = 0;
  const std::string* wal_seq = kv.Get("meta/wal_seq");
  if (wal_seq != nullptr && (!ParseDecimalU64(*wal_seq, &wal_checkpoint) ||
                             wal_checkpoint == UINT64_MAX)) {
    return Status::ParseError("engine image has a malformed WAL checkpoint " +
                              *wal_seq);
  }
  // Restore views (patterns re-parsed against the restored dictionary).
  Status status = Status::Ok();
  kv.ScanPrefix("view/", [&](const std::string& key,
                             const std::string& xpath) {
    int32_t id = 0;
    if (!ParseBoundedId(std::string_view(key).substr(5), next.next_view_id,
                        &id)) {
      status = Status::ParseError("engine image key " + key +
                                  " names no view id below the next id " +
                                  std::to_string(next.next_view_id));
      return false;
    }
    Result<TreePattern> pattern = engine->Parse(xpath);
    if (!pattern.ok()) {
      status = pattern.status();
      return false;
    }
    next.views.Set(id, std::move(pattern).value());
    return true;
  });
  XVR_RETURN_IF_ERROR(status);
  // Fault-tolerant fragment load: a view with corrupt fragments is
  // quarantined (dropped from serving with a warning) instead of failing
  // the whole restore. Fragments and markers must name views the image
  // holds; anything else means its keys disagree with each other.
  std::vector<int32_t> frag_quarantined;
  XVR_RETURN_IF_ERROR(
      next.fragments.LoadFrom(kv, next.next_view_id, &frag_quarantined));
  std::vector<int32_t> frag_ids = next.fragments.view_ids();
  frag_ids.insert(frag_ids.end(), frag_quarantined.begin(),
                  frag_quarantined.end());
  for (const int32_t id : frag_ids) {
    if (!next.views.Contains(id)) {
      return Status::ParseError("engine image holds fragments of unknown view " +
                                std::to_string(id));
    }
  }
  kv.ScanPrefix("viewmeta/", [&](const std::string& key,
                                 const std::string& value) {
    int32_t id = 0;
    if (!ParseBoundedId(std::string_view(key).substr(9), next.next_view_id,
                        &id) ||
        !next.views.Contains(id)) {
      status = Status::ParseError("engine image key " + key +
                                  " marks no stored view");
      return false;
    }
    if (value != "quarantined") {
      status = Status::ParseError("engine image key " + key +
                                  " holds an unknown marker " + value);
      return false;
    }
    // Quarantined before the save; stays quarantined after the restore.
    next.quarantined_views.insert(id);
    return true;
  });
  XVR_RETURN_IF_ERROR(status);
  // Quarantine: remove corrupt-fragment views from every selection-facing
  // structure. Their patterns stay in the views map for diagnosis.
  for (const int32_t id : frag_quarantined) {
    next.quarantined_views.insert(id);
  }
  for (const int32_t id : next.quarantined_views) {  // lint:ordered-ok
    next.fragments.RemoveView(id);
  }
  // Every serving view is fully materialized, so a stored view without
  // fragments must carry the quarantine marker. VFILTER is an index over
  // the serving views, built here from their patterns (an image's
  // vfilter/image key, which older saves wrote, is never read).
  for (const int32_t id : next.view_ids()) {
    if (!next.fragments.HasView(id)) {
      return Status::ParseError("engine image holds no fragments of view " +
                                std::to_string(id) +
                                " and does not mark it quarantined");
    }
    next.vfilter.AddView(id, next.views[id]);
  }
  {
    MutexLock lock(&engine->catalog_mu_);
    engine->wal_checkpoint_seq_ = wal_checkpoint;
    // A wholesale swap: the full delta retires any plan cached against the
    // pristine (empty) catalog the constructor produced.
    engine->PublishCatalog(std::move(next), CatalogDelta::Full());
  }
  const CatalogRef restored = engine->Catalog();
  XVR_DEBUG_VALIDATE(ValidateVFilter(restored->vfilter));
  XVR_DEBUG_VALIDATE(ValidateFragmentStore(
      restored->fragments, *engine->doc_.fst(), restored->MakeLookup()));
  return engine;
}

Result<std::unique_ptr<Engine>> Engine::LoadStateWithWal(
    const std::string& path, const std::string& wal_path,
    EngineOptions options) {
  std::unique_ptr<Engine> engine;
  XVR_ASSIGN_OR_RETURN(engine, LoadState(path, std::move(options)));
  XVR_RETURN_IF_ERROR(engine->EnableCatalogWal(wal_path));
  return engine;
}

ServerStats Engine::ServerStats() const {
  xvr::ServerStats out;
  out.queries_total = metrics_->queries_total->Value();
  out.queries_ok = metrics_->queries_ok->Value();
  out.queries_failed = metrics_->queries_failed->Value();
  out.queries_deadline_exceeded =
      metrics_->queries_deadline_exceeded->Value();
  out.queries_cancelled = metrics_->queries_cancelled->Value();
  out.queries_budget_exhausted = metrics_->queries_budget_exhausted->Value();
  out.queries_degraded_selection =
      metrics_->queries_degraded_selection->Value();
  // From the cache itself: publish_entries_swept has no mirrored counter.
  if (plan_cache_ != nullptr) {
    out.plan_cache = plan_cache_->stats();
  }
  out.catalog_publishes = metrics_->catalog_publishes->Value();
  out.wal_appends = metrics_->wal_appends->Value();
  out.batch_queries = metrics_->batch_queries->Value();
  out.storage_syncs = metrics_->storage_syncs->Value();
  out.storage_io_errors = metrics_->storage_io_errors->Value();
  out.storage_enospc = metrics_->storage_enospc->Value();
  out.storage_stale_tmp_removed =
      metrics_->storage_stale_tmp_removed->Value();
  out.storage_recovery_wal_records_replayed =
      metrics_->storage_recovery_wal_records_replayed->Value();
  out.storage_recovery_tail_clipped =
      metrics_->storage_recovery_tail_clipped->Value();
  const CatalogRef catalog = Catalog();
  out.catalog_version = catalog->version;
  out.catalog_views = catalog->views.size();
  out.query_latency = metrics_->query_latency->TakeSnapshot();
  out.server_accepted = metrics_->server_accepted->Value();
  out.server_requests = metrics_->server_requests->Value();
  out.server_responses = metrics_->server_responses->Value();
  out.server_shed = metrics_->server_shed->Value();
  out.server_shed_queue_full = metrics_->server_shed_queue_full->Value();
  out.server_shed_queue_wait = metrics_->server_shed_queue_wait->Value();
  out.server_shed_draining = metrics_->server_shed_draining->Value();
  out.server_parse_reject = metrics_->server_parse_reject->Value();
  out.server_disconnect_cancel =
      metrics_->server_disconnect_cancel->Value();
  out.server_read_timeout = metrics_->server_read_timeout->Value();
  out.server_drain = metrics_->server_drain->Value();
  out.server_queue_wait = metrics_->server_queue_wait->TakeSnapshot();
  return out;
}

}  // namespace xvr
