#ifndef XVR_STORAGE_CATALOG_WAL_H_
#define XVR_STORAGE_CATALOG_WAL_H_

// The catalog write-ahead log: durability for view mutations between full
// SaveState images.
//
// Every AddView/RemoveView appends one checksummed record here *before* the successor catalog snapshot is
// published, and the record is fdatasync'd (WritableFile::Sync) before
// Append returns its acked sequence number — so the sequence an engine
// hands back is durable against power loss, not merely flushed to the OS
// page cache. A crash at any point loses at most the single in-flight
// (un-acked) mutation. A record carries only what is needed to replay the
// mutation deterministically against the base document — the op, the
// assigned id and, for an add, the (minimized) view pattern as XPath; the
// fragments themselves are derived data and are re-materialized on replay.
//
// On-disk format, per record (little-endian):
//
//   u32 body_len | body | u64 fnv1a(body)
//   body = u64 seq | u8 op | i32 view_id | u32 xpath_len | xpath bytes
//
// Sequence numbers are strictly increasing across the life of the engine
// (they do NOT reset on Truncate), which lets a SaveState image record the
// last sequence it covers ("meta/wal_seq"): replay skips records at or
// below that checkpoint, so even a failed post-save Truncate — stale
// records left behind — cannot double-apply a mutation.
//
// ReadAll stops at the first torn or corrupt record and returns the intact
// prefix: a crash mid-append surfaces as a lost tail, never as a decode
// error, and recovery is always equivalent to some prefix of the mutation
// sequence. The writer keeps the log appendable after failures by cutting
// its own torn tails: a failed append closes the handle, and the next
// attempt reopens and truncates back to the last acked record boundary
// before writing again.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace xvr {

class Env;
class WritableFile;

// The on-disk op byte. 1 and 2 named the retired codes-only and
// pattern-only adds; ReadAll treats them like any other unknown op, as the
// end of the intact prefix.
enum class CatalogWalOp : uint8_t {
  kAddView = 0,  // materialize fragments + index in VFILTER
  kRemoveView = 3,
};

struct CatalogWalRecord {
  uint64_t seq = 0;
  CatalogWalOp op = CatalogWalOp::kAddView;
  int32_t view_id = -1;
  std::string xpath;  // empty for kRemoveView
};

class CatalogWal {
 public:
  // Out of line: WritableFile is forward-declared here.
  ~CatalogWal();

  // `keep_bytes` sentinel: trust the bytes currently on disk.
  static constexpr uint64_t kNoTrim = ~uint64_t{0};

  // Opens `path` for appending, creating it if absent (and syncing the
  // parent directory when it does create — the log's directory entry must
  // be durable before the first acked append). Existing records are not
  // interpreted here — callers ReadAll() first and pass the highest
  // sequence number already on disk (or the image checkpoint, whichever is
  // larger) so new appends continue the strictly increasing sequence.
  // `keep_bytes`, when not kNoTrim, is ReadAll's intact-prefix size: any
  // bytes beyond it are a torn tail and are cut off at open. `env`
  // defaults to DefaultEnv().
  static Result<std::unique_ptr<CatalogWal>> Open(const std::string& path,
                                                  uint64_t last_seq,
                                                  Env* env = nullptr,
                                                  uint64_t keep_bytes =
                                                      kNoTrim);

  // Decodes every intact record of `path` in order. A missing file is an
  // empty log. Decoding stops silently at the first torn/corrupt record,
  // unknown op or non-increasing sequence number (the crash tail);
  // everything before it
  // is returned. An exact duplicate of the previous record (same seq and
  // payload — a retried append whose first attempt landed after all) is
  // skipped, not treated as rot. `intact_bytes`/`clipped_bytes`, when
  // non-null, receive the decoded-prefix size and how many trailing bytes
  // were dropped (for recovery metrics and Open's keep_bytes).
  static Result<std::vector<CatalogWalRecord>> ReadAll(
      const std::string& path, Env* env = nullptr,
      uint64_t* intact_bytes = nullptr, uint64_t* clipped_bytes = nullptr);

  // Appends one record with the next sequence number. The record is
  // durable (fdatasync) before the acked sequence is returned. Transient
  // I/O failures are retried with capped exponential backoff
  // (common/file_util.h); each retry first truncates any torn tail the
  // failed attempt left, so a final failure leaves the log exactly at the
  // last acked record boundary and the mutation must not be published.
  Result<uint64_t> Append(CatalogWalOp op, int32_t view_id,
                          const std::string& xpath);

  // Empties the log (after a successful SaveState covered its records) by
  // atomically installing an empty file (WriteFileAtomic: sync + rename +
  // syncdir). On failure the old records stay behind harmlessly — replay
  // skips them via the image checkpoint. Sequence numbers keep increasing
  // across truncations.
  Status Truncate();

  const std::string& path() const { return path_; }
  uint64_t last_seq() const { return last_seq_; }

 private:
  CatalogWal(std::string path, uint64_t last_seq, Env* env,
             uint64_t good_size);

  // Opens the append handle if needed, repairing any divergence between
  // the on-disk size and good_size_ (torn tails from failed appends, a
  // file shrunk by a partially applied truncate).
  Status EnsureOpenAndRepaired();
  // One append+sync attempt; on any failure the handle is dropped so the
  // next attempt re-opens and re-repairs.
  Status AppendOnce(const std::string& encoded);

  std::string path_;
  uint64_t last_seq_ = 0;
  Env* env_;
  std::unique_ptr<WritableFile> file_;
  // Bytes through the last acked (synced) record — the repair boundary.
  uint64_t good_size_ = 0;
};

// Serialization of a single record (exposed for tests and validation).
std::string EncodeCatalogWalRecord(const CatalogWalRecord& record);

}  // namespace xvr

#endif  // XVR_STORAGE_CATALOG_WAL_H_
