#include "storage/catalog_wal.h"

#include <cstring>
#include <utility>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/hash.h"
#include "storage/env.h"

namespace xvr {
namespace {

template <typename T>
void PutScalar(T v, std::string* out) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

template <typename T>
bool ReadScalar(const std::string& bytes, size_t* pos, T* v) {
  if (*pos + sizeof(*v) > bytes.size()) {
    return false;
  }
  std::memcpy(v, bytes.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}

// Decodes one record body (everything between the length prefix and the
// checksum). False on any malformation.
bool DecodeBody(const std::string& body, CatalogWalRecord* record) {
  size_t pos = 0;
  uint8_t op = 0;
  uint32_t xpath_len = 0;
  if (!ReadScalar(body, &pos, &record->seq) || !ReadScalar(body, &pos, &op) ||
      !ReadScalar(body, &pos, &record->view_id) ||
      !ReadScalar(body, &pos, &xpath_len)) {
    return false;
  }
  if (op != static_cast<uint8_t>(CatalogWalOp::kAddView) &&
      op != static_cast<uint8_t>(CatalogWalOp::kRemoveView)) {
    return false;
  }
  if (pos + xpath_len != body.size()) {
    return false;
  }
  record->op = static_cast<CatalogWalOp>(op);
  record->xpath = body.substr(pos, xpath_len);
  return true;
}

bool SameRecord(const CatalogWalRecord& a, const CatalogWalRecord& b) {
  return a.seq == b.seq && a.op == b.op && a.view_id == b.view_id &&
         a.xpath == b.xpath;
}

}  // namespace

CatalogWal::CatalogWal(std::string path, uint64_t last_seq, Env* env,
                       uint64_t good_size)
    : path_(std::move(path)),
      last_seq_(last_seq),
      env_(env),
      good_size_(good_size) {}

CatalogWal::~CatalogWal() = default;

std::string EncodeCatalogWalRecord(const CatalogWalRecord& record) {
  std::string body;
  PutScalar(record.seq, &body);
  PutScalar(static_cast<uint8_t>(record.op), &body);
  PutScalar(record.view_id, &body);
  PutScalar(static_cast<uint32_t>(record.xpath.size()), &body);
  body.append(record.xpath);

  std::string out;
  PutScalar(static_cast<uint32_t>(body.size()), &out);
  out.append(body);
  PutScalar(Fnv1a(body), &out);
  return out;
}

Result<std::unique_ptr<CatalogWal>> CatalogWal::Open(const std::string& path,
                                                     uint64_t last_seq,
                                                     Env* env,
                                                     uint64_t keep_bytes) {
  if (env == nullptr) {
    env = DefaultEnv();
  }
  const bool existed = env->FileExists(path);
  uint64_t size = 0;
  if (existed) {
    auto bytes = env->ReadFile(path);
    if (!bytes.ok() && bytes.status().code() != StatusCode::kNotFound) {
      return bytes.status();
    }
    if (bytes.ok()) {
      size = bytes->size();
    }
  }
  const uint64_t good_size =
      keep_bytes == kNoTrim ? size : (keep_bytes < size ? keep_bytes : size);
  std::unique_ptr<CatalogWal> wal(
      new CatalogWal(path, last_seq, env, good_size));
  // Open (creating if absent) and cut any torn tail now, so the open
  // failure — and the repair — surface here, not on the first mutation.
  XVR_RETURN_IF_ERROR(wal->EnsureOpenAndRepaired());
  if (!existed) {
    // The log's directory entry must be durable before the first acked
    // append: an acked record in a file the directory forgot is lost.
    XVR_RETURN_IF_ERROR(env->SyncDir(DirOf(path)));
  }
  return wal;
}

Result<std::vector<CatalogWalRecord>> CatalogWal::ReadAll(
    const std::string& path, Env* env, uint64_t* intact_bytes,
    uint64_t* clipped_bytes) {
  if (intact_bytes != nullptr) {
    *intact_bytes = 0;
  }
  if (clipped_bytes != nullptr) {
    *clipped_bytes = 0;
  }
  XVR_FAULT_POINT("catalog_wal.replay",
                  return Status::IoError("injected: catalog_wal.replay"));
  std::vector<CatalogWalRecord> records;
  auto read = ReadFileToString(path, env);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) {
      return records;  // no log = empty log
    }
    return read.status();
  }
  const std::string& bytes = *read;
  size_t pos = 0;
  size_t intact = 0;  // through the last fully decoded record
  uint64_t prev_seq = 0;
  while (pos < bytes.size()) {
    // Any malformation from here on is a torn tail: keep the intact prefix.
    uint32_t body_len = 0;
    if (!ReadScalar(bytes, &pos, &body_len) ||
        pos + body_len + sizeof(uint64_t) > bytes.size()) {
      break;
    }
    const std::string body = bytes.substr(pos, body_len);
    pos += body_len;
    uint64_t checksum = 0;
    if (!ReadScalar(bytes, &pos, &checksum) || checksum != Fnv1a(body)) {
      break;
    }
    CatalogWalRecord record;
    if (!DecodeBody(body, &record)) {
      break;
    }
    if (!records.empty() && record.seq <= prev_seq) {
      if (SameRecord(record, records.back())) {
        // A retried append whose "failed" first attempt landed after all
        // (e.g. the ack's fsync blipped). Replaying it once is correct.
        intact = pos;
        continue;
      }
      break;  // sequence must strictly increase; anything else is rot
    }
    prev_seq = record.seq;
    records.push_back(std::move(record));
    intact = pos;
  }
  if (intact_bytes != nullptr) {
    *intact_bytes = intact;
  }
  if (clipped_bytes != nullptr) {
    *clipped_bytes = bytes.size() - intact;
  }
  return records;
}

Status CatalogWal::EnsureOpenAndRepaired() {
  if (file_ != nullptr) {
    return Status::Ok();
  }
  // Re-derive the on-disk size: a failed append leaves a torn tail beyond
  // good_size_; a partially applied truncate can leave the file *shorter*.
  uint64_t size = 0;
  auto bytes = env_->ReadFile(path_);
  if (bytes.ok()) {
    size = bytes->size();
  } else if (bytes.status().code() != StatusCode::kNotFound) {
    return bytes.status();
  }
  if (size < good_size_) {
    good_size_ = size;
  }
  auto opened = env_->NewWritableFile(path_, WriteMode::kAppend);
  if (!opened.ok()) {
    return opened.status();
  }
  file_ = std::move(opened).value();
  if (size > good_size_) {
    Status repaired = file_->TruncateTo(good_size_);
    if (repaired.ok()) {
      repaired = file_->Sync();
    }
    if (!repaired.ok()) {
      file_.reset();
      return repaired;
    }
  }
  return Status::Ok();
}

Status CatalogWal::AppendOnce(const std::string& encoded) {
  XVR_FAULT_POINT("catalog_wal.append",
                  return Status::IoError("injected: catalog_wal.append " +
                                         path_));
  XVR_RETURN_IF_ERROR(EnsureOpenAndRepaired());
  Status status = file_->Append(encoded);
  if (status.ok()) {
    // The ack contract: the record is on disk before the caller sees its
    // sequence number.
    status = file_->Sync();
  }
  if (!status.ok()) {
    // Drop the handle; the next attempt re-opens and truncates the torn
    // tail back to good_size_ before writing again.
    file_.reset();
    return status;
  }
  return Status::Ok();
}

Result<uint64_t> CatalogWal::Append(CatalogWalOp op, int32_t view_id,
                                    const std::string& xpath) {
  CatalogWalRecord record;
  record.seq = last_seq_ + 1;
  record.op = op;
  record.view_id = view_id;
  record.xpath = xpath;
  const std::string encoded = EncodeCatalogWalRecord(record);
  XVR_RETURN_IF_ERROR(
      WithRetry(RetryPolicy(), [&] { return AppendOnce(encoded); }));
  good_size_ += encoded.size();
  last_seq_ = record.seq;
  return record.seq;
}

Status CatalogWal::Truncate() {
  XVR_FAULT_POINT("catalog_wal.truncate",
                  return Status::IoError("injected: catalog_wal.truncate"));
  // Close the append handle first: the atomic empty-file install replaces
  // the inode, and appends must not keep landing in the orphaned old one.
  file_.reset();
  XVR_RETURN_IF_ERROR(
      WriteFileAtomic(path_, std::string(), RetryPolicy(), env_));
  good_size_ = 0;
  return Status::Ok();
}

}  // namespace xvr
