#ifndef XVR_COMMON_COW_TABLE_H_
#define XVR_COMMON_COW_TABLE_H_

// An id-indexed copy-on-write table. The catalog snapshot keeps its
// per-view and per-state maps in these (view id -> pattern, view id ->
// fragments, NFA state id -> state), so publishing a catalog mutation
// copies a few dozen chunk pointers instead of every entry.
//
// Entries live in chunks of kChunkSize slots, each chunk held by a
// shared_ptr. A copy of a table shares every chunk. The first write to a
// chunk after a copy clones that chunk alone; later writes to it in the
// same table go to the clone in place (one NFA insert touches the same
// chunk several times). Reads — Find, operator[] and iteration — are const
// and never clone. Writes go through the separately named Set, Mutable and
// Erase, so a read inside a non-const method cannot clone by accident.
//
// Ownership is decided by edit tokens, not by shared_ptr::use_count(),
// whose relaxed read is not ordered after another thread's release of a
// snapshot sharing the chunk, so an in-place write it allowed would race.
// Every table holds a token no other table holds, and a chunk records the
// token of the table that allocated or cloned it; a table writes a chunk in
// place only when the chunk carries its token. A copy gives both tables
// fresh tokens, so neither may write the chunks they now share. That
// includes the source, which is why the token is mutable: copying a const
// table changes which chunks it may write later, never what it holds.
//
// Ids are non-negative int32. The catalog never reuses one, so the chunk
// pointer vector grows with the largest id ever set (16 bytes per 64 ids);
// a chunk whose entries are all erased is released. Iteration runs by
// ascending id and skips empty slots.
//
// Thread-safety: that of a standard container — concurrent readers, or one
// writer. Readers never look at the token, so copying a table that other
// threads are reading is safe.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace xvr {

namespace cow_table_internal {

// Process-wide, so no two live tables ever hold the same token.
inline uint64_t NewToken() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace cow_table_internal

template <typename T>
class CowTable {
 public:
  // 64 slots: at 4,000 views a publication copies 63 chunk pointers per
  // view table and 36 for the NFA, while the few chunks a mutation clones
  // stay small next to a whole-table copy.
  static constexpr int kChunkBits = 6;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;

  CowTable() = default;

  // A copy shares every chunk; neither table may write them in place
  // afterwards, so both take fresh tokens.
  CowTable(const CowTable& other)
      : chunks_(other.chunks_), size_(other.size_) {
    other.token_ = cow_table_internal::NewToken();
  }
  // A move hands over the chunks together with the right to write them.
  CowTable(CowTable&& other) noexcept { Swap(other); }
  CowTable& operator=(CowTable other) noexcept {
    Swap(other);
    return *this;
  }

  // --- reads ----------------------------------------------------------------

  // Number of entries.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The entry at `id`, or nullptr (any id, negative or past the end).
  const T* Find(int32_t id) const {
    if (id < 0 || ChunkOf(id) >= chunks_.size()) {
      return nullptr;
    }
    const Chunk* chunk = chunks_[ChunkOf(id)].get();
    if (chunk == nullptr) {
      return nullptr;
    }
    const std::optional<T>& entry = chunk->entries[SlotOf(id)];
    return entry.has_value() ? &*entry : nullptr;
  }

  bool Contains(int32_t id) const { return Find(id) != nullptr; }

  // The entry at `id`, which must exist: two loads, no checks in Release.
  const T& operator[](int32_t id) const {
    XVR_DCHECK(Contains(id)) << "no entry " << id;
    return *chunks_[ChunkOf(id)]->entries[SlotOf(id)];
  }

  // Ascending-id iteration over the entries; dereferencing yields
  // (id, entry).
  class ConstIterator {
   public:
    std::pair<int32_t, const T&> operator*() const {
      const int32_t id = static_cast<int32_t>(pos_);
      return {id, (*table_)[id]};
    }
    ConstIterator& operator++() {
      pos_ = table_->NextPos(pos_ + 1);
      return *this;
    }
    bool operator==(const ConstIterator& other) const {
      return pos_ == other.pos_;
    }

   private:
    friend class CowTable;
    ConstIterator(const CowTable* table, size_t pos)
        : table_(table), pos_(pos) {}
    const CowTable* table_;
    size_t pos_;
  };

  ConstIterator begin() const { return ConstIterator(this, NextPos(0)); }
  ConstIterator end() const { return ConstIterator(this, EndPos()); }

  // --- writes ---------------------------------------------------------------

  // Inserts or replaces the entry at `id` (>= 0) and returns it.
  T& Set(int32_t id, T value) {
    XVR_CHECK(id >= 0) << "negative table id " << id;
    const size_t c = ChunkOf(id);
    if (c >= chunks_.size()) {
      chunks_.resize(c + 1);
    }
    if (chunks_[c] == nullptr) {
      chunks_[c] = std::make_shared<Chunk>(token_);
    }
    Chunk& chunk = OwnChunk(c);
    std::optional<T>& entry = chunk.entries[SlotOf(id)];
    if (!entry.has_value()) {
      ++chunk.live;
      ++size_;
    }
    entry = std::move(value);
    return *entry;
  }

  // Write access to the entry at `id`, which must exist. Clones its chunk
  // first when this table does not own it.
  T& Mutable(int32_t id) {
    XVR_CHECK(Contains(id)) << "no entry " << id;
    return *OwnChunk(ChunkOf(id)).entries[SlotOf(id)];
  }

  // Removes the entry at `id`; false when there is none.
  bool Erase(int32_t id) {
    if (!Contains(id)) {
      return false;
    }
    const size_t c = ChunkOf(id);
    if (chunks_[c]->live == 1) {
      chunks_[c].reset();  // its last entry: release the chunk
    } else {
      Chunk& chunk = OwnChunk(c);
      chunk.entries[SlotOf(id)].reset();
      --chunk.live;
    }
    --size_;
    return true;
  }

 private:
  struct Chunk {
    explicit Chunk(uint64_t owner_token) : owner(owner_token) {}
    Chunk(const Chunk& from, uint64_t owner_token)
        : owner(owner_token), live(from.live), entries(from.entries) {}

    const uint64_t owner;  // the token of the table that may write it
    size_t live = 0;       // engaged entries
    std::array<std::optional<T>, kChunkSize> entries;
  };

  static size_t ChunkOf(int32_t id) {
    return static_cast<size_t>(id) >> kChunkBits;
  }
  static size_t SlotOf(int32_t id) {
    return static_cast<size_t>(id) & (kChunkSize - 1);
  }

  void Swap(CowTable& other) noexcept {
    chunks_.swap(other.chunks_);
    std::swap(size_, other.size_);
    const uint64_t token = token_;
    token_ = other.token_.load();
    other.token_ = token;
  }

  Chunk& OwnChunk(size_t c) {
    std::shared_ptr<Chunk>& chunk = chunks_[c];
    if (chunk->owner != token_) {
      chunk = std::make_shared<Chunk>(*chunk, token_);
    }
    return *chunk;
  }

  size_t EndPos() const { return chunks_.size() << kChunkBits; }

  // The first position >= pos holding an entry, or EndPos().
  size_t NextPos(size_t pos) const {
    for (; pos < EndPos(); ++pos) {
      const Chunk* chunk = chunks_[pos >> kChunkBits].get();
      if (chunk == nullptr) {
        pos |= kChunkSize - 1;  // skip the rest of an empty chunk
        continue;
      }
      if (chunk->entries[pos & (kChunkSize - 1)].has_value()) {
        return pos;
      }
    }
    return EndPos();
  }

  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t size_ = 0;
  // Replaced by every copy made of this table; atomic, so two threads
  // copying one published table do not race on it.
  mutable std::atomic<uint64_t> token_{cow_table_internal::NewToken()};
};

}  // namespace xvr

#endif  // XVR_COMMON_COW_TABLE_H_
