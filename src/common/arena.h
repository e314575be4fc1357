#ifndef XVR_COMMON_ARENA_H_
#define XVR_COMMON_ARENA_H_

// A per-query bump allocator (the hot-path memory architecture's base
// layer). One Arena lives in each ExecutionContext — Engine::AnswerQuery
// keeps one per calling thread, BatchAnswer one per worker — and the
// rewrite calls Reset() on entry, so every transient allocation made while
// answering one query — join tables, signature stores, recursion scratch —
// is a pointer bump into memory that is already warm from the previous
// query on the same thread.
//
// Properties:
//   - chunked growth: allocation never moves existing objects (chunks are
//     chained, not reallocated), so pointers into the arena stay valid
//     until Reset();
//   - Reset() retains capacity: chunks are kept and reused, so a steady
//     query stream reaches a high-water mark once and then stops touching
//     the system allocator entirely;
//   - trivial destruction only: the arena never runs destructors. Objects
//     placed in it must be trivially destructible, or be managed through
//     ArenaVector (whose element buffer lives in the arena while the
//     vector header lives on the stack).
//
// Not thread-safe: an Arena belongs to exactly one ExecutionContext and one
// thread, like the rest of the per-call scratch (see core/pipeline.h).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace xvr {

class Arena {
 public:
  static constexpr size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(size_t min_chunk_bytes = kDefaultChunkBytes)
      : min_chunk_bytes_(min_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `bytes` bytes aligned to `align` (a power of two). Never
  // returns nullptr; a request that does not fit the current chunk opens a
  // new chunk of at least max(min_chunk_bytes_, bytes).
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    size_t p = (pos_ + align - 1) & ~(align - 1);
    if (p + bytes > limit_) {
      AddChunk(bytes + align);
      p = (pos_ + align - 1) & ~(align - 1);
    }
    pos_ = p + bytes;
    bytes_allocated_ += bytes;
    if (bytes_allocated_ > high_water_) {
      high_water_ = bytes_allocated_;
    }
    return reinterpret_cast<void*>(p);
  }

  template <typename T>
  T* AllocateArray(size_t n) {
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  // Rewinds to empty while keeping every chunk for reuse. O(1) apart from
  // resetting the chunk cursor; never returns memory to the system.
  void Reset() {
    chunk_index_ = 0;
    bytes_allocated_ = 0;
    if (chunks_.empty()) {
      pos_ = limit_ = 0;
    } else {
      pos_ = reinterpret_cast<uintptr_t>(chunks_[0].data.get());
      limit_ = pos_ + chunks_[0].size;
    }
  }

  // --- gauges (obs wiring: xvr.arena.bytes_allocated / .high_water) -------

  // Bytes handed out since the last Reset() (payload only, not padding).
  size_t bytes_allocated() const { return bytes_allocated_; }
  // Largest bytes_allocated() ever observed over the arena's lifetime.
  size_t high_water() const { return high_water_; }
  // Bytes of chunk capacity currently held (survives Reset()).
  size_t bytes_reserved() const {
    size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  void AddChunk(size_t need) {
    // Reuse a retained chunk when the next one is big enough; otherwise
    // allocate a fresh chunk (doubling keeps chunk count logarithmic).
    while (chunk_index_ + 1 < chunks_.size()) {
      ++chunk_index_;
      const Chunk& c = chunks_[chunk_index_];
      if (c.size >= need) {
        pos_ = reinterpret_cast<uintptr_t>(c.data.get());
        limit_ = pos_ + c.size;
        return;
      }
    }
    size_t size = min_chunk_bytes_ << chunks_.size();
    if (size < need) size = need;
    if (size < min_chunk_bytes_) size = min_chunk_bytes_;
    Chunk chunk;
    chunk.data = std::make_unique<char[]>(size);
    chunk.size = size;
    pos_ = reinterpret_cast<uintptr_t>(chunk.data.get());
    limit_ = pos_ + size;
    chunks_.push_back(std::move(chunk));
    chunk_index_ = chunks_.size() - 1;
  }

  size_t min_chunk_bytes_;
  std::vector<Chunk> chunks_;
  size_t chunk_index_ = 0;
  uintptr_t pos_ = 0;
  uintptr_t limit_ = 0;
  size_t bytes_allocated_ = 0;
  size_t high_water_ = 0;
};

// STL-compatible allocator adapter. Containers built with it draw their
// element buffers from the arena and "free" by doing nothing — Reset()
// reclaims everything at once. The arena must outlive the container.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) { return arena_->AllocateArray<T>(n); }
  void deallocate(T*, size_t) {}  // reclaimed wholesale by Arena::Reset()

  Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ != b.arena_;
  }

 private:
  Arena* arena_;
};

// A std::vector whose buffer lives in the arena: the growth-by-copy garbage
// is cheap bump allocations, and there is nothing to free per element.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace xvr

#endif  // XVR_COMMON_ARENA_H_
