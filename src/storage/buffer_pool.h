// A small read-only page cache between readers and a PageStore: a fixed
// set of page-sized frames, pin/unpin reference counting, and clock
// (second-chance) eviction that never touches a pinned frame. Database
// files are immutable once saved, so pooled pages are never written back:
// eviction only drops a frame. OpenDatabase reads through it on the
// non-mmap path, and paged relations (storage/paged_tuple_store.h) scan
// their fragment extents through pinned frames.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "storage/page_store.h"
#include "util/status.h"

namespace tcf {

/// Counters for observability and tests. A hit is a Pin() that found the
/// page resident; an eviction is a frame reassigned to a new page; a
/// pin failure is a Pin() rejected because every frame was pinned.
/// `pinned_frames` / `peak_pinned_frames` count frames with at least one
/// outstanding pin (now / high-water) — the "peak pinned pages" series the
/// paged-query bench reports.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t pin_failures = 0;
  uint64_t pinned_frames = 0;
  uint64_t peak_pinned_frames = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Thread-safe (one coarse mutex — the pool serializes its PageStore, which
/// is allowed to be single-threaded). Frames are allocated up front:
/// `num_frames * page_size` bytes for the life of the pool.
class BufferPool {
 public:
  /// Ran on every miss-path fault-in, after the store read and before the
  /// page becomes resident (and thus before any hit can serve it). A
  /// non-OK return fails the Pin with that Status and leaves the pool
  /// unchanged, so a page that ever made it into a frame is known-good —
  /// readers of pooled bytes need no per-read re-verification. Called
  /// under the pool mutex; must not call back into the pool.
  using PageVerifier =
      std::function<Status(std::span<const uint8_t> page,
                           uint64_t page_index)>;

  /// A null `verifier` admits pages unverified (callers verify reads
  /// themselves); database files install a checksum verifier so fault-ins
  /// uphold the corruption contract (docs/STORAGE.md §5.1).
  BufferPool(PageStore* store, size_t num_frames,
             PageVerifier verifier = nullptr);

  /// RAII pin on a resident page. While any PageRef to a page is live, its
  /// frame will not be evicted and its bytes will not move. Move-only.
  class PageRef {
   public:
    PageRef() = default;
    ~PageRef() { Release(); }
    PageRef(PageRef&& other) noexcept { *this = std::move(other); }
    PageRef& operator=(PageRef&& other) noexcept;
    PageRef(const PageRef&) = delete;
    PageRef& operator=(const PageRef&) = delete;

    /// Read-only view of the page bytes.
    const uint8_t* data() const { return data_; }

    uint64_t page_index() const { return page_index_; }
    bool valid() const { return pool_ != nullptr; }

   private:
    friend class BufferPool;
    PageRef(BufferPool* pool, size_t frame, uint64_t page_index,
            const uint8_t* data)
        : pool_(pool), frame_(frame), page_index_(page_index), data_(data) {}
    void Release();

    BufferPool* pool_ = nullptr;
    size_t frame_ = 0;
    uint64_t page_index_ = 0;
    const uint8_t* data_ = nullptr;
  };

  /// Pin page `page_index`, faulting it in from the store on a miss.
  /// Fails with a descriptive kFailedPrecondition Status (never a crash)
  /// if every frame is pinned — callers observe pool exhaustion and can
  /// shed, retry, or read around the pool — or with the store's error if
  /// the read fails, or with the verifier's error if the freshly read
  /// page does not verify (the pool is unchanged in every failure case).
  Result<PageRef> Pin(uint64_t page_index);

  size_t num_frames() const { return frames_.size(); }
  size_t page_size() const { return page_size_; }
  BufferPoolStats stats() const;

 private:
  struct Frame {
    uint64_t page_index = 0;
    uint32_t pin_count = 0;
    bool occupied = false;
    bool referenced = false;  // clock second-chance bit
  };

  // All require `mutex_` held.
  Result<size_t> FindVictimLocked();
  void EvictLocked(size_t frame);
  void NotePinnedLocked() {
    ++stats_.pinned_frames;
    stats_.peak_pinned_frames =
        std::max(stats_.peak_pinned_frames, stats_.pinned_frames);
  }

  // Called by PageRef; takes the mutex itself.
  void Unpin(size_t frame);

  uint8_t* FrameData(size_t frame) {
    return storage_.data() + frame * page_size_;
  }

  PageStore* store_;
  size_t page_size_;
  PageVerifier verifier_;

  mutable std::mutex mutex_;
  std::vector<Frame> frames_;
  std::vector<uint8_t> storage_;  // num_frames * page_size bytes
  std::unordered_map<uint64_t, size_t> page_to_frame_;
  size_t clock_hand_ = 0;
  BufferPoolStats stats_;
};

}  // namespace tcf
