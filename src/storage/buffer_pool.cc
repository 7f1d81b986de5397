#include "storage/buffer_pool.h"

#include <string>
#include <utility>

namespace tcf {

BufferPool::PageRef& BufferPool::PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = std::exchange(other.pool_, nullptr);
    frame_ = other.frame_;
    page_index_ = other.page_index_;
    data_ = std::exchange(other.data_, nullptr);
  }
  return *this;
}

void BufferPool::PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    data_ = nullptr;
  }
}

BufferPool::BufferPool(PageStore* store, size_t num_frames,
                       PageVerifier verifier)
    : store_(store),
      page_size_(store->page_size()),
      verifier_(std::move(verifier)) {
  TCF_CHECK(num_frames > 0);
  frames_.resize(num_frames);
  storage_.resize(num_frames * page_size_);
  page_to_frame_.reserve(num_frames);
}

Result<BufferPool::PageRef> BufferPool::Pin(uint64_t page_index) {
  std::lock_guard<std::mutex> lock(mutex_);

  auto it = page_to_frame_.find(page_index);
  if (it != page_to_frame_.end()) {
    Frame& frame = frames_[it->second];
    ++frame.pin_count;
    if (frame.pin_count == 1) NotePinnedLocked();
    frame.referenced = true;
    ++stats_.hits;
    return PageRef(this, it->second, page_index, FrameData(it->second));
  }

  ++stats_.misses;
  Result<size_t> victim = FindVictimLocked();
  if (!victim.ok()) {
    ++stats_.pin_failures;
    return victim.status();
  }
  const size_t frame_idx = victim.value();
  EvictLocked(frame_idx);

  // The frame is free; fault the page in. On read or verification failure
  // the frame stays unoccupied and the pool is unchanged.
  TCF_RETURN_NOT_OK(store_->ReadPage(page_index, FrameData(frame_idx)));
  if (verifier_ != nullptr) {
    // Verify-on-fault-in: a page only ever becomes resident after passing
    // the verifier, so hits (and every later read of pooled bytes) are
    // covered without re-checking — the §5.1 contract for caches.
    TCF_RETURN_NOT_OK(
        verifier_({FrameData(frame_idx), page_size_}, page_index));
  }

  Frame& frame = frames_[frame_idx];
  frame.page_index = page_index;
  frame.pin_count = 1;
  frame.occupied = true;
  frame.referenced = true;
  NotePinnedLocked();
  page_to_frame_[page_index] = frame_idx;
  return PageRef(this, frame_idx, page_index, FrameData(frame_idx));
}

Result<size_t> BufferPool::FindVictimLocked() {
  // Classic clock: sweep, clearing second-chance bits; an unpinned frame
  // with its bit already clear is the victim. Two full sweeps guarantee we
  // either find one or prove every frame is pinned.
  for (size_t step = 0; step < 2 * frames_.size(); ++step) {
    Frame& frame = frames_[clock_hand_];
    const size_t candidate = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    if (!frame.occupied) return candidate;
    if (frame.pin_count > 0) continue;
    if (frame.referenced) {
      frame.referenced = false;
      continue;
    }
    return candidate;
  }
  return Status::FailedPrecondition(
      "BufferPool: cannot evict: all " + std::to_string(frames_.size()) +
      " frames hold pinned pages (" + std::to_string(stats_.pinned_frames) +
      " pinned); release a PageRef or open with more frames");
}

void BufferPool::EvictLocked(size_t frame_idx) {
  Frame& frame = frames_[frame_idx];
  if (!frame.occupied) return;
  TCF_CHECK(frame.pin_count == 0);
  page_to_frame_.erase(frame.page_index);
  frame.occupied = false;
  frame.referenced = false;
  ++stats_.evictions;
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void BufferPool::Unpin(size_t frame_idx) {
  std::lock_guard<std::mutex> lock(mutex_);
  Frame& frame = frames_[frame_idx];
  TCF_CHECK(frame.pin_count > 0);
  --frame.pin_count;
  if (frame.pin_count == 0) {
    TCF_CHECK(stats_.pinned_frames > 0);
    --stats_.pinned_frames;
  }
}

}  // namespace tcf
