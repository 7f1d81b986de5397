// Unit tests for the storage primitives under the database format: CRC32C
// known-answer vectors, page seal/check round trips and tamper detection,
// MemPageStore/FilePageStore/MmapFile behavior, and the BufferPool's
// pin/unpin, clock-eviction and pool-exhaustion contracts
// (including a concurrent pin hammer for the TSan leg).
#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "storage/crc32c.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace tcf {
namespace {

// ---------------------------------------------------------------------------
// CRC32C

TEST(Crc32cTest, KnownAnswerVectors) {
  // The canonical CRC32C check vector (RFC 3720 appendix / every
  // implementation's self-test).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // 32 zero bytes (iSCSI test pattern).
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xff);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, ChainingMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t first = Crc32c(data.data(), split);
    const uint32_t chained =
        Crc32c(data.data() + split, data.size() - split, first);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(512);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131);
  }
  const uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t bit = 0; bit < data.size() * 8; bit += 97) {
    data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32c(data.data(), data.size()), clean) << "bit " << bit;
    data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

// ---------------------------------------------------------------------------
// Page codec

TEST(PageTest, ValidPageSizes) {
  EXPECT_TRUE(ValidPageSize(512));
  EXPECT_TRUE(ValidPageSize(8192));
  EXPECT_TRUE(ValidPageSize(1u << 20));
  EXPECT_FALSE(ValidPageSize(0));
  EXPECT_FALSE(ValidPageSize(256));    // below minimum
  EXPECT_FALSE(ValidPageSize(1000));   // not a power of two
  EXPECT_FALSE(ValidPageSize(2u << 20));  // above maximum
}

TEST(PageTest, SealCheckRoundTrip) {
  std::vector<uint8_t> page(512, 0xAB);  // dirty buffer: seal must zero pad
  const std::string payload = "fragment bytes";
  std::memcpy(page.data() + kPageHeaderSize, payload.data(), payload.size());
  SealPage(page, PageType::kData, 42,
           static_cast<uint32_t>(payload.size()));

  Result<PageHeader> header = CheckPage(page, 42);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header.value().type, PageType::kData);
  EXPECT_EQ(header.value().page_index, 42u);
  EXPECT_EQ(header.value().payload_len, payload.size());
  // Padding beyond the payload was zeroed.
  for (size_t i = kPageHeaderSize + payload.size(); i < page.size(); ++i) {
    EXPECT_EQ(page[i], 0u) << "byte " << i;
  }
}

TEST(PageTest, EveryBitFlipIsDetected) {
  std::vector<uint8_t> page(512);
  SealPage(page, PageType::kData, 7, 100);
  for (size_t bit = 0; bit < page.size() * 8; bit += 61) {
    page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(CheckPage(page, 7).ok()) << "bit " << bit;
    page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  EXPECT_TRUE(CheckPage(page, 7).ok());
}

TEST(PageTest, WrongIndexIsRejected) {
  std::vector<uint8_t> page(512);
  SealPage(page, PageType::kData, 3, 0);
  EXPECT_TRUE(CheckPage(page, 3).ok());
  const Result<PageHeader> wrong = CheckPage(page, 4);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(PageTest, ChecksumMismatchIsIOError) {
  std::vector<uint8_t> page(512);
  SealPage(page, PageType::kData, 0, 8);
  page[kPageHeaderSize] ^= 1;  // corrupt payload, leave stored checksum
  const Result<PageHeader> result = CheckPage(page, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Page stores

std::vector<uint8_t> SealedPage(size_t page_size, uint64_t index,
                                uint8_t fill) {
  std::vector<uint8_t> page(page_size);
  const size_t capacity = PagePayloadCapacity(page_size);
  std::memset(page.data() + kPageHeaderSize, fill, capacity);
  SealPage(page, PageType::kData, index,
           static_cast<uint32_t>(capacity));
  return page;
}

TEST(MemPageStoreTest, AppendReadAndBounds) {
  MemPageStore store(512);
  EXPECT_EQ(store.page_count(), 0u);
  const auto page = SealedPage(512, 0, 0x5A);
  ASSERT_TRUE(store.WritePage(0, page.data()).ok());
  EXPECT_EQ(store.page_count(), 1u);

  std::vector<uint8_t> out(512);
  ASSERT_TRUE(store.ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, page);

  EXPECT_EQ(store.ReadPage(1, out.data()).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(store.WritePage(5, page.data()).code(),
            StatusCode::kOutOfRange);  // would leave a hole
}

class FileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "buffer_pool_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".pages";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(FileStoreTest, CreateWriteReopenRead) {
  {
    auto created = FilePageStore::Create(path_, 512);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto& store = *created.value();
    for (uint64_t i = 0; i < 4; ++i) {
      const auto page = SealedPage(512, i, static_cast<uint8_t>(i));
      ASSERT_TRUE(store.WritePage(i, page.data()).ok());
    }
    ASSERT_TRUE(store.Sync().ok());
  }
  auto opened = FilePageStore::Open(path_, 512, /*read_only=*/true);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& store = *opened.value();
  EXPECT_EQ(store.page_count(), 4u);
  std::vector<uint8_t> out(512);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.ReadPage(i, out.data()).ok());
    EXPECT_EQ(out, SealedPage(512, i, static_cast<uint8_t>(i)));
  }
  // Read-only stores refuse writes.
  EXPECT_EQ(store.WritePage(0, out.data()).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FileStoreTest, OpenRejectsNonMultipleSize) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a page multiple", f);
  std::fclose(f);
  auto opened = FilePageStore::Open(path_, 512, /*read_only=*/true);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FileStoreTest, MmapWholeFile) {
  {
    auto created = FilePageStore::Create(path_, 512);
    ASSERT_TRUE(created.ok());
    const auto page = SealedPage(512, 0, 0x77);
    ASSERT_TRUE(created.value()->WritePage(0, page.data()).ok());
    ASSERT_TRUE(created.value()->Sync().ok());
  }
  auto mapped = MmapFile::Map(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().bytes().size(), 512u);
  EXPECT_TRUE(CheckPage(mapped.value().bytes(), 0).ok());

  // Move semantics: the mapping survives the move, the source is empty.
  MmapFile moved = std::move(mapped).value();
  EXPECT_EQ(moved.bytes().size(), 512u);
}

TEST(MmapFileTest, MissingAndEmptyFiles) {
  EXPECT_FALSE(MmapFile::Map("/nonexistent/tcfrag.pages").ok());
  const std::string empty_path = ::testing::TempDir() + "empty_mmap_test";
  std::FILE* f = std::fopen(empty_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_FALSE(MmapFile::Map(empty_path).ok());
  std::remove(empty_path.c_str());
}

// ---------------------------------------------------------------------------
// BufferPool

class BufferPoolTest : public ::testing::Test {
 protected:
  static constexpr size_t kPageSize = 512;

  void FillStore(size_t pages) {
    for (uint64_t i = 0; i < pages; ++i) {
      const auto page = SealedPage(kPageSize, i, static_cast<uint8_t>(i));
      ASSERT_TRUE(store_.WritePage(i, page.data()).ok());
    }
  }

  MemPageStore store_{kPageSize};
};

TEST_F(BufferPoolTest, HitsAndMisses) {
  FillStore(4);
  BufferPool pool(&store_, 2);
  {
    auto a = pool.Pin(0);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.value().page_index(), 0u);
    EXPECT_EQ(a.value().data()[kPageHeaderSize], 0u);
  }
  {
    auto again = pool.Pin(0);  // resident: a hit
    ASSERT_TRUE(again.ok());
  }
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(BufferPoolTest, EvictionCyclesThroughFrames) {
  FillStore(8);
  BufferPool pool(&store_, 2);
  for (uint64_t i = 0; i < 8; ++i) {
    auto ref = pool.Pin(i);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref.value().data()[kPageHeaderSize], static_cast<uint8_t>(i));
  }
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 8u);
  EXPECT_GE(stats.evictions, 6u);  // at least 8 pages through 2 frames
}

TEST_F(BufferPoolTest, PinnedPagesAreNeverEvicted) {
  FillStore(4);
  BufferPool pool(&store_, 2);
  auto pinned = pool.Pin(0);
  ASSERT_TRUE(pinned.ok());
  const uint8_t* pinned_bytes = pinned.value().data();
  // Stream every other page through the remaining frame.
  for (int round = 0; round < 3; ++round) {
    for (uint64_t i = 1; i < 4; ++i) {
      auto ref = pool.Pin(i);
      ASSERT_TRUE(ref.ok());
    }
  }
  // The pinned frame still holds page 0's bytes.
  EXPECT_EQ(pinned.value().data(), pinned_bytes);
  EXPECT_EQ(pinned_bytes[kPageHeaderSize], 0u);
  EXPECT_TRUE(CheckPage({pinned_bytes, kPageSize}, 0).ok());
}

TEST_F(BufferPoolTest, AllFramesPinnedFailsCleanly) {
  FillStore(3);
  BufferPool pool(&store_, 2);
  auto a = pool.Pin(0);
  auto b = pool.Pin(1);
  ASSERT_TRUE(a.ok() && b.ok());
  auto c = pool.Pin(2);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kFailedPrecondition);
  // The status is descriptive: it names the pool size, the pinned count,
  // and what the caller can do about it.
  const std::string message = c.status().message();
  EXPECT_NE(message.find("all 2 frames"), std::string::npos) << message;
  EXPECT_NE(message.find("2 pinned"), std::string::npos) << message;
  EXPECT_NE(message.find("release a PageRef"), std::string::npos) << message;
  EXPECT_EQ(pool.stats().pin_failures, 1u);
  // Releasing a pin frees a frame.
  a = BufferPool::PageRef();
  auto retry = pool.Pin(2);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(pool.stats().pin_failures, 1u);  // the retry succeeded
}

TEST_F(BufferPoolTest, PinnedFrameCountersTrackLiveAndPeak) {
  FillStore(4);
  BufferPool pool(&store_, 4);
  EXPECT_EQ(pool.stats().pinned_frames, 0u);
  EXPECT_EQ(pool.stats().peak_pinned_frames, 0u);
  {
    auto a = pool.Pin(0);
    auto b = pool.Pin(1);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(pool.stats().pinned_frames, 2u);
    EXPECT_EQ(pool.stats().peak_pinned_frames, 2u);
    {
      // A second pin of a resident page does not re-count the frame.
      auto a_again = pool.Pin(0);
      ASSERT_TRUE(a_again.ok());
      EXPECT_EQ(pool.stats().pinned_frames, 2u);
      auto c = pool.Pin(2);
      ASSERT_TRUE(c.ok());
      EXPECT_EQ(pool.stats().pinned_frames, 3u);
      EXPECT_EQ(pool.stats().peak_pinned_frames, 3u);
    }
    // Inner refs released: the frame count drops, the peak stays.
    EXPECT_EQ(pool.stats().pinned_frames, 2u);
    EXPECT_EQ(pool.stats().peak_pinned_frames, 3u);
  }
  EXPECT_EQ(pool.stats().pinned_frames, 0u);
  EXPECT_EQ(pool.stats().peak_pinned_frames, 3u);
  EXPECT_EQ(pool.stats().HitRate(), 1.0 / 4.0);  // 1 hit, 3 misses
}

TEST_F(BufferPoolTest, MissOnBadPageLeavesPoolUsable) {
  FillStore(2);
  BufferPool pool(&store_, 2);
  EXPECT_EQ(pool.Pin(9).status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(pool.Pin(0).ok());
  EXPECT_TRUE(pool.Pin(1).ok());
}

TEST_F(BufferPoolTest, VerifierRunsOnFaultInNotOnHits) {
  FillStore(4);
  size_t calls = 0;
  BufferPool pool(&store_, 2,
                  [&calls](std::span<const uint8_t>, uint64_t) -> Status {
                    ++calls;
                    return Status::OK();
                  });
  { auto ref = pool.Pin(0); ASSERT_TRUE(ref.ok()); }
  EXPECT_EQ(calls, 1u);  // miss: faulted in, verified once
  { auto ref = pool.Pin(0); ASSERT_TRUE(ref.ok()); }
  EXPECT_EQ(calls, 1u);  // hit: resident pages are already known-good
  { auto ref = pool.Pin(1); ASSERT_TRUE(ref.ok()); }
  { auto ref = pool.Pin(2); ASSERT_TRUE(ref.ok()); }  // evicts one
  EXPECT_EQ(calls, 3u);
  // Re-pinning an evicted page is a fresh fault-in → verified again.
  { auto ref = pool.Pin(0); ASSERT_TRUE(ref.ok()); }
  EXPECT_EQ(calls, 4u);
}

TEST_F(BufferPoolTest, VerifierFailureFailsPinAndLeavesPoolUnchanged) {
  FillStore(3);
  BufferPool pool(&store_, 2,
                  [](std::span<const uint8_t>, uint64_t index) -> Status {
                    if (index == 1) {
                      return Status::IOError("page 1: checksum mismatch");
                    }
                    return Status::OK();
                  });
  {
    auto good = pool.Pin(0);
    ASSERT_TRUE(good.ok());
    auto bad = pool.Pin(1);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kIOError);
    // The rejected page never became resident: pinning it again re-runs
    // the fault-in (and fails again), and good pages still pin fine.
    EXPECT_FALSE(pool.Pin(1).ok());
    auto other = pool.Pin(2);
    ASSERT_TRUE(other.ok());
  }
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 0u);
}

TEST_F(BufferPoolTest, ConcurrentPinHammer) {
  constexpr size_t kPages = 16;
  FillStore(kPages);
  BufferPool pool(&store_, 4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < 400; ++i) {
        const uint64_t page = static_cast<uint64_t>((i * 7 + t) % kPages);
        auto ref = pool.Pin(page);
        if (!ref.ok()) continue;  // transiently all-pinned is legal
        // Every resident page must carry its own index and fill byte.
        EXPECT_EQ(ref.value().data()[kPageHeaderSize],
                  static_cast<uint8_t>(page));
        EXPECT_TRUE(
            CheckPage({ref.value().data(), kPageSize}, page).ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, 8u * 400u);
}

}  // namespace
}  // namespace tcf
