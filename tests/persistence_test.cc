// Unit coverage of the persistence subsystem beneath index checkpoints:
// page framing (CRC / magic / size validation), the BufferManager (pin,
// fault, LRU eviction, dirty retention, flush, stats), the disk-resident
// bulk-loaded B+-tree against an in-memory reference (and the entry count
// a restored layered index checks against its pages), and the
// CheckpointManager's shadow-paging manifest protocol (publish, torn-tail
// truncation, fallback to the previous usable record, orphan GC).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/env.h"
#include "index/layered_index.h"
#include "storage/buffer_manager.h"
#include "storage/checkpoint.h"
#include "storage/disk_bptree.h"
#include "storage/page.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::ScratchDir;

// --- page framing ---

TEST(PageTest, RoundTrip) {
  std::string payload = "hello page payload";
  std::string image;
  ASSERT_TRUE(EncodePage(PageType::kBlob, payload, &image).ok());
  ASSERT_EQ(image.size(), kPageSize);

  PageType type;
  Slice got;
  ASSERT_TRUE(DecodePage(image, &type, &got).ok());
  EXPECT_EQ(type, PageType::kBlob);
  EXPECT_EQ(got.ToString(), payload);
}

TEST(PageTest, EmptyAndMaxPayload) {
  for (size_t len : {size_t{0}, kMaxPagePayload}) {
    std::string payload(len, 'x');
    std::string image;
    ASSERT_TRUE(EncodePage(PageType::kBTreeLeaf, payload, &image).ok());
    PageType type;
    Slice got;
    ASSERT_TRUE(DecodePage(image, &type, &got).ok());
    EXPECT_EQ(got.size(), len);
  }
  std::string too_big(kMaxPagePayload + 1, 'x');
  std::string image;
  EXPECT_FALSE(EncodePage(PageType::kBlob, too_big, &image).ok());
}

TEST(PageTest, RejectsWrongSizeAndCorruption) {
  std::string image;
  ASSERT_TRUE(EncodePage(PageType::kBlob, "payload", &image).ok());
  PageType type;
  Slice payload;

  EXPECT_FALSE(DecodePage(Slice(image.data(), kPageSize - 1), &type, &payload)
                   .ok());
  EXPECT_FALSE(DecodePage(Slice(), &type, &payload).ok());

  // Any single flipped byte — header or payload — must fail validation.
  for (size_t pos : {size_t{0}, size_t{5}, size_t{9}, kPageHeaderSize + 3}) {
    std::string bad = image;
    bad[pos] ^= 0x40;
    EXPECT_FALSE(DecodePage(bad, &type, &payload).ok()) << "byte " << pos;
  }
}

// --- buffer manager ---

BufferManager MakePool(uint64_t capacity) {
  BufferPoolOptions options;
  options.capacity_bytes = capacity;
  return BufferManager(options);
}

TEST(BufferManagerTest, AppendFlushReopenRead) {
  ScratchDir dir("bm_roundtrip");
  const std::string path = dir.path() + "/pages";
  constexpr int kPages = 20;

  {
    BufferManager pool = MakePool(1 << 20);
    BufferManager::FileId file;
    ASSERT_TRUE(pool.CreateFile(path, &file).ok());
    for (int i = 0; i < kPages; i++) {
      PageId pid;
      ASSERT_TRUE(pool.AppendPage(file, PageType::kBlob,
                                  "page " + std::to_string(i), &pid)
                      .ok());
      ASSERT_EQ(pid, static_cast<PageId>(i));
      // Appended pages are readable before any flush.
      BufferManager::PageRef ref;
      ASSERT_TRUE(pool.Pin(file, pid, &ref).ok());
      EXPECT_EQ(ref.payload().ToString(), "page " + std::to_string(i));
    }
    ASSERT_TRUE(pool.Flush(file).ok());
    EXPECT_EQ(pool.file_pages(file), static_cast<uint64_t>(kPages));
    EXPECT_EQ(pool.file_size(file), kPages * kPageSize);
  }

  // Fresh pool, read-only reopen: every page faults from disk and validates.
  BufferManager pool = MakePool(1 << 20);
  BufferManager::FileId file;
  ASSERT_TRUE(pool.OpenFile(path, &file).ok());
  ASSERT_EQ(pool.file_pages(file), static_cast<uint64_t>(kPages));
  for (int i = 0; i < kPages; i++) {
    BufferManager::PageRef ref;
    ASSERT_TRUE(pool.Pin(file, i, &ref).ok());
    EXPECT_EQ(ref.type(), PageType::kBlob);
    EXPECT_EQ(ref.payload().ToString(), "page " + std::to_string(i));
  }
  const BufferManager::Stats stats = pool.stats();
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(kPages));
  EXPECT_EQ(stats.files, 1u);

  // Second pass: all hits.
  for (int i = 0; i < kPages; i++) {
    BufferManager::PageRef ref;
    ASSERT_TRUE(pool.Pin(file, i, &ref).ok());
  }
  EXPECT_EQ(pool.stats().hits, static_cast<uint64_t>(kPages));
  EXPECT_EQ(pool.stats().misses, static_cast<uint64_t>(kPages));
}

TEST(BufferManagerTest, EvictsUnderPressureButNotPinned) {
  ScratchDir dir("bm_evict");
  const std::string path = dir.path() + "/pages";
  constexpr int kPages = 16;
  {
    BufferManager pool = MakePool(1 << 20);
    BufferManager::FileId file;
    ASSERT_TRUE(pool.CreateFile(path, &file).ok());
    for (int i = 0; i < kPages; i++) {
      PageId pid;
      ASSERT_TRUE(
          pool.AppendPage(file, PageType::kBlob, std::to_string(i), &pid).ok());
    }
    ASSERT_TRUE(pool.Flush(file).ok());
  }

  // Pool holds 4 frames; touching 16 pages must evict and stay within budget.
  BufferManager pool = MakePool(4 * kPageSize);
  BufferManager::FileId file;
  ASSERT_TRUE(pool.OpenFile(path, &file).ok());
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < kPages; i++) {
      BufferManager::PageRef ref;
      ASSERT_TRUE(pool.Pin(file, i, &ref).ok());
      EXPECT_EQ(ref.payload().ToString(), std::to_string(i));
    }
  }
  BufferManager::Stats stats = pool.stats();
  EXPECT_LE(stats.usage, 4 * kPageSize);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.misses, static_cast<uint64_t>(kPages));  // refaulted

  // A pinned page survives any amount of pressure; its view stays valid.
  BufferManager::PageRef pinned;
  ASSERT_TRUE(pool.Pin(file, 7, &pinned).ok());
  for (int i = 0; i < kPages; i++) {
    if (i == 7) continue;
    BufferManager::PageRef ref;
    ASSERT_TRUE(pool.Pin(file, i, &ref).ok());
  }
  EXPECT_EQ(pinned.payload().ToString(), "7");
}

TEST(BufferManagerTest, RejectsTornFileAndCorruptPage) {
  ScratchDir dir("bm_torn");
  Env* env = Env::Default();

  // A file that is not a whole number of pages is a torn checkpoint build.
  const std::string torn = dir.path() + "/torn";
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env->NewWritableFile(torn, &f).ok());
    ASSERT_TRUE(f->Append(std::string(kPageSize + 100, 'x')).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  BufferManager pool = MakePool(1 << 20);
  BufferManager::FileId file;
  EXPECT_FALSE(pool.OpenFile(torn, &file).ok());

  // A whole-page file with garbage bytes opens, but the fault fails CRC.
  const std::string garbage = dir.path() + "/garbage";
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env->NewWritableFile(garbage, &f).ok());
    ASSERT_TRUE(f->Append(std::string(kPageSize, 'z')).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  ASSERT_TRUE(pool.OpenFile(garbage, &file).ok());
  BufferManager::PageRef ref;
  EXPECT_FALSE(pool.Pin(file, 0, &ref).ok());

  // CreateFile refuses to silently reuse frames of a dropped file: drop,
  // recreate, and the new (empty) file has no pages.
  const std::string fresh = dir.path() + "/fresh";
  BufferManager::FileId id;
  ASSERT_TRUE(pool.CreateFile(fresh, &id).ok());
  PageId pid;
  ASSERT_TRUE(pool.AppendPage(id, PageType::kBlob, "x", &pid).ok());
  pool.DropFile(id);
  ASSERT_TRUE(pool.CreateFile(fresh, &id).ok());
  EXPECT_EQ(pool.file_pages(id), 0u);
}

TEST(BufferManagerTest, ConcurrentPinsOverFileLargerThanPool) {
  ScratchDir dir("bm_concurrent");
  const std::string path = dir.path() + "/pages";
  constexpr int kPages = 768;  // 3 MiB of pages
  {
    BufferManager pool = MakePool(1 << 20);
    BufferManager::FileId file;
    ASSERT_TRUE(pool.CreateFile(path, &file).ok());
    for (int i = 0; i < kPages; i++) {
      PageId pid;
      ASSERT_TRUE(pool.AppendPage(file, PageType::kBlob,
                                  "page " + std::to_string(i), &pid)
                      .ok());
    }
    ASSERT_TRUE(pool.Flush(file).ok());
  }

  // A 2 MiB pool (two cache shards) over a 3 MiB file keeps evicting while
  // four readers pin pages at random.
  BufferManager pool = MakePool(2 << 20);
  BufferManager::FileId file;
  ASSERT_TRUE(pool.OpenFile(path, &file).ok());
  constexpr int kThreads = 4;
  constexpr int kPinsPerThread = 3000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(t + 1);
      for (int i = 0; i < kPinsPerThread; i++) {
        const PageId page = rng() % kPages;
        BufferManager::PageRef ref;
        if (!pool.Pin(file, page, &ref).ok() ||
            ref.payload().ToString() != "page " + std::to_string(page)) {
          failures++;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const BufferManager::Stats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kPinsPerThread));
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.usage, 2u << 20);
}

TEST(BufferManagerTest, UnflushedPageStaysPinnableUnderPressure) {
  ScratchDir dir("bm_dirty");
  const std::string cold = dir.path() + "/cold";
  constexpr int kPages = 16;
  {
    BufferManager pool = MakePool(1 << 20);
    BufferManager::FileId file;
    ASSERT_TRUE(pool.CreateFile(cold, &file).ok());
    for (int i = 0; i < kPages; i++) {
      PageId pid;
      ASSERT_TRUE(
          pool.AppendPage(file, PageType::kBlob, std::to_string(i), &pid).ok());
    }
    ASSERT_TRUE(pool.Flush(file).ok());
  }

  BufferManager pool = MakePool(8 * kPageSize);
  BufferManager::FileId cold_file, hot_file;
  ASSERT_TRUE(pool.OpenFile(cold, &cold_file).ok());
  ASSERT_TRUE(pool.CreateFile(dir.path() + "/hot", &hot_file).ok());
  PageId hot_page;
  ASSERT_TRUE(
      pool.AppendPage(hot_file, PageType::kBlob, "unflushed", &hot_page).ok());
  // Twice the pool's worth of clean faults: the dirty page must survive.
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < kPages; i++) {
      BufferManager::PageRef ref;
      ASSERT_TRUE(pool.Pin(cold_file, i, &ref).ok());
    }
  }
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_EQ(pool.stats().dirty, 1u);
  {
    BufferManager::PageRef ref;
    ASSERT_TRUE(pool.Pin(hot_file, hot_page, &ref).ok());
    EXPECT_EQ(ref.payload().ToString(), "unflushed");
  }
  // Flush hands the page to the clean cache; it stays readable.
  ASSERT_TRUE(pool.Flush(hot_file).ok());
  EXPECT_EQ(pool.stats().dirty, 0u);
  BufferManager::PageRef ref;
  ASSERT_TRUE(pool.Pin(hot_file, hot_page, &ref).ok());
  EXPECT_EQ(ref.payload().ToString(), "unflushed");
  EXPECT_LE(pool.stats().usage, 8 * kPageSize);
}

// --- disk B+-tree ---

struct U64Codec {
  static void EncodeKey(std::string* dst, const uint64_t& k) {
    PutVarint64(dst, k);
  }
  static bool DecodeKey(Slice* in, uint64_t* k) { return GetVarint64(in, k); }
  static void EncodeVal(std::string* dst, const std::string& v) {
    PutLengthPrefixed(dst, v);
  }
  static bool DecodeVal(Slice* in, std::string* v) {
    Slice s;
    if (!GetLengthPrefixed(in, &s)) return false;
    *v = s.ToString();
    return true;
  }
};

using U64Tree = DiskBpTree<uint64_t, std::string, U64Codec>;
using U64Builder = DiskBpTreeBuilder<uint64_t, std::string, U64Codec>;

TEST(DiskBpTreeTest, MatchesInMemoryReference) {
  ScratchDir dir("tree_ref");
  BufferManager pool = MakePool(1 << 20);
  BufferManager::FileId file;
  ASSERT_TRUE(pool.CreateFile(dir.path() + "/tree", &file).ok());

  // Enough sorted entries (with padding values) to force several leaves and
  // at least one internal level.
  std::map<uint64_t, std::string> reference;
  U64Builder builder(&pool, file);
  for (uint64_t k = 0; k < 5000; k += 3) {
    std::string v = "value-" + std::to_string(k) + std::string(32, 'p');
    reference[k] = v;
    ASSERT_TRUE(builder.Add(k, v).ok());
  }
  U64Tree::Ref ref;
  ASSERT_TRUE(builder.Finish(&ref).ok());
  ASSERT_TRUE(pool.Flush(file).ok());
  ASSERT_EQ(ref.entries, reference.size());
  ASSERT_NE(ref.root, kInvalidPageId);

  U64Tree tree(&pool, ref);
  // Full scan in key order.
  auto expect = reference.begin();
  for (auto it = tree.Begin(); it.Valid(); it.Next(), ++expect) {
    ASSERT_NE(expect, reference.end());
    EXPECT_EQ(it.key(), expect->first);
    EXPECT_EQ(it.value(), expect->second);
  }
  EXPECT_EQ(expect, reference.end());

  // Point and predicate seeks at hits, misses, below-min and past-max.
  for (uint64_t target : {0u, 1u, 2u, 3u, 2499u, 2500u, 4998u, 4999u, 9999u}) {
    auto it = tree.SeekGE(target);
    auto want = reference.lower_bound(target);
    if (want == reference.end()) {
      EXPECT_FALSE(it.Valid()) << "target " << target;
    } else {
      ASSERT_TRUE(it.Valid()) << "target " << target;
      EXPECT_EQ(it.key(), want->first);
    }
    ASSERT_TRUE(it.status().ok());
  }

  // Range scans against the reference.
  std::mt19937_64 rng(42);
  for (int i = 0; i < 50; i++) {
    uint64_t lo = rng() % 5200;
    uint64_t hi = lo + rng() % 600;
    std::vector<std::string> got;
    Status s;
    tree.RangeScan(lo, hi, &got, &s);
    ASSERT_TRUE(s.ok());
    std::vector<std::string> want;
    for (auto it = reference.lower_bound(lo);
         it != reference.end() && it->first <= hi; ++it) {
      want.push_back(it->second);
    }
    EXPECT_EQ(got, want) << "range [" << lo << ", " << hi << "]";
  }
}

TEST(DiskBpTreeTest, MultipleTreesShareAFileAndSurviveTinyPool) {
  ScratchDir dir("tree_shared");
  const std::string path = dir.path() + "/trees";
  std::vector<U64Tree::Ref> refs;
  {
    BufferManager pool = MakePool(1 << 20);
    BufferManager::FileId file;
    ASSERT_TRUE(pool.CreateFile(path, &file).ok());
    for (uint64_t t = 0; t < 5; t++) {
      U64Builder builder(&pool, file);
      for (uint64_t k = 0; k < 300; k++) {
        ASSERT_TRUE(
            builder.Add(k, std::to_string(t * 1000 + k) + std::string(16, 'v'))
                .ok());
      }
      U64Tree::Ref ref;
      ASSERT_TRUE(builder.Finish(&ref).ok());
      refs.push_back(ref);
    }
    // An empty tree is a valid ref with no pages.
    U64Builder empty(&pool, file);
    U64Tree::Ref eref;
    ASSERT_TRUE(empty.Finish(&eref).ok());
    EXPECT_EQ(eref.root, kInvalidPageId);
    refs.push_back(eref);
    ASSERT_TRUE(pool.Flush(file).ok());
  }

  // Reopen through a 2-frame pool: every step of every descent may refault.
  BufferManager pool = MakePool(2 * kPageSize);
  BufferManager::FileId file;
  ASSERT_TRUE(pool.OpenFile(path, &file).ok());
  for (uint64_t t = 0; t < 5; t++) {
    U64Tree::Ref ref = refs[t];
    ref.file = file;
    U64Tree tree(&pool, ref);
    uint64_t count = 0;
    for (auto it = tree.Begin(); it.Valid(); it.Next()) {
      ASSERT_EQ(it.key(), count);
      ASSERT_EQ(it.value(),
                std::to_string(t * 1000 + count) + std::string(16, 'v'));
      count++;
    }
    EXPECT_EQ(count, 300u);
  }
  U64Tree::Ref eref = refs[5];
  eref.file = file;
  U64Tree empty_tree(&pool, eref);
  EXPECT_FALSE(empty_tree.Begin().Valid());
  EXPECT_LE(pool.stats().usage, 2 * kPageSize);
}

TEST(DiskBpTreeTest, LeafCountPastPayloadIsCorruption) {
  ScratchDir dir("tree_short_leaf");
  BufferManager pool = MakePool(1 << 20);
  BufferManager::FileId file;
  ASSERT_TRUE(pool.CreateFile(dir.path() + "/tree", &file).ok());
  // A CRC-valid leaf that claims five entries but holds two.
  std::string payload;
  PutFixed32(&payload, kInvalidPageId);
  PutVarint32(&payload, 5);
  for (uint64_t k : {10u, 20u}) {
    U64Codec::EncodeKey(&payload, k);
    U64Codec::EncodeVal(&payload, "v" + std::to_string(k));
  }
  PageId leaf;
  ASSERT_TRUE(
      pool.AppendPage(file, PageType::kBTreeLeaf, payload, &leaf).ok());
  ASSERT_TRUE(pool.Flush(file).ok());
  U64Tree tree(&pool, {file, leaf, 5});

  // The entries before the cut decode; the cursor then hits the end of the
  // payload and the iterator ends with Corruption.
  auto it = tree.Begin();
  std::vector<uint64_t> keys;
  for (; it.Valid(); it.Next()) keys.push_back(it.key());
  EXPECT_EQ(keys, (std::vector<uint64_t>{10, 20}));
  EXPECT_TRUE(it.status().IsCorruption()) << it.status().ToString();

  auto past = tree.SeekGE(21);
  EXPECT_FALSE(past.Valid());
  EXPECT_TRUE(past.status().IsCorruption()) << past.status().ToString();

  std::vector<std::string> got;
  Status s;
  tree.RangeScan(0, 100, &got, &s);
  EXPECT_TRUE(s.IsCorruption());
}

// A frozen block's cursor, walked from its first entry to a clean end,
// holds the tree to the entry count its checkpoint recorded: a state blob
// whose count is off restores, but walking that block reports Corruption.
TEST(LayeredIndexRestoreTest, FrozenEntryCountMismatchIsCorruption) {
  ScratchDir dir("frozen_count");
  BufferManager pool = MakePool(1 << 20);
  BufferManager::FileId file;
  ASSERT_TRUE(pool.CreateFile(dir.path() + "/senid", &file).ok());
  LayeredIndexOptions options;
  options.discrete = true;
  auto extractor = [](const Transaction&, Value*) { return false; };
  LayeredIndex index("sys.senid", options, extractor);
  for (uint64_t b = 0; b < 2; b++) {
    std::vector<std::pair<Value, uint32_t>> entries;
    for (uint32_t i = 0; i < 5; i++) {
      entries.emplace_back(Value::Str("s" + std::to_string(i)), i);
    }
    ASSERT_TRUE(index.MergeTxnDeltas(b, std::move(entries)).ok());
  }
  std::vector<LayeredIndex::FrozenTreeRef> refs;
  ASSERT_TRUE(index.WriteFrozenDelta(&pool, file, 2, &refs).ok());
  ASSERT_TRUE(pool.Flush(file).ok());
  ASSERT_EQ(refs.size(), 2u);
  refs[1].entries++;  // block 1 claims one entry more than its pages hold
  std::string state;
  index.EncodeCheckpointState(refs, &state);

  LayeredIndex restored("sys.senid", options, extractor);
  ASSERT_TRUE(restored.RestoreCheckpoint(&pool, {file}, state).ok());
  ASSERT_EQ(restored.frozen_end(), 2u);
  std::vector<uint32_t> ptrs;
  ASSERT_TRUE(restored.SearchBlock(0, nullptr, nullptr, &ptrs).ok());
  EXPECT_EQ(ptrs.size(), 5u);

  LayeredIndex::Cursor it = restored.Seek(1, nullptr);
  size_t walked = 0;
  for (; it.Valid(); it.Next()) walked++;
  EXPECT_EQ(walked, 5u);
  EXPECT_TRUE(it.status().IsCorruption()) << it.status().ToString();
  ptrs.clear();
  EXPECT_TRUE(restored.SearchBlock(1, nullptr, nullptr, &ptrs).IsCorruption());

  // A walk from a seek key never saw the start, so it is not held to the
  // count.
  Value lo = Value::Str("s3");
  ptrs.clear();
  ASSERT_TRUE(restored.SearchBlock(1, &lo, nullptr, &ptrs).ok());
  EXPECT_EQ(ptrs.size(), 2u);
}

TEST(DiskBpTreeTest, SeekFindsFirstDuplicateAcrossLeafBoundary) {
  ScratchDir dir("tree_dups");
  BufferManager pool = MakePool(1 << 20);
  BufferManager::FileId file;
  ASSERT_TRUE(pool.CreateFile(dir.path() + "/tree", &file).ok());
  // Key 7 repeats 300 times (~40-byte values), so its run starts in the
  // first leaf and spans several more; every separator inside the run
  // equals 7.
  U64Builder builder(&pool, file);
  for (uint64_t k = 0; k < 7; k++) {
    ASSERT_TRUE(builder.Add(k, "low-" + std::to_string(k)).ok());
  }
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(
        builder.Add(7, "dup-" + std::to_string(i) + std::string(32, 'd'))
            .ok());
  }
  ASSERT_TRUE(builder.Add(8, "high").ok());
  U64Tree::Ref ref;
  ASSERT_TRUE(builder.Finish(&ref).ok());
  ASSERT_TRUE(pool.Flush(file).ok());
  ASSERT_GT(pool.file_pages(file), 4u);  // several leaves plus a root

  U64Tree tree(&pool, ref);
  auto it = tree.SeekGE(7);
  for (int i = 0; i < 300; i++, it.Next()) {
    ASSERT_TRUE(it.Valid()) << "duplicate " << i;
    ASSERT_EQ(it.key(), 7u);
    ASSERT_EQ(it.value(), "dup-" + std::to_string(i) + std::string(32, 'd'));
  }
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.value(), "high");

  auto gt = tree.SeekGT(7);
  ASSERT_TRUE(gt.Valid());
  EXPECT_EQ(gt.key(), 8u);
  auto lt = tree.SeekGE(6);
  ASSERT_TRUE(lt.Valid());
  EXPECT_EQ(lt.value(), "low-6");
}

TEST(DiskBpTreeTest, ConcurrentScansThroughTinyPoolReleaseEveryPin) {
  ScratchDir dir("tree_concurrent");
  const std::string path = dir.path() + "/trees";
  auto value_of = [](uint64_t t, uint64_t k) {
    return std::to_string(t * 1000 + k) + std::string(16, 'v');
  };
  // The trees of MultipleTreesShareAFileAndSurviveTinyPool.
  std::vector<U64Tree::Ref> refs;
  {
    BufferManager pool = MakePool(1 << 20);
    BufferManager::FileId file;
    ASSERT_TRUE(pool.CreateFile(path, &file).ok());
    for (uint64_t t = 0; t < 5; t++) {
      U64Builder builder(&pool, file);
      for (uint64_t k = 0; k < 300; k++) {
        ASSERT_TRUE(builder.Add(k, value_of(t, k)).ok());
      }
      U64Tree::Ref ref;
      ASSERT_TRUE(builder.Finish(&ref).ok());
      refs.push_back(ref);
    }
    ASSERT_TRUE(pool.Flush(file).ok());
  }

  BufferManager pool = MakePool(2 * kPageSize);
  BufferManager::FileId file;
  ASSERT_TRUE(pool.OpenFile(path, &file).ok());
  for (auto& ref : refs) ref.file = file;
  {
    // A live iterator keeps its current leaf readable while scans of the
    // other trees evict every unpinned page of the two-page pool.
    U64Tree tree(&pool, refs[0]);
    auto it = tree.SeekGE(150);
    ASSERT_TRUE(it.Valid());
    for (size_t t = 1; t < refs.size(); t++) {
      U64Tree other(&pool, refs[t]);
      for (auto o = other.Begin(); o.Valid(); o.Next()) {
      }
    }
    EXPECT_GT(pool.stats().evictions, 0u);
    it.Next();
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), 151u);
    EXPECT_EQ(it.value(), value_of(0, 151));
  }

  // Each thread fully scans every tree and seeks into it; a mismatch or an
  // error counts as a failure.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; w++) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < 5; round++) {
        for (uint64_t t = 0; t < refs.size(); t++) {
          const uint64_t tid = (t + w) % refs.size();
          U64Tree tree(&pool, refs[tid]);
          uint64_t k = 0;
          auto it = tree.Begin();
          for (; it.Valid(); it.Next(), k++) {
            if (it.key() != k || it.value() != value_of(tid, k)) failures++;
          }
          if (!it.status().ok() || k != 300) failures++;
          uint64_t target = (w * 37 + round * 61 + t) % 300;
          auto seek = tree.SeekGE(target);
          if (!seek.Valid() || seek.key() != target ||
              seek.value() != value_of(tid, target)) {
            failures++;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(pool.stats().usage, 2 * kPageSize);
}

// --- checkpoint manifest protocol ---

// Writes a valid page file of `pages` blob pages directly through a pool.
void WritePageFile(Env* env, const std::string& path, int pages) {
  BufferPoolOptions options;
  options.env = env;
  BufferManager pool(options);
  BufferManager::FileId file;
  ASSERT_TRUE(pool.CreateFile(path, &file).ok());
  for (int i = 0; i < pages; i++) {
    PageId pid;
    ASSERT_TRUE(
        pool.AppendPage(file, PageType::kBlob, std::to_string(i), &pid).ok());
  }
  ASSERT_TRUE(pool.Flush(file).ok());
}

TEST(CheckpointManagerTest, PublishAndRecoverLatest) {
  ScratchDir dir("ckpt_publish");
  Env* env = Env::Default();
  const std::string cdir = dir.path() + "/checkpoints";

  {
    std::unique_ptr<CheckpointManager> mgr;
    ASSERT_TRUE(CheckpointManager::Open(env, cdir, &mgr).ok());
    EXPECT_EQ(mgr->latest(), nullptr);
    EXPECT_EQ(mgr->next_id(), 1u);

    CheckpointRecord rec;
    rec.id = mgr->next_id();
    rec.height = 10;
    WritePageFile(env, mgr->FilePath("ckpt_1_a"), 2);
    rec.files.push_back({"ckpt_1_a", 2 * kPageSize});
    ASSERT_TRUE(mgr->Publish(rec).ok());
    ASSERT_NE(mgr->latest(), nullptr);
    EXPECT_EQ(mgr->latest()->height, 10u);

    // A second checkpoint supersedes the first; its unreferenced file goes.
    CheckpointRecord rec2;
    rec2.id = mgr->next_id();
    EXPECT_EQ(rec2.id, 2u);
    rec2.height = 20;
    WritePageFile(env, mgr->FilePath("ckpt_2_a"), 3);
    rec2.files.push_back({"ckpt_2_a", 3 * kPageSize});
    ASSERT_TRUE(mgr->Publish(rec2).ok());
    uint64_t size;
    EXPECT_FALSE(env->FileSize(cdir + "/ckpt_1_a", &size).ok());
  }

  // Reopen: the published record is the recovery point.
  std::unique_ptr<CheckpointManager> mgr;
  ASSERT_TRUE(CheckpointManager::Open(env, cdir, &mgr).ok());
  ASSERT_NE(mgr->latest(), nullptr);
  EXPECT_EQ(mgr->latest()->id, 2u);
  EXPECT_EQ(mgr->latest()->height, 20u);
  EXPECT_EQ(mgr->next_id(), 3u);
}

TEST(CheckpointManagerTest, TornManifestTailFallsBack) {
  ScratchDir dir("ckpt_torn");
  Env* env = Env::Default();
  const std::string cdir = dir.path() + "/checkpoints";
  {
    std::unique_ptr<CheckpointManager> mgr;
    ASSERT_TRUE(CheckpointManager::Open(env, cdir, &mgr).ok());
    CheckpointRecord rec;
    rec.id = 1;
    rec.height = 10;
    WritePageFile(env, mgr->FilePath("ckpt_1_a"), 1);
    rec.files.push_back({"ckpt_1_a", kPageSize});
    ASSERT_TRUE(mgr->Publish(rec).ok());
    // Checkpoints are incremental: record 2 references record 1's delta
    // file plus its own (which is what keeps the older record usable as a
    // fallback — files only a superseded record needs are GC'd at Publish).
    CheckpointRecord rec2;
    rec2.id = 2;
    rec2.height = 20;
    rec2.files.push_back({"ckpt_1_a", kPageSize});
    WritePageFile(env, mgr->FilePath("ckpt_2_a"), 1);
    rec2.files.push_back({"ckpt_2_a", kPageSize});
    ASSERT_TRUE(mgr->Publish(rec2).ok());
  }

  // Tear the manifest mid-record-2: recovery truncates the tail and falls
  // back to record 1; record 2's now-orphaned file is garbage-collected.
  uint64_t manifest_size;
  ASSERT_TRUE(env->FileSize(cdir + "/MANIFEST", &manifest_size).ok());
  ASSERT_TRUE(env->TruncateFile(cdir + "/MANIFEST", manifest_size - 3).ok());

  std::unique_ptr<CheckpointManager> mgr;
  ASSERT_TRUE(CheckpointManager::Open(env, cdir, &mgr).ok());
  EXPECT_TRUE(mgr->manifest_truncated());
  ASSERT_NE(mgr->latest(), nullptr);
  EXPECT_EQ(mgr->latest()->id, 1u);
  uint64_t size;
  EXPECT_TRUE(env->FileSize(cdir + "/ckpt_1_a", &size).ok());
  EXPECT_FALSE(env->FileSize(cdir + "/ckpt_2_a", &size).ok());
}

TEST(CheckpointManagerTest, MissingOrResizedFileInvalidatesRecord) {
  ScratchDir dir("ckpt_missing");
  Env* env = Env::Default();
  const std::string cdir = dir.path() + "/checkpoints";
  {
    std::unique_ptr<CheckpointManager> mgr;
    ASSERT_TRUE(CheckpointManager::Open(env, cdir, &mgr).ok());
    CheckpointRecord rec;
    rec.id = 1;
    rec.height = 10;
    WritePageFile(env, mgr->FilePath("ckpt_1_a"), 2);
    rec.files.push_back({"ckpt_1_a", 2 * kPageSize});
    ASSERT_TRUE(mgr->Publish(rec).ok());
    // Record 2 claims a size its file never reached (crash before the page
    // file finished, manifest record somehow survived — the belt to the
    // write-files-first suspenders). It shares record 1's file, as real
    // incremental checkpoints do, so the fallback stays usable.
    CheckpointRecord rec2;
    rec2.id = 2;
    rec2.height = 20;
    rec2.files.push_back({"ckpt_1_a", 2 * kPageSize});
    WritePageFile(env, mgr->FilePath("ckpt_2_a"), 1);
    rec2.files.push_back({"ckpt_2_a", 5 * kPageSize});
    ASSERT_TRUE(mgr->Publish(rec2).ok());
  }
  std::unique_ptr<CheckpointManager> mgr;
  ASSERT_TRUE(CheckpointManager::Open(env, cdir, &mgr).ok());
  ASSERT_NE(mgr->latest(), nullptr);
  EXPECT_EQ(mgr->latest()->id, 1u);
  // Ids never go backwards even when the newest record is unusable.
  EXPECT_EQ(mgr->next_id(), 3u);
}

TEST(CheckpointManagerTest, OrphanedFilesAreRemovedAtOpen) {
  ScratchDir dir("ckpt_orphan");
  Env* env = Env::Default();
  const std::string cdir = dir.path() + "/checkpoints";
  {
    std::unique_ptr<CheckpointManager> mgr;
    ASSERT_TRUE(CheckpointManager::Open(env, cdir, &mgr).ok());
    CheckpointRecord rec;
    rec.id = 1;
    rec.height = 5;
    WritePageFile(env, mgr->FilePath("ckpt_1_a"), 1);
    rec.files.push_back({"ckpt_1_a", kPageSize});
    ASSERT_TRUE(mgr->Publish(rec).ok());
    // A crashed build leaves page files no record references.
    WritePageFile(env, mgr->FilePath("ckpt_2_partial"), 2);
  }
  std::unique_ptr<CheckpointManager> mgr;
  ASSERT_TRUE(CheckpointManager::Open(env, cdir, &mgr).ok());
  uint64_t size;
  EXPECT_TRUE(env->FileSize(cdir + "/ckpt_1_a", &size).ok());
  EXPECT_FALSE(env->FileSize(cdir + "/ckpt_2_partial", &size).ok());
}

TEST(CheckpointManagerTest, ManifestRecordCodecRoundTrip) {
  CheckpointRecord rec;
  rec.id = 42;
  rec.height = 12345;
  rec.files.push_back({"ckpt_42_bidx", 8 * kPageSize});
  rec.files.push_back({"ckpt_42_meta", kPageSize});
  std::string enc;
  CheckpointManager::EncodeManifestRecord(rec, &enc);

  Slice in(enc);
  CheckpointRecord got;
  ASSERT_TRUE(CheckpointManager::DecodeManifestRecord(&in, &got));
  EXPECT_EQ(got.id, rec.id);
  EXPECT_EQ(got.height, rec.height);
  ASSERT_EQ(got.files.size(), 2u);
  EXPECT_EQ(got.files[0].name, "ckpt_42_bidx");
  EXPECT_EQ(got.files[1].size, kPageSize);

  // Every truncation of the payload must fail cleanly.
  for (size_t len = 0; len < enc.size(); len++) {
    Slice part(enc.data(), len);
    CheckpointRecord ignored;
    EXPECT_FALSE(CheckpointManager::DecodeManifestRecord(&part, &ignored))
        << "length " << len;
  }
}

TEST(CheckpointManagerTest, BlobFileRoundTrip) {
  ScratchDir dir("ckpt_blob");
  Env* env = Env::Default();
  // Empty, sub-page, exactly one page of payload, and multi-page blobs.
  const size_t sizes[] = {0, 100, kMaxPagePayload, 3 * kMaxPagePayload + 17};
  for (size_t n : sizes) {
    std::string bytes;
    bytes.reserve(n);
    for (size_t i = 0; i < n; i++) bytes.push_back(static_cast<char>(i * 31));
    const std::string path =
        dir.path() + "/blob_" + std::to_string(n);
    BufferPoolOptions options;
    options.env = env;
    BufferManager pool(options);
    BufferManager::FileId file;
    ASSERT_TRUE(pool.CreateFile(path, &file).ok());
    ASSERT_TRUE(CheckpointManager::WriteBlobFile(&pool, file, bytes).ok());
    ASSERT_TRUE(pool.Flush(file).ok());

    std::string got;
    ASSERT_TRUE(CheckpointManager::ReadBlobFile(env, path, &got).ok());
    EXPECT_EQ(got, bytes) << "blob size " << n;
  }
}

TEST(CheckpointManagerTest, ZeroRunCodecRoundTrip) {
  // Empty, all-literal, all-zero, zero runs at head/middle/tail, runs too
  // short to encode (< 4 bytes stay literal), and a page-like mix.
  std::vector<std::string> inputs;
  inputs.push_back("");
  inputs.push_back("abcdefgh");
  inputs.push_back(std::string(4096, '\0'));
  inputs.push_back(std::string(100, '\0') + "payload");
  inputs.push_back("payload" + std::string(100, '\0'));
  inputs.push_back("head" + std::string(64, '\0') + "tail");
  inputs.push_back(std::string("a\0\0b", 4));             // 2-zero stretch
  inputs.push_back(std::string("a\0\0\0b", 5));           // 3-zero stretch
  inputs.push_back(std::string("a\0\0\0\0b", 6));         // exactly 4
  std::string mixed;
  for (int i = 0; i < 50; i++) {
    mixed += "rec" + std::to_string(i);
    mixed += std::string(static_cast<size_t>(i % 7) * 3, '\0');
  }
  inputs.push_back(mixed);

  for (const std::string& raw : inputs) {
    std::string transfer;
    CheckpointManager::CompressZeroRuns(Slice(raw), &transfer);
    std::string back;
    ASSERT_TRUE(CheckpointManager::DecompressZeroRuns(Slice(transfer),
                                                      raw.size(), &back)
                    .ok())
        << "raw size " << raw.size();
    EXPECT_EQ(back, raw);
  }

  // Mostly-zero page images (the checkpoint shape the codec exists for)
  // must shrink by well over an order of magnitude.
  std::string page(64 * 1024, '\0');
  for (size_t i = 0; i < 2000; i++) page[i] = static_cast<char>(i * 13 + 1);
  std::string transfer;
  CheckpointManager::CompressZeroRuns(Slice(page), &transfer);
  EXPECT_LT(transfer.size(), page.size() / 10);
}

TEST(CheckpointManagerTest, ZeroRunCodecRejectsBadTransfers) {
  const std::string raw = "head" + std::string(64, '\0') + "tail";
  std::string transfer;
  CheckpointManager::CompressZeroRuns(Slice(raw), &transfer);

  // Every truncation must fail (the image consumes its input exactly).
  for (size_t len = 0; len < transfer.size(); len++) {
    std::string out;
    EXPECT_FALSE(CheckpointManager::DecompressZeroRuns(
                     Slice(transfer.data(), len), raw.size(), &out)
                     .ok())
        << "length " << len;
  }
  // Wrong declared size, both directions.
  std::string out;
  EXPECT_FALSE(CheckpointManager::DecompressZeroRuns(Slice(transfer),
                                                     raw.size() - 1, &out)
                   .ok());
  EXPECT_FALSE(CheckpointManager::DecompressZeroRuns(Slice(transfer),
                                                     raw.size() + 1, &out)
                   .ok());
  // A zero run that would blow past the declared size is rejected before
  // any allocation of that size happens.
  std::string evil;
  PutVarint32(&evil, 0);                    // empty literal
  PutVarint32(&evil, 0xFFFFFFFF);           // 4 GiB of zeros
  EXPECT_FALSE(
      CheckpointManager::DecompressZeroRuns(Slice(evil), 1024, &out).ok());
}

}  // namespace
}  // namespace sebdb
