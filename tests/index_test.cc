// Unit and property tests for src/index: block-level index, table-level
// bitmap index, equal-depth histogram and the layered index.
#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "index/bitmap_index.h"
#include "index/block_index.h"
#include "index/histogram.h"
#include "index/layered_index.h"
#include "storage/block.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;

BlockHeader MakeHeader(BlockId height, TransactionId first_tid, uint32_t n,
                       Timestamp ts) {
  BlockHeader h;
  h.height = height;
  h.first_tid = first_tid;
  h.num_transactions = n;
  h.timestamp = ts;
  return h;
}

TEST(BlockIndexTest, FindByBlockId) {
  BlockIndex index;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(index.Add(MakeHeader(i, i * 10 + 1, 10, i * 1000)).ok());
  }
  BlockIndexEntry entry;
  ASSERT_TRUE(index.FindByBlockId(37, &entry).ok());
  EXPECT_EQ(entry.bid, 37u);
  EXPECT_EQ(entry.first_tid, 371u);
  EXPECT_TRUE(index.FindByBlockId(100, &entry).IsNotFound());
}

TEST(BlockIndexTest, FindByTid) {
  BlockIndex index;
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(index.Add(MakeHeader(i, i * 10 + 1, 10, i * 1000)).ok());
  }
  BlockIndexEntry entry;
  // tid 1 is in block 0; tid 10 is in block 0; tid 11 in block 1.
  ASSERT_TRUE(index.FindByTid(1, &entry).ok());
  EXPECT_EQ(entry.bid, 0u);
  ASSERT_TRUE(index.FindByTid(10, &entry).ok());
  EXPECT_EQ(entry.bid, 0u);
  ASSERT_TRUE(index.FindByTid(11, &entry).ok());
  EXPECT_EQ(entry.bid, 1u);
  ASSERT_TRUE(index.FindByTid(499, &entry).ok());
  EXPECT_EQ(entry.bid, 49u);
  EXPECT_FALSE(index.FindByTid(0, &entry).ok());
  EXPECT_FALSE(index.FindByTid(501, &entry).ok());
}

TEST(BlockIndexTest, FindByTimestampAndWindow) {
  BlockIndex index;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(index.Add(MakeHeader(i, i * 5 + 1, 5, i * 100)).ok());
  }
  BlockIndexEntry entry;
  ASSERT_TRUE(index.FindFirstAtOrAfter(350, &entry).ok());
  EXPECT_EQ(entry.bid, 4u);  // ts 400 is the first >= 350
  ASSERT_TRUE(index.FindFirstAtOrAfter(400, &entry).ok());
  EXPECT_EQ(entry.bid, 4u);
  EXPECT_TRUE(index.FindFirstAtOrAfter(5000, &entry).IsNotFound());

  Bitmap window = index.BlocksInWindow(250, 650);
  std::set<size_t> expected = {3, 4, 5, 6};  // ts 300..600
  auto bits = window.SetBits();
  EXPECT_EQ(std::set<size_t>(bits.begin(), bits.end()), expected);

  EXPECT_FALSE(index.BlocksInWindow(700, 600).AnySet());  // inverted window
}

TEST(BlockIndexTest, RejectsOutOfOrder) {
  BlockIndex index;
  ASSERT_TRUE(index.Add(MakeHeader(0, 1, 5, 100)).ok());
  EXPECT_FALSE(index.Add(MakeHeader(2, 20, 5, 300)).ok());  // gap
  EXPECT_FALSE(index.Add(MakeHeader(1, 6, 5, 50)).ok());    // ts backwards
  EXPECT_FALSE(index.Add(MakeHeader(1, 3, 5, 300)).ok());   // tid backwards
}

TEST(DiscreteBitmapIndexTest, LookupAndUnion) {
  DiscreteBitmapIndex index;
  index.AddBlock(0, {"donate", "transfer"});
  index.AddBlock(1, {"donate"});
  index.AddBlock(2, {"distribute"});
  EXPECT_EQ(index.num_blocks(), 3u);
  EXPECT_TRUE(index.Lookup("donate").Test(0));
  EXPECT_TRUE(index.Lookup("donate").Test(1));
  EXPECT_FALSE(index.Lookup("donate").Test(2));
  EXPECT_FALSE(index.Lookup("unknown").AnySet());
  Bitmap any = index.LookupAny({"transfer", "distribute"});
  EXPECT_TRUE(any.Test(0));
  EXPECT_FALSE(any.Test(1));
  EXPECT_TRUE(any.Test(2));
  EXPECT_EQ(index.Keys().size(), 3u);
}

Block MakeBlockOf(BlockId height, std::vector<Transaction> txns,
                  TransactionId first_tid = 1) {
  BlockBuilder builder;
  builder.SetHeight(height).SetTimestamp(height * 100).SetFirstTid(first_tid);
  for (auto& txn : txns) builder.AddTransaction(std::move(txn));
  return std::move(builder).Build("sig");
}

TEST(TableBitmapIndexTest, TracksTablesPerBlock) {
  TableBitmapIndex index;
  index.AddBlock(MakeBlockOf(0, {MakeTxn("donate", "a", 1, {}),
                                 MakeTxn("transfer", "b", 2, {})}));
  index.AddBlock(MakeBlockOf(1, {MakeTxn("donate", "a", 3, {})}));
  index.AddBlock(MakeBlockOf(2, {}));
  EXPECT_EQ(index.num_blocks(), 3u);
  EXPECT_TRUE(index.BlocksWithTable("donate").Test(0));
  EXPECT_TRUE(index.BlocksWithTable("donate").Test(1));
  EXPECT_FALSE(index.BlocksWithTable("transfer").Test(1));
  EXPECT_TRUE(index.HasTable("transfer"));
  EXPECT_FALSE(index.HasTable("nope"));
}

TEST(HistogramTest, EqualDepthBoundaries) {
  std::vector<Value> sample;
  for (int i = 0; i < 1000; i++) sample.push_back(Value::Int(i));
  EqualDepthHistogram hist;
  ASSERT_TRUE(EqualDepthHistogram::Build(sample, 10, &hist).ok());
  EXPECT_EQ(hist.num_buckets(), 10u);
  // Each bucket should hold ~100 consecutive values.
  EXPECT_EQ(hist.BucketOf(Value::Int(0)), 0u);
  EXPECT_EQ(hist.BucketOf(Value::Int(999)), 9u);
  size_t b50 = hist.BucketOf(Value::Int(500));
  EXPECT_GE(b50, 4u);
  EXPECT_LE(b50, 5u);
}

TEST(HistogramTest, SkewedSampleStillCovers) {
  std::vector<Value> sample;
  for (int i = 0; i < 900; i++) sample.push_back(Value::Int(1));
  for (int i = 0; i < 100; i++) sample.push_back(Value::Int(i * 100));
  EqualDepthHistogram hist;
  ASSERT_TRUE(EqualDepthHistogram::Build(sample, 10, &hist).ok());
  EXPECT_GE(hist.num_buckets(), 2u);
  // Values below and above the sample range still map to valid buckets.
  EXPECT_LT(hist.BucketOf(Value::Int(-100)), hist.num_buckets());
  EXPECT_LT(hist.BucketOf(Value::Int(1000000)), hist.num_buckets());
}

TEST(HistogramTest, DegenerateSingleValue) {
  EqualDepthHistogram hist;
  ASSERT_TRUE(
      EqualDepthHistogram::Build({Value::Int(5), Value::Int(5)}, 10, &hist)
          .ok());
  EXPECT_EQ(hist.num_buckets(), 2u);
}

TEST(HistogramTest, RejectsBadInput) {
  EqualDepthHistogram hist;
  EXPECT_FALSE(EqualDepthHistogram::Build({}, 10, &hist).ok());
  EXPECT_FALSE(
      EqualDepthHistogram::Build({Value::Int(1)}, 1, &hist).ok());
}

TEST(HistogramTest, BucketsOverlapping) {
  std::vector<Value> sample;
  for (int i = 0; i < 100; i++) sample.push_back(Value::Int(i));
  EqualDepthHistogram hist;
  ASSERT_TRUE(EqualDepthHistogram::Build(sample, 4, &hist).ok());
  Value lo = Value::Int(30), hi = Value::Int(60);
  Bitmap overlap = hist.BucketsOverlapping(&lo, &hi);
  EXPECT_TRUE(overlap.AnySet());
  Bitmap all = hist.BucketsOverlapping(nullptr, nullptr);
  EXPECT_EQ(all.Count(), hist.num_buckets());
}

ColumnExtractor AmountExtractor() {
  return [](const Transaction& txn, Value* out) {
    if (txn.tname() != "donate" || txn.values().empty()) return false;
    *out = txn.values()[0];
    return true;
  };
}

TEST(LayeredIndexTest, ContinuousCandidateFiltering) {
  LayeredIndexOptions options;
  options.histogram_buckets = 10;
  LayeredIndex index("donate.amount", options, AmountExtractor());
  // Histogram from a sample spanning the whole domain (as the paper builds
  // it from historical transactions) so bucket filtering is meaningful.
  std::vector<Value> sample;
  for (int i = 0; i < 1000; i++) sample.push_back(Value::Int(i));
  EqualDepthHistogram hist;
  ASSERT_TRUE(EqualDepthHistogram::Build(sample, 10, &hist).ok());
  ASSERT_TRUE(index.SetHistogram(std::move(hist)).ok());

  // Block 0: amounts 0..99; block 1: 500..599; block 2: none (other table).
  std::vector<Transaction> b0, b1, b2;
  for (int i = 0; i < 100; i++) {
    b0.push_back(MakeTxn("donate", "a", i, {Value::Int(i)}));
    b1.push_back(MakeTxn("donate", "a", 100 + i, {Value::Int(500 + i)}));
  }
  b2.push_back(MakeTxn("transfer", "a", 300, {Value::Int(50)}));
  ASSERT_TRUE(index.AddBlock(MakeBlockOf(0, std::move(b0))).ok());
  ASSERT_TRUE(index.AddBlock(MakeBlockOf(1, std::move(b1), 101)).ok());
  ASSERT_TRUE(index.AddBlock(MakeBlockOf(2, std::move(b2), 201)).ok());

  Value lo = Value::Int(510), hi = Value::Int(520);
  Bitmap candidates = index.CandidateBlocks(&lo, &hi);
  EXPECT_FALSE(candidates.Test(0));
  EXPECT_TRUE(candidates.Test(1));
  EXPECT_FALSE(candidates.Test(2));

  std::vector<uint32_t> positions;
  ASSERT_TRUE(index.SearchBlock(1, &lo, &hi, &positions).ok());
  EXPECT_EQ(positions.size(), 11u);  // 510..520 inclusive

  // Block 2 has no entries for this index; block 0 walks 0..99 in order.
  LayeredIndex::Cursor empty = index.Seek(2, nullptr);
  EXPECT_FALSE(empty.Valid());
  EXPECT_TRUE(empty.status().ok());
  LayeredIndex::Cursor it = index.Seek(0, nullptr);
  int64_t want = 0;
  for (; it.Valid(); it.Next(), want++) {
    EXPECT_EQ(it.key(), Value::Int(want));
    EXPECT_EQ(it.value(), static_cast<uint32_t>(want));
  }
  EXPECT_TRUE(it.status().ok());
  EXPECT_EQ(want, 100);
  EXPECT_TRUE(index.Seek(3, nullptr).status().IsInvalidArgument());
  Bitmap with_entries = index.BlocksWithEntries();
  EXPECT_TRUE(with_entries.Test(0));
  EXPECT_FALSE(with_entries.Test(2));
}

TEST(LayeredIndexTest, DiscreteValueLookup) {
  LayeredIndexOptions options;
  options.discrete = true;
  LayeredIndex index("sys.senid", options,
                     [](const Transaction& txn, Value* out) {
                       *out = Value::Str(txn.sender());
                       return true;
                     });
  ASSERT_TRUE(index
                  .AddBlock(MakeBlockOf(0, {MakeTxn("t", "org1", 1, {}),
                                            MakeTxn("t", "org2", 2, {})}))
                  .ok());
  ASSERT_TRUE(
      index.AddBlock(MakeBlockOf(1, {MakeTxn("t", "org2", 3, {})}, 3)).ok());

  EXPECT_TRUE(index.BlocksWithValue(Value::Str("org1")).Test(0));
  EXPECT_FALSE(index.BlocksWithValue(Value::Str("org1")).Test(1));
  EXPECT_TRUE(index.BlocksWithValue(Value::Str("org2")).Test(1));
  EXPECT_FALSE(index.BlocksWithValue(Value::Str("zzz")).AnySet());

  std::vector<uint32_t> positions;
  Value key = Value::Str("org2");
  ASSERT_TRUE(index.SearchBlock(0, &key, &key, &positions).ok());
  ASSERT_EQ(positions.size(), 1u);
  EXPECT_EQ(positions[0], 1u);
  EXPECT_EQ(index.discrete_values().size(), 2u);
}

TEST(LayeredIndexTest, RejectsOutOfOrderBlocks) {
  LayeredIndexOptions options;
  options.discrete = true;
  LayeredIndex index("x", options, [](const Transaction&, Value* out) {
    *out = Value::Int(1);
    return true;
  });
  ASSERT_TRUE(index.AddBlock(MakeBlockOf(0, {})).ok());
  EXPECT_FALSE(index.AddBlock(MakeBlockOf(2, {})).ok());
}

// Property: the first level never produces false negatives — every block
// that actually contains a value in the queried range is a candidate.
TEST(LayeredIndexTest, NoFalseNegativesProperty) {
  Random rng(99);
  LayeredIndexOptions options;
  options.histogram_buckets = 8;
  LayeredIndex index("p", options, AmountExtractor());

  std::vector<std::vector<int64_t>> block_values;
  for (int b = 0; b < 40; b++) {
    std::vector<Transaction> txns;
    std::vector<int64_t> values;
    int count = 1 + static_cast<int>(rng.Uniform(20));
    for (int i = 0; i < count; i++) {
      int64_t v = static_cast<int64_t>(rng.Uniform(10000));
      values.push_back(v);
      txns.push_back(MakeTxn("donate", "a", b * 100 + i, {Value::Int(v)}));
    }
    block_values.push_back(values);
    ASSERT_TRUE(index.AddBlock(MakeBlockOf(b, std::move(txns))).ok());
  }

  for (int q = 0; q < 100; q++) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(10000));
    int64_t hi = lo + static_cast<int64_t>(rng.Uniform(2000));
    Value vlo = Value::Int(lo), vhi = Value::Int(hi);
    Bitmap candidates = index.CandidateBlocks(&vlo, &vhi);
    for (size_t b = 0; b < block_values.size(); b++) {
      bool has = false;
      for (int64_t v : block_values[b]) {
        if (v >= lo && v <= hi) has = true;
      }
      if (has) {
        EXPECT_TRUE(candidates.Test(b))
            << "false negative: block " << b << " range [" << lo << "," << hi
            << "]";
      }
    }
  }
}

// Property: second-level search returns exactly the in-range positions.
TEST(LayeredIndexTest, SecondLevelExactProperty) {
  Random rng(7);
  LayeredIndexOptions options;
  options.histogram_buckets = 16;
  LayeredIndex index("p", options, AmountExtractor());
  std::vector<int64_t> values;
  std::vector<Transaction> txns;
  for (int i = 0; i < 500; i++) {
    int64_t v = static_cast<int64_t>(rng.Uniform(1000));
    values.push_back(v);
    txns.push_back(MakeTxn("donate", "a", i, {Value::Int(v)}));
  }
  ASSERT_TRUE(index.AddBlock(MakeBlockOf(0, std::move(txns))).ok());
  for (int q = 0; q < 50; q++) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(1000));
    int64_t hi = lo + static_cast<int64_t>(rng.Uniform(100));
    Value vlo = Value::Int(lo), vhi = Value::Int(hi);
    std::vector<uint32_t> positions;
    ASSERT_TRUE(index.SearchBlock(0, &vlo, &vhi, &positions).ok());
    std::set<uint32_t> got(positions.begin(), positions.end());
    std::set<uint32_t> expected;
    for (uint32_t i = 0; i < values.size(); i++) {
      if (values[i] >= lo && values[i] <= hi) expected.insert(i);
    }
    EXPECT_EQ(got, expected);
  }
}

}  // namespace
}  // namespace sebdb
