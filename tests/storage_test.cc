// Unit tests for src/storage: Merkle tree, block layout, block store
// (append/read/recover/segment roll/caches/corruption detection).
#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/block.h"
#include "storage/block_store.h"
#include "storage/merkle_tree.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;
using testing_util::ScratchDir;

std::vector<Hash256> MakeLeaves(int n) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < n; i++) {
    leaves.push_back(Sha256::Digest(Slice("leaf" + std::to_string(i))));
  }
  return leaves;
}

TEST(MerkleTreeTest, EmptyTreeHasZeroRoot) {
  MerkleTree tree({});
  EXPECT_TRUE(tree.root().IsZero());
  EXPECT_EQ(MerkleTree::ComputeRoot({}), Hash256{});
}

TEST(MerkleTreeTest, SingleLeafRootIsLeaf) {
  auto leaves = MakeLeaves(1);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.root(), leaves[0]);
}

class MerkleProofTest : public ::testing::TestWithParam<int> {};

TEST_P(MerkleProofTest, AllProofsVerify) {
  int n = GetParam();
  auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.root(), MerkleTree::ComputeRoot(leaves));
  for (int i = 0; i < n; i++) {
    MerkleProof proof;
    ASSERT_TRUE(tree.ProveLeaf(i, &proof).ok());
    EXPECT_EQ(MerkleTree::RootFromProof(leaves[i], proof), tree.root())
        << "leaf " << i << " of " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                           33, 100));

TEST(MerkleTreeTest, TamperedLeafFailsProof) {
  auto leaves = MakeLeaves(8);
  MerkleTree tree(leaves);
  MerkleProof proof;
  ASSERT_TRUE(tree.ProveLeaf(3, &proof).ok());
  Hash256 tampered = Sha256::Digest(Slice("evil"));
  EXPECT_NE(MerkleTree::RootFromProof(tampered, proof), tree.root());
}

TEST(MerkleTreeTest, ProofIndexOutOfRange) {
  MerkleTree tree(MakeLeaves(4));
  MerkleProof proof;
  EXPECT_TRUE(tree.ProveLeaf(4, &proof).IsInvalidArgument());
}

Block MakeBlock(BlockId height, Hash256 prev, TransactionId first_tid,
                int num_txns, Timestamp ts = 1000) {
  BlockBuilder builder;
  builder.SetHeight(height).SetPrevHash(prev).SetTimestamp(ts).SetFirstTid(
      first_tid);
  for (int i = 0; i < num_txns; i++) {
    builder.AddTransaction(
        MakeTxn(i % 2 == 0 ? "donate" : "transfer", "org" + std::to_string(i),
                ts + i, {Value::Int(i), Value::Str("v" + std::to_string(i))}));
  }
  return std::move(builder).Build("packager-sig");
}

TEST(BlockTest, BuilderAssignsConsecutiveTids) {
  Block block = MakeBlock(1, Hash256{}, 10, 5);
  ASSERT_EQ(block.transactions().size(), 5u);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(block.transactions()[i].tid(), 10u + i);
  }
  EXPECT_EQ(block.header().first_tid, 10u);
  EXPECT_EQ(block.header().num_transactions, 5u);
}

TEST(BlockTest, ValidatePassesAndDetectsTampering) {
  Block block = MakeBlock(1, Hash256{}, 1, 4);
  EXPECT_TRUE(block.Validate().ok());
  // Tamper with the header root.
  Block bad = block;
  bad.mutable_header()->trans_root = Hash256{};
  EXPECT_TRUE(bad.Validate().IsCorruption());
}

TEST(BlockTest, EncodeDecodeRoundTrip) {
  Block block = MakeBlock(3, Sha256::Digest(Slice("prev")), 100, 7);
  std::string buf;
  block.EncodeTo(&buf);
  Slice input(buf);
  Block decoded;
  ASSERT_TRUE(Block::DecodeFrom(&input, &decoded).ok());
  EXPECT_EQ(decoded.header(), block.header());
  ASSERT_EQ(decoded.transactions().size(), block.transactions().size());
  for (size_t i = 0; i < block.transactions().size(); i++) {
    EXPECT_EQ(decoded.transactions()[i], block.transactions()[i]);
  }
  EXPECT_TRUE(decoded.Validate().ok());
}

TEST(BlockTest, DecodeOneTransaction) {
  Block block = MakeBlock(2, Hash256{}, 50, 9);
  std::string buf;
  block.EncodeTo(&buf);
  for (uint32_t i = 0; i < 9; i++) {
    Transaction txn;
    ASSERT_TRUE(Block::DecodeOneTransaction(buf, i, &txn).ok());
    EXPECT_EQ(txn, block.transactions()[i]);
  }
  Transaction txn;
  EXPECT_FALSE(Block::DecodeOneTransaction(buf, 9, &txn).ok());
}

TEST(BlockTest, DecodeHeaderOnly) {
  Block block = MakeBlock(5, Hash256{}, 1, 3);
  std::string buf;
  block.EncodeTo(&buf);
  BlockHeader header;
  ASSERT_TRUE(Block::DecodeHeader(buf, &header).ok());
  EXPECT_EQ(header, block.header());
}

TEST(BlockTest, HeaderEncodedSizeIsExact) {
  // Varint boundaries in every variable-width field.
  for (uint64_t height : {0ull, 127ull, 128ull, 1ull << 35}) {
    for (int64_t ts : {int64_t{0}, int64_t{-65}, int64_t{64},
                       int64_t{1} << 50}) {
      for (size_t sig : {size_t{0}, size_t{127}, size_t{128}, size_t{300}}) {
        BlockHeader header;
        header.height = height;
        header.timestamp = ts;
        header.signature.assign(sig, 's');
        header.num_transactions = static_cast<uint32_t>(height);
        header.first_tid = height * 3;
        std::string buf;
        header.EncodeTo(&buf);
        ASSERT_EQ(header.EncodedSize(), buf.size())
            << height << " " << ts << " " << sig;
      }
    }
  }
}

TEST(BlockStoreTest, AppendAndReadBack) {
  ScratchDir dir("store_basic");
  BlockStore store;
  ASSERT_TRUE(store.Open(BlockStoreOptions(), dir.path()).ok());
  Hash256 prev{};
  for (int h = 0; h < 10; h++) {
    Block block = MakeBlock(h, prev, h * 5 + 1, 5);
    prev = block.header().block_hash;
    ASSERT_TRUE(store.Append(block).ok());
  }
  EXPECT_EQ(store.num_blocks(), 10u);
  for (int h = 0; h < 10; h++) {
    std::shared_ptr<const Block> block;
    ASSERT_TRUE(store.ReadBlock(h, &block).ok());
    EXPECT_EQ(block->height(), static_cast<BlockId>(h));
    EXPECT_TRUE(block->Validate().ok());
  }
  std::shared_ptr<const Block> missing;
  EXPECT_TRUE(store.ReadBlock(10, &missing).IsNotFound());
  store.Close();
}

TEST(BlockStoreTest, RejectsNonConsecutiveHeights) {
  ScratchDir dir("store_heights");
  BlockStore store;
  ASSERT_TRUE(store.Open(BlockStoreOptions(), dir.path()).ok());
  ASSERT_TRUE(store.Append(MakeBlock(0, Hash256{}, 1, 1)).ok());
  EXPECT_TRUE(store.Append(MakeBlock(2, Hash256{}, 1, 1)).IsInvalidArgument());
  EXPECT_TRUE(store.Append(MakeBlock(0, Hash256{}, 1, 1)).IsInvalidArgument());
}

TEST(BlockStoreTest, ReadHeaderAndTransaction) {
  ScratchDir dir("store_partial");
  BlockStore store;
  ASSERT_TRUE(store.Open(BlockStoreOptions(), dir.path()).ok());
  Block block = MakeBlock(0, Hash256{}, 1, 6);
  ASSERT_TRUE(store.Append(block).ok());

  BlockHeader header;
  ASSERT_TRUE(store.ReadHeader(0, &header).ok());
  EXPECT_EQ(header, block.header());

  for (uint32_t i = 0; i < 6; i++) {
    std::shared_ptr<const Transaction> txn;
    ASSERT_TRUE(store.ReadTransaction(0, i, &txn).ok());
    EXPECT_EQ(*txn, block.transactions()[i]);
  }
  std::shared_ptr<const Transaction> txn;
  EXPECT_FALSE(store.ReadTransaction(0, 6, &txn).ok());
  EXPECT_GT(store.stats().transactions_read.load(), 0u);
}

TEST(BlockStoreTest, RecoversAfterReopen) {
  ScratchDir dir("store_recover");
  Hash256 prev{};
  {
    BlockStore store;
    ASSERT_TRUE(store.Open(BlockStoreOptions(), dir.path()).ok());
    for (int h = 0; h < 7; h++) {
      Block block = MakeBlock(h, prev, h * 3 + 1, 3);
      prev = block.header().block_hash;
      ASSERT_TRUE(store.Append(block).ok());
    }
    store.Close();
  }
  BlockStore store;
  ASSERT_TRUE(store.Open(BlockStoreOptions(), dir.path()).ok());
  EXPECT_EQ(store.num_blocks(), 7u);
  std::shared_ptr<const Block> block;
  ASSERT_TRUE(store.ReadBlock(6, &block).ok());
  EXPECT_TRUE(block->Validate().ok());
  // And appending continues where it left off.
  ASSERT_TRUE(store.Append(MakeBlock(7, prev, 22, 2)).ok());
  EXPECT_EQ(store.num_blocks(), 8u);
}

TEST(BlockStoreTest, SegmentRollAtSizeLimit) {
  ScratchDir dir("store_segments");
  BlockStoreOptions options;
  options.segment_size = 4096;  // tiny segments force rolling
  BlockStore store;
  ASSERT_TRUE(store.Open(options, dir.path()).ok());
  for (int h = 0; h < 30; h++) {
    ASSERT_TRUE(store.Append(MakeBlock(h, Hash256{}, h * 4 + 1, 4)).ok());
  }
  std::vector<std::string> files;
  ASSERT_TRUE(ListDir(dir.path(), &files).ok());
  EXPECT_GT(files.size(), 1u) << "expected multiple segments";
  // Everything still readable, including after reopen.
  store.Close();
  BlockStore reopened;
  ASSERT_TRUE(reopened.Open(options, dir.path()).ok());
  EXPECT_EQ(reopened.num_blocks(), 30u);
  for (int h = 0; h < 30; h++) {
    std::shared_ptr<const Block> block;
    ASSERT_TRUE(reopened.ReadBlock(h, &block).ok()) << h;
    EXPECT_EQ(block->height(), static_cast<BlockId>(h));
  }
}

TEST(BlockStoreTest, BlockCacheServesRepeatReads) {
  ScratchDir dir("store_cache");
  BlockStoreOptions options;
  options.block_cache_bytes = 10 << 20;
  BlockStore store;
  ASSERT_TRUE(store.Open(options, dir.path()).ok());
  ASSERT_TRUE(store.Append(MakeBlock(0, Hash256{}, 1, 5)).ok());

  std::shared_ptr<const Block> block;
  ASSERT_TRUE(store.ReadBlock(0, &block).ok());
  uint64_t disk_reads = store.stats().blocks_read.load();
  ASSERT_TRUE(store.ReadBlock(0, &block).ok());
  EXPECT_EQ(store.stats().blocks_read.load(), disk_reads);  // cache hit
  EXPECT_GT(store.stats().cache_hits.load(), 0u);
}

TEST(BlockStoreTest, TransactionCacheServesRepeatReads) {
  ScratchDir dir("store_txn_cache");
  BlockStoreOptions options;
  options.transaction_cache_bytes = 10 << 20;
  BlockStore store;
  ASSERT_TRUE(store.Open(options, dir.path()).ok());
  ASSERT_TRUE(store.Append(MakeBlock(0, Hash256{}, 1, 5)).ok());

  std::shared_ptr<const Transaction> txn;
  ASSERT_TRUE(store.ReadTransaction(0, 2, &txn).ok());
  uint64_t disk_reads = store.stats().transactions_read.load();
  ASSERT_TRUE(store.ReadTransaction(0, 2, &txn).ok());
  EXPECT_EQ(store.stats().transactions_read.load(), disk_reads);
  EXPECT_GT(store.stats().cache_hits.load(), 0u);
}

// The read path CRC-checks every record: corrupt a payload byte while the
// store is open (so the startup scan has already indexed the record) and the
// next ReadBlock must report Corruption rather than decode garbage.
TEST(BlockStoreTest, DetectsCorruptedRecordOnRead) {
  ScratchDir dir("store_corrupt");
  BlockStore store;
  ASSERT_TRUE(store.Open(BlockStoreOptions(), dir.path()).ok());
  ASSERT_TRUE(store.Append(MakeBlock(0, Hash256{}, 1, 3)).ok());

  // Flip a byte in the middle of the payload, behind the store's back.
  std::vector<std::string> files;
  ASSERT_TRUE(ListDir(dir.path(), &files).ok());
  ASSERT_EQ(files.size(), 1u);
  std::string path = dir.path() + "/" + files[0];
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 100, SEEK_SET);
  int c = fgetc(f);
  fseek(f, 100, SEEK_SET);
  fputc(c ^ 0xff, f);
  fclose(f);

  std::shared_ptr<const Block> block;
  EXPECT_TRUE(store.ReadBlock(0, &block).IsCorruption());
}

// Reopening over that same corruption self-heals instead: the defective
// record sits in the tail segment, so recovery truncates it away and the
// store comes back empty but writable.
TEST(BlockStoreTest, ReopenTruncatesCorruptedTailRecord) {
  ScratchDir dir("store_corrupt_reopen");
  {
    BlockStore store;
    ASSERT_TRUE(store.Open(BlockStoreOptions(), dir.path()).ok());
    ASSERT_TRUE(store.Append(MakeBlock(0, Hash256{}, 1, 3)).ok());
    store.Close();
  }
  std::vector<std::string> files;
  ASSERT_TRUE(ListDir(dir.path(), &files).ok());
  ASSERT_EQ(files.size(), 1u);
  std::string path = dir.path() + "/" + files[0];
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 100, SEEK_SET);
  int c = fgetc(f);
  fseek(f, 100, SEEK_SET);
  fputc(c ^ 0xff, f);
  fclose(f);

  BlockStore store;
  ASSERT_TRUE(store.Open(BlockStoreOptions(), dir.path()).ok());
  EXPECT_EQ(store.num_blocks(), 0u);
  EXPECT_TRUE(store.recovery_stats().tail_truncated);
  EXPECT_EQ(store.recovery_stats().records_dropped, 1u);
  EXPECT_GT(store.recovery_stats().bytes_truncated, 0u);

  // The store stays usable: fresh appends land where the garbage was.
  ASSERT_TRUE(store.Append(MakeBlock(0, Hash256{}, 1, 2)).ok());
  std::shared_ptr<const Block> block;
  ASSERT_TRUE(store.ReadBlock(0, &block).ok());
  EXPECT_EQ(block->transactions().size(), 2u);
}

TEST(BlockStoreTest, RawRecordMatchesEncoding) {
  ScratchDir dir("store_raw");
  BlockStore store;
  ASSERT_TRUE(store.Open(BlockStoreOptions(), dir.path()).ok());
  Block block = MakeBlock(0, Hash256{}, 1, 2);
  ASSERT_TRUE(store.Append(block).ok());
  std::string record;
  ASSERT_TRUE(store.ReadRawRecord(0, &record).ok());
  std::string expected;
  block.EncodeTo(&expected);
  EXPECT_EQ(record, expected);
}

}  // namespace
}  // namespace sebdb
