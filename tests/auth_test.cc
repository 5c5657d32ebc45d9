// Tests for src/auth: MB-tree VOs (soundness, completeness, tamper
// rejection), the ALI two-phase protocol and the credibility formula.
#include <gtest/gtest.h>

#include <algorithm>

#include "auth/ali.h"
#include "auth/credibility.h"
#include "auth/mbtree.h"
#include "common/random.h"
#include "index/layered_index.h"
#include "storage/block.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;

// Records are "rec<key>" strings; keys recoverable by stripping the prefix.
std::vector<MbTree::Entry> MakeEntries(const std::vector<int64_t>& keys) {
  std::vector<MbTree::Entry> entries;
  for (int64_t k : keys) {
    entries.push_back({Value::Int(k), "rec" + std::to_string(k)});
  }
  return entries;
}

Status RecKeyFn(const Slice& record, Value* key) {
  std::string text = record.ToString();
  if (text.rfind("rec", 0) != 0) return Status::Corruption("bad record");
  *key = Value::Int(std::stoll(text.substr(3)));
  return Status::OK();
}

TEST(MbTreeTest, RootDeterministic) {
  auto a = MbTree::Build(MakeEntries({1, 2, 3, 4, 5}));
  auto b = MbTree::Build(MakeEntries({1, 2, 3, 4, 5}));
  EXPECT_EQ(a->root_hash(), b->root_hash());
  auto c = MbTree::Build(MakeEntries({1, 2, 3, 4, 6}));
  EXPECT_NE(a->root_hash(), c->root_hash());
}

TEST(MbTreeTest, PlainRangeLookup) {
  auto tree = MbTree::Build(MakeEntries({10, 20, 20, 30, 40}));
  std::vector<size_t> indices;
  Value lo = Value::Int(20), hi = Value::Int(30);
  tree->Range(&lo, &hi, &indices);
  EXPECT_EQ(indices.size(), 3u);
}

class MbTreeProofTest : public ::testing::TestWithParam<int> {};

TEST_P(MbTreeProofTest, RangeProofsVerifyExactResults) {
  int n = GetParam();
  std::vector<int64_t> keys;
  for (int i = 0; i < n; i++) keys.push_back(i * 2);  // even keys 0..2n-2
  auto tree = MbTree::Build(MakeEntries(keys));

  Random rng(n);
  for (int q = 0; q < 30; q++) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(2 * n + 4)) - 2;
    int64_t hi = lo + static_cast<int64_t>(rng.Uniform(2 * n / 2 + 2));
    Value vlo = Value::Int(lo), vhi = Value::Int(hi);
    VerificationObject vo;
    ASSERT_TRUE(tree->ProveRange(&vlo, &vhi, &vo).ok());
    std::vector<std::string> records;
    ASSERT_TRUE(MbTree::VerifyRange(tree->root_hash(), vo, &vlo, &vhi,
                                    RecKeyFn, &records)
                    .ok())
        << "n=" << n << " range [" << lo << "," << hi << "]";
    size_t expected = 0;
    for (int64_t k : keys) {
      if (k >= lo && k <= hi) expected++;
    }
    EXPECT_EQ(records.size(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MbTreeProofTest,
                         ::testing::Values(1, 2, 3, 15, 16, 17, 64, 200));

TEST(MbTreeTest, EmptyResultProofVerifies) {
  auto tree = MbTree::Build(MakeEntries({10, 20, 30}));
  Value lo = Value::Int(21), hi = Value::Int(29);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(&lo, &hi, &vo).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(
      MbTree::VerifyRange(tree->root_hash(), vo, &lo, &hi, RecKeyFn, &records)
          .ok());
  EXPECT_TRUE(records.empty());
}

TEST(MbTreeTest, EmptyTreeProof) {
  auto tree = MbTree::Build({});
  Value lo = Value::Int(0), hi = Value::Int(100);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(&lo, &hi, &vo).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(
      MbTree::VerifyRange(tree->root_hash(), vo, &lo, &hi, RecKeyFn, &records)
          .ok());
  EXPECT_TRUE(records.empty());
}

TEST(MbTreeTest, UnboundedRangeDisclosesAll) {
  auto tree = MbTree::Build(MakeEntries({1, 2, 3, 4, 5}));
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(nullptr, nullptr, &vo).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(MbTree::VerifyRange(tree->root_hash(), vo, nullptr, nullptr,
                                  RecKeyFn, &records)
                  .ok());
  EXPECT_EQ(records.size(), 5u);
}

TEST(MbTreeTest, DuplicateKeysAllReturned) {
  auto tree = MbTree::Build(MakeEntries({5, 5, 5, 7, 7}));
  Value k = Value::Int(5);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(&k, &k, &vo).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(
      MbTree::VerifyRange(tree->root_hash(), vo, &k, &k, RecKeyFn, &records)
          .ok());
  EXPECT_EQ(records.size(), 3u);
}

TEST(MbTreeTest, TamperedRecordRejected) {
  auto tree = MbTree::Build(MakeEntries({10, 20, 30, 40}));
  Value lo = Value::Int(20), hi = Value::Int(30);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(&lo, &hi, &vo).ok());
  // Find and modify a full record anywhere in the VO.
  std::function<bool(VerificationObject::Node&)> tamper =
      [&](VerificationObject::Node& node) -> bool {
    for (auto& entry : node.entries) {
      if (entry.full && entry.record == "rec20") {
        entry.record = "rec21";  // forged value
        return true;
      }
    }
    for (auto& child : node.children) {
      if (tamper(child)) return true;
    }
    return false;
  };
  ASSERT_TRUE(tamper(vo.root));
  std::vector<std::string> records;
  EXPECT_TRUE(
      MbTree::VerifyRange(tree->root_hash(), vo, &lo, &hi, RecKeyFn, &records)
          .IsVerificationFailed());
}

TEST(MbTreeTest, WithheldResultRejected) {
  auto tree = MbTree::Build(MakeEntries({10, 20, 30, 40}));
  Value lo = Value::Int(15), hi = Value::Int(35);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(&lo, &hi, &vo).ok());
  // Maliciously hide the in-range record "rec20" behind its hash.
  std::function<bool(VerificationObject::Node&)> hide =
      [&](VerificationObject::Node& node) -> bool {
    for (auto& entry : node.entries) {
      if (entry.full && entry.record == "rec20") {
        entry.hash = Sha256::Digest(entry.record);
        entry.full = false;
        entry.record.clear();
        return true;
      }
    }
    for (auto& child : node.children) {
      if (hide(child)) return true;
    }
    return false;
  };
  ASSERT_TRUE(hide(vo.root));
  std::vector<std::string> records;
  Status s =
      MbTree::VerifyRange(tree->root_hash(), vo, &lo, &hi, RecKeyFn, &records);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
}

TEST(MbTreeTest, WrongRootRejected) {
  auto tree = MbTree::Build(MakeEntries({1, 2, 3}));
  Value lo = Value::Int(1), hi = Value::Int(2);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(&lo, &hi, &vo).ok());
  std::vector<std::string> records;
  Hash256 wrong = Sha256::Digest(Slice("not the root"));
  EXPECT_TRUE(MbTree::VerifyRange(wrong, vo, &lo, &hi, RecKeyFn, &records)
                  .IsVerificationFailed());
}

// Block apply records MbTree::ComputeRoot over the sorted record hashes
// instead of building the tree; both must hash the same levels.
TEST(MbTreeTest, ComputeRootMatchesBuild) {
  Random rng(0xa11);
  for (size_t fanout : {2u, 4u, 16u}) {
    MbTree::Options options;
    options.fanout = fanout;
    for (int round = 0; round < 40; round++) {
      const size_t n = rng.Uniform(round < 5 ? 3 : 300);
      std::vector<MbTree::Entry> entries;
      for (size_t i = 0; i < n; i++) {
        // Few distinct keys, so duplicates are common.
        const int64_t key = static_cast<int64_t>(rng.Uniform(n / 4 + 2));
        entries.push_back({Value::Int(key), "rec" + std::to_string(key) +
                                                "#" + std::to_string(i)});
      }
      std::stable_sort(entries.begin(), entries.end(),
                       [](const MbTree::Entry& a, const MbTree::Entry& b) {
                         return a.key.CompareTotal(b.key) < 0;
                       });
      std::vector<Hash256> hashes;
      for (const auto& e : entries) hashes.push_back(Sha256::Digest(e.record));
      EXPECT_EQ(MbTree::ComputeRoot(hashes, options),
                MbTree::Build(std::move(entries), options)->root_hash())
          << "fanout " << fanout << " n " << n;
    }
  }
}

TEST(MbTreeTest, VoSerializationRoundTrip) {
  auto tree = MbTree::Build(MakeEntries({1, 2, 3, 4, 5, 6, 7, 8}));
  Value lo = Value::Int(3), hi = Value::Int(5);
  VerificationObject vo;
  ASSERT_TRUE(tree->ProveRange(&lo, &hi, &vo).ok());
  std::string buf;
  vo.EncodeTo(&buf);
  EXPECT_EQ(vo.ByteSize(), buf.size());
  Slice input(buf);
  VerificationObject decoded;
  ASSERT_TRUE(VerificationObject::DecodeFrom(&input, &decoded).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(MbTree::VerifyRange(tree->root_hash(), decoded, &lo, &hi,
                                  RecKeyFn, &records)
                  .ok());
  EXPECT_EQ(records.size(), 3u);
}

VerificationObject::Node RandomVoNode(Random* rng, int depth) {
  VerificationObject::Node node;
  const uint64_t pick = depth >= 3 ? rng->Uniform(2) : rng->Uniform(3);
  node.kind = static_cast<VerificationObject::Kind>(pick);
  switch (node.kind) {
    case VerificationObject::Kind::kPruned:
      node.hash = Sha256::Digest(Slice(std::to_string(rng->Next())));
      break;
    case VerificationObject::Kind::kLeaf:
      // Up to 200 entries and 300-byte records cross the 1-byte varint.
      node.entries.resize(rng->Uniform(200));
      for (auto& entry : node.entries) {
        entry.full = rng->Uniform(2) == 1;
        if (entry.full) {
          entry.record = std::string(rng->Uniform(300), 'r');
        } else {
          entry.hash = Sha256::Digest(Slice(std::to_string(rng->Next())));
        }
      }
      break;
    case VerificationObject::Kind::kInternal:
      for (uint64_t i = rng->Uniform(5); i > 0; i--) {
        node.children.push_back(RandomVoNode(rng, depth + 1));
      }
      break;
  }
  return node;
}

size_t EncodedSize(const VerificationObject& vo) {
  std::string buf;
  vo.EncodeTo(&buf);
  return buf.size();
}

TEST(MbTreeTest, ByteSizeMatchesEncoding) {
  Random rng(60);
  for (int trial = 0; trial < 200; trial++) {
    VerificationObject vo;
    vo.root = RandomVoNode(&rng, 0);
    ASSERT_EQ(vo.ByteSize(), EncodedSize(vo)) << "trial " << trial;
  }
  // Pruned-only: an internal root whose children are all hashes.
  VerificationObject pruned;
  pruned.root.kind = VerificationObject::Kind::kInternal;
  pruned.root.children.resize(3);
  EXPECT_EQ(pruned.ByteSize(), EncodedSize(pruned));
  // Proofs from real trees, the empty one included.
  for (int n : {0, 1, 40, 500}) {
    std::vector<int64_t> keys;
    for (int k = 0; k < n; k++) keys.push_back(k);
    auto tree = MbTree::Build(MakeEntries(keys));
    Value lo = Value::Int(n / 3), hi = Value::Int(n / 2);
    VerificationObject vo;
    ASSERT_TRUE(tree->ProveRange(&lo, &hi, &vo).ok());
    EXPECT_EQ(vo.ByteSize(), EncodedSize(vo)) << "n " << n;
  }
}

// ---- ALI ----

Block MakeBlockOf(BlockId height, std::vector<Transaction> txns) {
  BlockBuilder builder;
  builder.SetHeight(height).SetTimestamp(height * 100).SetFirstTid(height * 100 + 1);
  for (auto& txn : txns) builder.AddTransaction(std::move(txn));
  return std::move(builder).Build("sig");
}

ColumnExtractor AmountExtractor() {
  return [](const Transaction& txn, Value* out) {
    if (txn.tname() != "donate" || txn.values().empty()) return false;
    *out = txn.values()[0];
    return true;
  };
}

Status TxnAmountKeyFn(const Slice& record, Value* key) {
  Transaction txn;
  Slice input = record;
  Status s = Transaction::DecodeFrom(&input, &txn);
  if (!s.ok()) return s;
  *key = txn.GetColumn(5);  // first app column
  return Status::OK();
}

// A standalone ALI over blocks kept in memory: the loader serves its
// MB-tree rebuilds, like the block store does inside IndexSet.
class AliTest : public ::testing::Test {
 protected:
  void SetUp() override { Init(/*num_blocks=*/10); }

  // Block b holds amounts b*100 .. b*100+49; with pad_bytes > 0 each txn
  // also carries a string column of that many bytes.
  void Init(int num_blocks, size_t pad_bytes = 0) {
    LayeredIndexOptions options;
    options.histogram_buckets = 8;
    layered_ = std::make_unique<LayeredIndex>("donate.amount", options,
                                              AmountExtractor());
    ali_ = std::make_unique<AuthenticatedLayeredIndex>(layered_.get());
    ali_->SetBlockLoader(
        [this](BlockId bid, std::shared_ptr<const Block>* out) -> Status {
          loads_++;
          if (bid >= blocks_.size()) return Status::NotFound("no block");
          *out = blocks_[bid];
          return Status::OK();
        });
    blocks_.clear();
    for (int b = 0; b < num_blocks; b++) {
      std::vector<Transaction> txns;
      for (int i = 0; i < 50; i++) {
        std::vector<Value> values = {Value::Int(b * 100 + i)};
        if (pad_bytes > 0) {
          values.push_back(Value::Str(std::string(pad_bytes, 'x')));
        }
        txns.push_back(
            MakeTxn("donate", "org1", b * 100 + i, std::move(values)));
      }
      blocks_.push_back(
          std::make_shared<const Block>(MakeBlockOf(b, std::move(txns))));
      ASSERT_TRUE(layered_->AddBlock(*blocks_.back()).ok());
      ASSERT_TRUE(ali_->AddBlock(*blocks_.back()).ok());
    }
  }

  std::vector<std::shared_ptr<const Block>> blocks_;
  int loads_ = 0;
  std::unique_ptr<LayeredIndex> layered_;
  std::unique_ptr<AuthenticatedLayeredIndex> ali_;
};

// Apply keeps only MB-tree roots: a long tail with no checkpoint holds no
// tree, and proving over it rebuilds each visited block from the store,
// bounded by the tree cache budget. Each block's records take ~100 KB, so
// the ~150 visited blocks exceed the budget.
TEST_F(AliTest, TailTreesRebuildFromStoreWithinCacheBudget) {
  constexpr size_t kPadBytes = 2000;
  Init(/*num_blocks=*/300, kPadBytes);
  EXPECT_EQ(ali_->tree_cache_stats().entries, 0u);
  EXPECT_EQ(ali_->tree_cache_stats().usage, 0u);
  EXPECT_EQ(loads_, 0);

  Value lo = Value::Int(10000), hi = Value::Int(25049);  // blocks 100..250
  AuthQueryResponse response;
  ASSERT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 300, &response).ok());
  // Without a histogram the candidate set over-covers the range; every
  // visited block is rebuilt once.
  const size_t visited = response.proofs.size();
  EXPECT_GE(visited, 151u);
  EXPECT_EQ(loads_, static_cast<int>(visited));
  Hash256 digest;
  ASSERT_TRUE(ali_->ComputeDigest(&lo, &hi, nullptr, 300, &digest).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(AuthenticatedLayeredIndex::VerifyResponse(
                  response, &lo, &hi, TxnAmountKeyFn, {digest}, 1, &records)
                  .ok());
  EXPECT_EQ(records.size(), 151u * 50u);
  size_t record_bytes = 0;
  for (const auto& record : records) record_bytes += record.size();
  EXPECT_GT(record_bytes, AuthenticatedLayeredIndex::kTreeCacheBytes);

  const auto stats = ali_->tree_cache_stats();
  EXPECT_GT(stats.entries, 0u);
  EXPECT_LT(stats.entries, visited);  // the budget evicted older rebuilds
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.usage, AuthenticatedLayeredIndex::kTreeCacheBytes);

  // The newest rebuilt block is served from the cache.
  std::shared_ptr<const MbTree> tree;
  ASSERT_TRUE(ali_->Tree(response.proofs.back().block, &tree).ok());
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(loads_, static_cast<int>(visited));
}

TEST_F(AliTest, TwoPhaseProtocolVerifies) {
  Value lo = Value::Int(120), hi = Value::Int(335);
  AuthQueryResponse response;
  ASSERT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 10, &response).ok());
  EXPECT_GE(response.proofs.size(), 3u);  // blocks 1, 2, 3

  Hash256 digest;
  ASSERT_TRUE(ali_->ComputeDigest(&lo, &hi, nullptr, 10, &digest).ok());

  std::vector<std::string> records;
  ASSERT_TRUE(AuthenticatedLayeredIndex::VerifyResponse(
                  response, &lo, &hi, TxnAmountKeyFn, {digest, digest},
                  /*required_matching=*/2, &records)
                  .ok());
  // Amounts 120..149, 200..249, 300..335.
  EXPECT_EQ(records.size(), 30u + 50u + 36u);
}

TEST_F(AliTest, MismatchedDigestRejected) {
  Value lo = Value::Int(120), hi = Value::Int(140);
  AuthQueryResponse response;
  ASSERT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 10, &response).ok());
  Hash256 bogus = Sha256::Digest(Slice("byzantine"));
  std::vector<std::string> records;
  EXPECT_TRUE(AuthenticatedLayeredIndex::VerifyResponse(
                  response, &lo, &hi, TxnAmountKeyFn, {bogus, bogus}, 2,
                  &records)
                  .IsVerificationFailed());
}

TEST_F(AliTest, OmittedBlockProofChangesDigest) {
  Value lo = Value::Int(120), hi = Value::Int(335);
  AuthQueryResponse response;
  ASSERT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 10, &response).ok());
  Hash256 digest;
  ASSERT_TRUE(ali_->ComputeDigest(&lo, &hi, nullptr, 10, &digest).ok());
  // A malicious full node drops one visited block entirely.
  response.proofs.erase(response.proofs.begin() + 1);
  std::vector<std::string> records;
  EXPECT_TRUE(AuthenticatedLayeredIndex::VerifyResponse(
                  response, &lo, &hi, TxnAmountKeyFn, {digest, digest}, 2,
                  &records)
                  .IsVerificationFailed());
}

TEST_F(AliTest, SnapshotPinnedAtLowerHeight) {
  Value lo = Value::Int(0), hi = Value::Int(10000);
  // Height pinned at 5: only blocks 0..4 participate.
  AuthQueryResponse response;
  ASSERT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 5, &response).ok());
  EXPECT_EQ(response.proofs.size(), 5u);
  Hash256 digest;
  ASSERT_TRUE(ali_->ComputeDigest(&lo, &hi, nullptr, 5, &digest).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(AuthenticatedLayeredIndex::VerifyResponse(
                  response, &lo, &hi, TxnAmountKeyFn, {digest}, 1, &records)
                  .ok());
  EXPECT_EQ(records.size(), 250u);
}

// The plain index can run a block ahead of the root list while that block's
// ALI merge is still in flight. Queries stay within the recorded roots, and
// a pinned height past them is refused rather than read out of bounds.
TEST_F(AliTest, PlainIndexAheadOfRootList) {
  Value lo = Value::Int(0), hi = Value::Int(100000);
  Hash256 before;
  ASSERT_TRUE(ali_->ComputeDigest(&lo, &hi, nullptr, 10, &before).ok());

  std::vector<Transaction> txns;
  for (int i = 0; i < 50; i++) {
    txns.push_back(MakeTxn("donate", "org1", 1000 + i, {Value::Int(1000 + i)}));
  }
  blocks_.push_back(
      std::make_shared<const Block>(MakeBlockOf(10, std::move(txns))));
  ASSERT_TRUE(layered_->AddBlock(*blocks_.back()).ok());
  ASSERT_EQ(layered_->num_blocks(), 11u);
  ASSERT_EQ(ali_->num_blocks(), 10u);

  const Bitmap visit = ali_->BlocksToVisit(&lo, &hi, nullptr, 11);
  EXPECT_EQ(visit.SetBits().size(), 10u);
  EXPECT_FALSE(visit.Test(10));
  AuthQueryResponse response;
  EXPECT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 11, &response)
                  .IsInvalidArgument());
  Hash256 digest;
  EXPECT_TRUE(ali_->ComputeDigest(&lo, &hi, nullptr, 11, &digest)
                  .IsInvalidArgument());
  ASSERT_TRUE(ali_->ComputeDigest(&lo, &hi, nullptr, 10, &digest).ok());
  EXPECT_EQ(digest, before);
  ASSERT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 10, &response).ok());
  EXPECT_EQ(response.proofs.size(), 10u);

  // Once its root is recorded, the block joins the query.
  ASSERT_TRUE(ali_->AddBlock(*blocks_.back()).ok());
  ASSERT_TRUE(ali_->ComputeDigest(&lo, &hi, nullptr, 11, &digest).ok());
  EXPECT_NE(digest, before);
  ASSERT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 11, &response).ok());
  std::vector<std::string> records;
  ASSERT_TRUE(AuthenticatedLayeredIndex::VerifyResponse(
                  response, &lo, &hi, TxnAmountKeyFn, {digest}, 1, &records)
                  .ok());
  EXPECT_EQ(records.size(), 550u);
}

TEST(AuthQueryResponseTest, ByteSizeMatchesEncoding) {
  Random rng(61);
  AuthQueryResponse empty;
  std::string buf;
  empty.EncodeTo(&buf);
  EXPECT_EQ(empty.ByteSize(), buf.size());
  for (int trial = 0; trial < 50; trial++) {
    AuthQueryResponse response;
    response.chain_height = rng.Next() >> rng.Uniform(64);
    response.proofs.resize(rng.Uniform(150));
    for (auto& proof : response.proofs) {
      proof.block = rng.Next() >> rng.Uniform(64);
      proof.vo.root = RandomVoNode(&rng, 1);
    }
    buf.clear();
    response.EncodeTo(&buf);
    ASSERT_EQ(response.ByteSize(), buf.size()) << "trial " << trial;
  }
}

TEST_F(AliTest, ResponseSerializationRoundTrip) {
  Value lo = Value::Int(120), hi = Value::Int(140);
  AuthQueryResponse response;
  ASSERT_TRUE(ali_->ProveRange(&lo, &hi, nullptr, 10, &response).ok());
  std::string buf;
  response.EncodeTo(&buf);
  Slice input(buf);
  AuthQueryResponse decoded;
  ASSERT_TRUE(AuthQueryResponse::DecodeFrom(&input, &decoded).ok());
  EXPECT_EQ(decoded.chain_height, response.chain_height);
  EXPECT_EQ(decoded.proofs.size(), response.proofs.size());
}

// ---- credibility (Eqs. 4-6) ----

TEST(CredibilityTest, ZeroWhenMatchingExceedsByzantineBound) {
  CredibilityParams params{0.25, 4, 2, 1};  // m=2 > max=1
  EXPECT_EQ(DigestWrongProbability(params), 0.0);
}

TEST(CredibilityTest, MonotoneInM) {
  double prev = 1.0;
  for (int m = 1; m <= 5; m++) {
    CredibilityParams params{0.2, 10, m, 10};
    double theta = DigestWrongProbability(params);
    EXPECT_LE(theta, prev + 1e-12) << m;
    prev = theta;
  }
}

TEST(CredibilityTest, HalfByzantineGivesHalf) {
  // p = 0.5: wrong and right digests are symmetric.
  CredibilityParams params{0.5, 10, 3, 10};
  EXPECT_NEAR(DigestWrongProbability(params), 0.5, 1e-9);
}

TEST(CredibilityTest, SmallPGivesSmallTheta) {
  CredibilityParams params{0.1, 10, 3, 10};
  double theta = DigestWrongProbability(params);
  EXPECT_LT(theta, 0.02);
  EXPECT_GT(theta, 0.0);
}

TEST(CredibilityTest, MinMatchingForTarget) {
  int m = MinMatchingForCredibility(0.2, 10, 10, 0.01);
  ASSERT_GT(m, 0);
  CredibilityParams params{0.2, 10, m, 10};
  EXPECT_LE(DigestWrongProbability(params), 0.01);
  if (m > 1) {
    CredibilityParams weaker{0.2, 10, m - 1, 10};
    EXPECT_GT(DigestWrongProbability(weaker), 0.01);
  }
  // With a single auxiliary node, a near-half Byzantine fraction and a
  // Byzantine bound that never rules digests out, no m can reach 1e-9.
  EXPECT_EQ(MinMatchingForCredibility(0.49, 1, 10, 1e-9), -1);
}

TEST(CredibilityTest, InvalidMGivesOne) {
  EXPECT_EQ(DigestWrongProbability({0.2, 4, 0, 4}), 1.0);
  EXPECT_EQ(DigestWrongProbability({0.2, 4, 5, 4}), 1.0);
}

}  // namespace
}  // namespace sebdb
