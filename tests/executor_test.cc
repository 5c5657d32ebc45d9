// End-to-end query-processing tests: a chain is built directly (no
// consensus), indexed, and queried through SQL with every access path /
// join strategy; paths must agree with each other and with ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "offchain/offchain_db.h"
#include "sql/executor.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;
using testing_util::TestChain;

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chain_ = std::make_unique<TestChain>("executor");

    // Register schemas via schema transactions in block 1.
    Schema donate, transfer, distribute;
    ASSERT_TRUE(Schema::Create("donate",
                               {{"donor", ValueType::kString},
                                {"project", ValueType::kString},
                                {"amount", ValueType::kInt64}},
                               &donate)
                    .ok());
    ASSERT_TRUE(Schema::Create("transfer",
                               {{"project", ValueType::kString},
                                {"organization", ValueType::kString},
                                {"amount", ValueType::kInt64}},
                               &transfer)
                    .ok());
    ASSERT_TRUE(Schema::Create("distribute",
                               {{"organization", ValueType::kString},
                                {"donee", ValueType::kString},
                                {"amount", ValueType::kInt64}},
                               &distribute)
                    .ok());
    std::vector<Transaction> schema_txns;
    for (const Schema* schema : {&donate, &transfer, &distribute}) {
      Transaction txn = Catalog::MakeSchemaTransaction(*schema);
      txn.set_sender("admin");
      txn.set_ts(NextTs());
      schema_txns.push_back(std::move(txn));
    }
    ASSERT_TRUE(chain_->AppendBlock(std::move(schema_txns)).ok());

    // 10 data blocks. donate rows: donor d<i%5>, amount = i (0..99);
    // transfer rows in even blocks by org1; distribute rows in odd blocks.
    int amount = 0;
    for (int b = 0; b < 10; b++) {
      std::vector<Transaction> txns;
      for (int i = 0; i < 10; i++, amount++) {
        txns.push_back(MakeTxn("donate", "donor" + std::to_string(amount % 5),
                               NextTs(),
                               {Value::Str("d" + std::to_string(amount % 5)),
                                Value::Str("proj"), Value::Int(amount)}));
      }
      if (b % 2 == 0) {
        txns.push_back(MakeTxn(
            "transfer", "org1", NextTs(),
            {Value::Str("proj"), Value::Str("school" + std::to_string(b % 3)),
             Value::Int(b * 10)}));
      } else {
        txns.push_back(MakeTxn(
            "distribute", "org2", NextTs(),
            {Value::Str("school" + std::to_string(b % 3)),
             Value::Str("donee" + std::to_string(b)), Value::Int(b)}));
      }
      ASSERT_TRUE(chain_->AppendBlock(std::move(txns)).ok());
    }

    // Off-chain site data.
    ASSERT_TRUE(offchain_
                    .CreateTable("doneeinfo", {{"donee", ValueType::kString},
                                               {"age", ValueType::kInt64}})
                    .ok());
    for (int b = 1; b < 10; b += 2) {
      ASSERT_TRUE(offchain_
                      .Insert("doneeinfo",
                              {Value::Str("donee" + std::to_string(b)),
                               Value::Int(10 + b)})
                      .ok());
    }
    connector_ = std::make_unique<LocalOffchainConnector>(&offchain_);
    executor_ = std::make_unique<Executor>(chain_->store(), chain_->indexes(),
                                           chain_->catalog(),
                                           connector_.get());
  }

  Timestamp NextTs() { return ts_ += 10; }

  ResultSet Run(const std::string& sql, ExecOptions options = {}) {
    ResultSet result;
    Status s = executor_->ExecuteSql(sql, options, &result);
    EXPECT_TRUE(s.ok()) << sql << " -> " << s.ToString();
    return result;
  }

  // Row renderings in result order.
  static std::vector<std::string> InOrder(const ResultSet& result) {
    std::vector<std::string> out;
    for (const auto& row : result.rows) {
      std::string line;
      for (const auto& v : row) line += v.ToString() + "|";
      out.push_back(std::move(line));
    }
    return out;
  }

  // Sorted multiset of row renderings, for path-agreement comparisons.
  static std::vector<std::string> Rendered(const ResultSet& result) {
    std::vector<std::string> out = InOrder(result);
    std::sort(out.begin(), out.end());
    return out;
  }

  Timestamp ts_ = 0;
  std::unique_ptr<TestChain> chain_;
  OffchainDb offchain_;
  std::unique_ptr<LocalOffchainConnector> connector_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(ExecutorTest, SchemaTransactionsPopulateCatalog) {
  EXPECT_TRUE(chain_->catalog()->HasTable("donate"));
  EXPECT_TRUE(chain_->catalog()->HasTable("transfer"));
  EXPECT_TRUE(chain_->catalog()->HasTable("distribute"));
  EXPECT_EQ(chain_->chain().height(), 12u);  // genesis + schema + 10 data
}

TEST_F(ExecutorTest, RangeQueryAllPathsAgree) {
  // One more block whose matching amounts descend by position: every path
  // returns a block's rows in position order, not in indexed-value order.
  std::vector<Transaction> txns;
  for (int amount : {44, 38, 31, 25}) {
    txns.push_back(MakeTxn("donate", "donor9", NextTs(),
                           {Value::Str("d9"), Value::Str("proj"),
                            Value::Int(amount)}));
  }
  ASSERT_TRUE(chain_->AppendBlock(std::move(txns)).ok());
  Run("CREATE INDEX ON donate(amount)");
  const std::string q =
      "SELECT * FROM donate WHERE amount BETWEEN 25 AND 44";
  ExecOptions scan, bitmap, layered;
  scan.access_path = AccessPath::kScan;
  bitmap.access_path = AccessPath::kBitmap;
  layered.access_path = AccessPath::kLayered;
  ResultSet rs_scan = Run(q, scan);
  ResultSet rs_bitmap = Run(q, bitmap);
  ResultSet rs_layered = Run(q, layered);
  EXPECT_EQ(rs_scan.num_rows(), 24u);
  EXPECT_EQ(InOrder(rs_scan), InOrder(rs_bitmap));
  EXPECT_EQ(InOrder(rs_scan), InOrder(rs_layered));
  ASSERT_EQ(rs_layered.num_rows(), 24u);
  const size_t amount = Schema::kNumSystemColumns + 2;
  EXPECT_EQ(rs_layered.rows[20][amount].AsInt(), 44);
  EXPECT_EQ(rs_layered.rows[23][amount].AsInt(), 25);
}

TEST_F(ExecutorTest, AutoPathPicksLayeredWhenIndexed) {
  Run("CREATE INDEX ON donate(amount)");
  ResultSet rs = Run("EXPLAIN SELECT * FROM donate WHERE amount BETWEEN 1 AND 2");
  EXPECT_NE(rs.plan.find("layered(amount"), std::string::npos) << rs.plan;
  ResultSet no_pred = Run("EXPLAIN SELECT * FROM transfer");
  EXPECT_NE(no_pred.plan.find("bitmap"), std::string::npos) << no_pred.plan;
}

TEST_F(ExecutorTest, ParametersBind) {
  ExecOptions options;
  options.params = {Value::Int(10), Value::Int(12)};
  ResultSet rs = Run("SELECT * FROM donate WHERE amount BETWEEN ? AND ?",
                     options);
  EXPECT_EQ(rs.num_rows(), 3u);
}

TEST_F(ExecutorTest, ProjectionAndColumnNames) {
  ResultSet rs = Run("SELECT donor, amount FROM donate WHERE amount = 7");
  ASSERT_EQ(rs.columns.size(), 2u);
  EXPECT_EQ(rs.columns[0], "donate.donor");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsString(), "d2");
  EXPECT_EQ(rs.rows[0][1].AsInt(), 7);
}

TEST_F(ExecutorTest, SelectExposesSystemColumns) {
  ResultSet rs = Run("SELECT tid, senid, tname FROM donate WHERE amount = 0");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_GT(rs.rows[0][0].AsInt(), 0);
  EXPECT_EQ(rs.rows[0][1].AsString(), "donor0");
  EXPECT_EQ(rs.rows[0][2].AsString(), "donate");
}

TEST_F(ExecutorTest, WindowRestrictsBlocks) {
  // The first data block's txns have ts <= 140 (block ts = max of them).
  ResultSet all = Run("SELECT * FROM donate");
  ResultSet windowed = Run("SELECT * FROM donate WINDOW [0, 150]");
  EXPECT_EQ(all.num_rows(), 100u);
  EXPECT_LT(windowed.num_rows(), all.num_rows());
  EXPECT_GT(windowed.num_rows(), 0u);
}

TEST_F(ExecutorTest, TraceOneDimensionAllPathsAgree) {
  const std::string q = "TRACE OPERATOR = 'org1'";
  ExecOptions scan, bitmap, layered;
  scan.access_path = AccessPath::kScan;
  bitmap.access_path = AccessPath::kBitmap;
  layered.access_path = AccessPath::kLayered;
  ResultSet rs_scan = Run(q, scan);
  ResultSet rs_bitmap = Run(q, bitmap);
  ResultSet rs_layered = Run(q, layered);
  EXPECT_EQ(rs_scan.num_rows(), 5u);  // transfer txns in 5 even blocks
  EXPECT_EQ(Rendered(rs_scan), Rendered(rs_bitmap));
  EXPECT_EQ(Rendered(rs_scan), Rendered(rs_layered));
}

TEST_F(ExecutorTest, TraceTwoDimensions) {
  ResultSet rs = Run("TRACE OPERATOR = 'org1', OPERATION = 'transfer'");
  EXPECT_EQ(rs.num_rows(), 5u);
  ResultSet none = Run("TRACE OPERATOR = 'org1', OPERATION = 'distribute'");
  EXPECT_EQ(none.num_rows(), 0u);
  ResultSet by_op = Run("TRACE OPERATION = 'distribute'");
  EXPECT_EQ(by_op.num_rows(), 5u);
}

TEST_F(ExecutorTest, TraceWithWindow) {
  ResultSet all = Run("TRACE OPERATOR = 'org1'");
  ASSERT_EQ(all.num_rows(), 5u);
  // Window covering roughly the first half of the chain.
  ResultSet windowed = Run("TRACE [0, 600] OPERATOR = 'org1'");
  EXPECT_LT(windowed.num_rows(), all.num_rows());
}

TEST_F(ExecutorTest, GetBlockByIdTidTs) {
  ResultSet by_id = Run("GET BLOCK ID=3");
  ASSERT_EQ(by_id.num_rows(), 1u);
  EXPECT_EQ(by_id.rows[0][0].AsInt(), 3);

  int64_t first_tid = by_id.rows[0][1].AsInt();
  ResultSet by_tid = Run("GET BLOCK TID=" + std::to_string(first_tid + 2));
  ASSERT_EQ(by_tid.num_rows(), 1u);
  EXPECT_EQ(by_tid.rows[0][0].AsInt(), 3);

  int64_t block_ts = by_id.rows[0][3].AsTimestamp();
  ResultSet by_ts = Run("GET BLOCK TS=" + std::to_string(block_ts));
  ASSERT_EQ(by_ts.num_rows(), 1u);
  EXPECT_EQ(by_ts.rows[0][0].AsInt(), 3);

  ResultSet result;
  EXPECT_TRUE(executor_->ExecuteSql("GET BLOCK ID=999", {}, &result)
                  .IsNotFound());
}

TEST_F(ExecutorTest, OnChainJoinStrategiesAgree) {
  const std::string q =
      "SELECT * FROM transfer, distribute ON transfer.organization = "
      "distribute.organization";
  ExecOptions scan, bitmap;
  scan.join_strategy = JoinStrategy::kScanHash;
  bitmap.join_strategy = JoinStrategy::kBitmapHash;
  ResultSet rs_scan = Run(q, scan);
  ResultSet rs_bitmap = Run(q, bitmap);
  EXPECT_GT(rs_scan.num_rows(), 0u);
  EXPECT_EQ(Rendered(rs_scan), Rendered(rs_bitmap));

  // With indices on both join columns the merge strategy agrees too.
  Run("CREATE INDEX ON transfer(organization)");
  Run("CREATE INDEX ON distribute(organization)");
  ExecOptions merge;
  merge.join_strategy = JoinStrategy::kLayeredMerge;
  ResultSet rs_merge = Run(q, merge);
  EXPECT_EQ(Rendered(rs_scan), Rendered(rs_merge));

  // Auto now picks layered-merge.
  ResultSet plan = Run("EXPLAIN " + q);
  EXPECT_NE(plan.plan.find("layered-merge"), std::string::npos) << plan.plan;
}

// The layered-merge join reads each matched transaction once: an equal-key
// group of two rows on each side of a block pair is fetched once per side,
// not once per left row and again per (left, right) pair. The window keeps
// the join to that one block, so no transaction is in two pairs.
TEST_F(ExecutorTest, MergeJoinReadsEachTxnOnce) {
  const Timestamp start = ts_ + 1;
  std::vector<Transaction> txns;
  for (int i = 0; i < 2; i++) {
    txns.push_back(MakeTxn("transfer", "org1", NextTs(),
                           {Value::Str("proj"), Value::Str("hospital"),
                            Value::Int(100 + i)}));
    txns.push_back(MakeTxn("distribute", "org2", NextTs(),
                           {Value::Str("hospital"),
                            Value::Str("donee" + std::to_string(20 + i)),
                            Value::Int(200 + i)}));
  }
  ASSERT_TRUE(chain_->AppendBlock(std::move(txns)).ok());
  Run("CREATE INDEX ON transfer(organization)");
  Run("CREATE INDEX ON distribute(organization)");

  ExecOptions merge;
  merge.join_strategy = JoinStrategy::kLayeredMerge;
  StorageStats& stats = chain_->store()->stats();
  const uint64_t reads_before =
      stats.cache_hits.load() + stats.transactions_read.load();
  ResultSet rs = Run(
      "SELECT * FROM transfer, distribute ON transfer.organization = "
      "distribute.organization WINDOW [" +
          std::to_string(start) + ", " + std::to_string(ts_) + "]",
      merge);
  const uint64_t reads =
      stats.cache_hits.load() + stats.transactions_read.load() - reads_before;

  const auto column = [&](const std::string& name) {
    return std::find(rs.columns.begin(), rs.columns.end(), name) -
           rs.columns.begin();
  };
  const size_t left_tid = column("transfer.tid");
  const size_t right_tid = column("distribute.tid");
  ASSERT_LT(right_tid, rs.columns.size());
  std::set<int64_t> left, right;
  for (const auto& row : rs.rows) {
    left.insert(row[left_tid].AsInt());
    right.insert(row[right_tid].AsInt());
  }
  EXPECT_EQ(rs.num_rows(), 4u);  // the 2 x 2 group's cross product
  EXPECT_EQ(left.size(), 2u);
  EXPECT_EQ(right.size(), 2u);
  EXPECT_EQ(reads, left.size() + right.size());
}

TEST_F(ExecutorTest, OnChainJoinGroundTruth) {
  // transfer orgs: school0 (b=0,6), school2 (b=2,8), school1 (b=4);
  // distribute orgs: school1 (b=1,7), school0 (b=3,9), school2 (b=5).
  // Matches: school0 2x2=4, school1 1x2=2, school2 2x1=2 -> 8 rows.
  ExecOptions options;
  options.join_strategy = JoinStrategy::kScanHash;
  ResultSet rs = Run(
      "SELECT * FROM transfer, distribute ON transfer.organization = "
      "distribute.organization",
      options);
  EXPECT_EQ(rs.num_rows(), 8u);
}

TEST_F(ExecutorTest, OnOffJoinStrategiesAgree) {
  const std::string q =
      "SELECT * FROM onchain.distribute, offchain.doneeinfo ON "
      "distribute.donee = doneeinfo.donee";
  ExecOptions scan, bitmap;
  scan.join_strategy = JoinStrategy::kScanHash;
  bitmap.join_strategy = JoinStrategy::kBitmapHash;
  ResultSet rs_scan = Run(q, scan);
  ResultSet rs_bitmap = Run(q, bitmap);
  EXPECT_EQ(rs_scan.num_rows(), 5u);  // donee1,3,5,7,9 all have info
  EXPECT_EQ(Rendered(rs_scan), Rendered(rs_bitmap));

  Run("CREATE INDEX ON distribute(donee)");
  ExecOptions merge;
  merge.join_strategy = JoinStrategy::kLayeredMerge;
  ResultSet rs_merge = Run(q, merge);
  EXPECT_EQ(Rendered(rs_scan), Rendered(rs_merge));
}

TEST_F(ExecutorTest, OnOffJoinTableOrderIrrelevant) {
  ExecOptions options;
  options.join_strategy = JoinStrategy::kBitmapHash;
  ResultSet rs = Run(
      "SELECT * FROM offchain.doneeinfo, onchain.distribute ON "
      "doneeinfo.donee = distribute.donee",
      options);
  EXPECT_EQ(rs.num_rows(), 5u);
  // Off-chain columns come first in the declared order.
  EXPECT_EQ(rs.columns[0], "doneeinfo.donee");
}

TEST_F(ExecutorTest, OffchainOnlySelect) {
  ResultSet rs = Run("SELECT * FROM offchain.doneeinfo WHERE age > 14");
  EXPECT_EQ(rs.num_rows(), 3u);  // ages 16, 18, 20 (donee5,7,9... 11..19)
}

TEST_F(ExecutorTest, JoinWithResidualFilter) {
  ExecOptions options;
  options.join_strategy = JoinStrategy::kBitmapHash;
  ResultSet rs = Run(
      "SELECT * FROM onchain.distribute, offchain.doneeinfo ON "
      "distribute.donee = doneeinfo.donee WHERE age > 14",
      options);
  EXPECT_EQ(rs.num_rows(), 3u);
}

TEST_F(ExecutorTest, ErrorCases) {
  ResultSet rs;
  EXPECT_TRUE(
      executor_->ExecuteSql("SELECT * FROM nope", {}, &rs).IsNotFound());
  ExecOptions layered;
  layered.access_path = AccessPath::kLayered;
  EXPECT_TRUE(executor_
                  ->ExecuteSql("SELECT * FROM transfer WHERE amount = 1",
                               layered, &rs)
                  .IsInvalidArgument());  // no index on transfer.amount yet
  EXPECT_TRUE(executor_->ExecuteSql("INSERT INTO donate VALUES (1,2,3)", {},
                                    &rs)
                  .IsNotSupported());  // writes go through the node
  EXPECT_TRUE(executor_
                  ->ExecuteSql("CREATE INDEX ON donate(nope)", {}, &rs)
                  .IsNotFound());
  EXPECT_TRUE(executor_
                  ->ExecuteSql(
                      "SELECT * FROM offchain.a, offchain.b ON a.x = b.x", {},
                      &rs)
                  .IsNotSupported());
}

TEST_F(ExecutorTest, CreateIndexTwiceFails) {
  Run("CREATE INDEX ON donate(amount)");
  ResultSet rs;
  EXPECT_TRUE(executor_->ExecuteSql("CREATE INDEX ON donate(amount)", {}, &rs)
                  .IsInvalidArgument());
}

TEST_F(ExecutorTest, DiscreteIndexOnStringColumn) {
  Run("CREATE INDEX ON donate(donor)");  // string -> discrete automatically
  ExecOptions layered;
  layered.access_path = AccessPath::kLayered;
  ResultSet rs = Run("SELECT * FROM donate WHERE donor = 'd3'", layered);
  EXPECT_EQ(rs.num_rows(), 20u);
  ResultSet plan =
      Run("EXPLAIN SELECT * FROM donate WHERE donor = 'd3'", layered);
  EXPECT_NE(plan.plan.find("layered(donor"), std::string::npos);
}

// The Q5 and Q6 tables over 24 data blocks, with discrete indexes on both
// join columns. With `checkpoint_at` > 0 the chain checkpoints once that
// many data blocks are in, so the merge joins read the older blocks' second
// levels from checkpoint pages and the newer ones from tail runs.
class JoinChain {
 public:
  JoinChain(const std::string& tag, int checkpoint_at) : chain_(tag) {
    Schema transfer, distribute;
    EXPECT_TRUE(Schema::Create("transfer",
                               {{"project", ValueType::kString},
                                {"organization", ValueType::kString},
                                {"amount", ValueType::kInt64}},
                               &transfer)
                    .ok());
    EXPECT_TRUE(Schema::Create("distribute",
                               {{"organization", ValueType::kString},
                                {"donee", ValueType::kString},
                                {"amount", ValueType::kInt64}},
                               &distribute)
                    .ok());
    std::vector<Transaction> schema_txns;
    for (const Schema* schema : {&transfer, &distribute}) {
      Transaction txn = Catalog::MakeSchemaTransaction(*schema);
      txn.set_sender("admin");
      txn.set_ts(NextTs());
      schema_txns.push_back(std::move(txn));
    }
    EXPECT_TRUE(chain_.AppendBlock(std::move(schema_txns)).ok());

    EXPECT_TRUE(offchain_
                    .CreateTable("doneeinfo", {{"donee", ValueType::kString},
                                               {"age", ValueType::kInt64}})
                    .ok());
    for (int d = 0; d < 8; d++) {  // donee6/7 never occur on chain
      const std::string donee = "donee" + std::to_string(d);
      EXPECT_TRUE(offchain_
                      .Insert("doneeinfo", {Value::Str(donee),
                                            Value::Int(20 + d)})
                      .ok());
    }
    // A duplicate off-chain key: the merge emits both rows per match.
    EXPECT_TRUE(
        offchain_.Insert("doneeinfo", {Value::Str("donee2"), Value::Int(99)})
            .ok());
    connector_ = std::make_unique<LocalOffchainConnector>(&offchain_);
    executor_ = std::make_unique<Executor>(chain_.store(), chain_.indexes(),
                                           chain_.catalog(), connector_.get());
    for (const char* sql : {"CREATE INDEX ON transfer(organization)",
                            "CREATE INDEX ON distribute(organization)",
                            "CREATE INDEX ON distribute(donee)"}) {
      Run(sql, {});
    }

    for (int b = 0; b < 24; b++) {
      std::vector<Transaction> txns;
      for (int i = 0; i < 6; i++) {
        const std::string org = "org" + std::to_string((b * 5 + i) % 4);
        if ((b + i) % 3 != 0) {
          txns.push_back(MakeTxn("transfer", "org1", NextTs(),
                                 {Value::Str("proj"), Value::Str(org),
                                  Value::Int(b * 10 + i)}));
        } else {
          const std::string donee = "donee" + std::to_string((b + i) % 6);
          txns.push_back(MakeTxn("distribute", "org2", NextTs(),
                                 {Value::Str(org), Value::Str(donee),
                                  Value::Int(b * 10 + i)}));
        }
      }
      EXPECT_TRUE(chain_.AppendBlock(std::move(txns)).ok());
      if (b + 1 == checkpoint_at) {
        EXPECT_TRUE(chain_.chain().WriteCheckpoint().ok());
      }
    }
  }

  // Rows in result order, each rendered value by value.
  std::vector<std::string> Run(const std::string& sql, ExecOptions options) {
    ResultSet result;
    Status s = executor_->ExecuteSql(sql, options, &result);
    EXPECT_TRUE(s.ok()) << sql << " -> " << s.ToString();
    std::vector<std::string> rows;
    for (const auto& row : result.rows) {
      std::string line;
      for (const auto& v : row) line += v.ToString() + "|";
      rows.push_back(std::move(line));
    }
    return rows;
  }

  IndexSet* indexes() { return chain_.indexes(); }

 private:
  Timestamp NextTs() { return ts_ += 10; }

  Timestamp ts_ = 0;
  TestChain chain_;
  OffchainDb offchain_;
  std::unique_ptr<LocalOffchainConnector> connector_;
  std::unique_ptr<Executor> executor_;
};

// Both merge joins walk frozen blocks' pages and tail blocks' runs through
// the same cursor: over a chain that is part frozen, part tail, their rows
// are byte-identical, in order, to the same chain never checkpointed.
TEST(ExecutorJoinTest, MergeJoinsMatchAcrossFrozenAndTailBlocks) {
  JoinChain plain("join_plain", /*checkpoint_at=*/0);
  JoinChain hybrid("join_hybrid", /*checkpoint_at=*/13);
  for (const auto& [table, column] :
       {std::pair<const char*, const char*>{"transfer", "organization"},
        {"distribute", "organization"},
        {"distribute", "donee"}}) {
    const LayeredIndex* index = hybrid.indexes()->GetLayered(table, column);
    ASSERT_NE(index, nullptr);
    EXPECT_GT(index->frozen_end(), 1u) << table << "." << column;
    EXPECT_LT(index->frozen_end(), index->num_blocks());
    EXPECT_EQ(plain.indexes()->GetLayered(table, column)->frozen_end(), 0u);
  }

  ExecOptions merge, scan;
  merge.join_strategy = JoinStrategy::kLayeredMerge;
  scan.join_strategy = JoinStrategy::kScanHash;
  for (const std::string q :
       {"SELECT * FROM transfer, distribute ON transfer.organization = "
        "distribute.organization",
        "SELECT * FROM onchain.distribute, offchain.doneeinfo ON "
        "distribute.donee = doneeinfo.donee"}) {
    SCOPED_TRACE(q);
    const std::vector<std::string> want = plain.Run(q, merge);
    EXPECT_GT(want.size(), 0u);
    EXPECT_EQ(hybrid.Run(q, merge), want);
    // And the merge agrees with a scan as a multiset.
    std::vector<std::string> sorted_want = want;
    std::vector<std::string> scanned = hybrid.Run(q, scan);
    std::sort(sorted_want.begin(), sorted_want.end());
    std::sort(scanned.begin(), scanned.end());
    EXPECT_EQ(scanned, sorted_want);
  }
}

}  // namespace
}  // namespace sebdb
