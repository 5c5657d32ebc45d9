// Full-node integration tests: a 4-node cluster over the simulated network
// running SQL writes through consensus, gossip replication to an observer,
// the thin-client authenticated protocol, access control and stored
// procedures.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "core/node.h"
#include "core/procedure.h"
#include "core/thin_client.h"
#include "core/thin_client_transport.h"
#include "tests/test_util.h"
#include "network/sim_network.h"

namespace sebdb {
namespace {

using testing_util::ScratchDir;

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("cluster");
    participants_ = {"n0", "n1", "n2", "n3"};
    for (const auto& id : participants_) {
      ASSERT_TRUE(keystore_.AddIdentity(id, "secret-" + id).ok());
    }
    ASSERT_TRUE(keystore_.AddIdentity("org1", "secret-org1").ok());

    for (const auto& id : participants_) {
      NodeOptions options;
      options.node_id = id;
      options.data_dir = dir_->path() + "/" + id;
      options.consensus = ConsensusKind::kKafka;
      options.participants = participants_;
      options.consensus_options.max_batch_txns = 5;
      options.consensus_options.batch_timeout_millis = 20;
      options.gossip.interval_millis = 10;
      auto node = std::make_unique<SebdbNode>(options, &keystore_,
                                              &offchain_);
      ASSERT_TRUE(node->Start(&net_).ok()) << id;
      nodes_.push_back(std::move(node));
    }
  }

  void TearDown() override {
    for (auto& node : nodes_) node->Stop();
  }

  bool WaitForHeight(SebdbNode* node, uint64_t height, int timeout_ms = 10000) {
    for (int i = 0; i < timeout_ms / 10; i++) {
      if (node->chain().height() >= height) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  SimNetwork net_;
  std::unique_ptr<ScratchDir> dir_;
  std::vector<std::string> participants_;
  KeyStore keystore_;
  OffchainDb offchain_;
  std::vector<std::unique_ptr<SebdbNode>> nodes_;
};

TEST_F(ClusterTest, CreateInsertSelectAcrossCluster) {
  ResultSet rs;
  ASSERT_TRUE(nodes_[0]
                  ->ExecuteSql(
                      "CREATE donate (donor string, project string, amount "
                      "decimal)",
                      {}, &rs)
                  .ok());
  // The schema reaches every node via consensus.
  for (auto& node : nodes_) {
    ASSERT_TRUE(WaitForHeight(node.get(), 2));
    EXPECT_TRUE(node->chain().catalog()->HasTable("donate"));
  }
  ASSERT_TRUE(nodes_[1]
                  ->ExecuteSql(
                      "INSERT INTO donate VALUES ('Jack', 'Education', 100)",
                      {}, &rs)
                  .ok());
  ASSERT_TRUE(nodes_[2]
                  ->ExecuteSql(
                      "INSERT INTO donate VALUES ('Mary', 'Health', 250.5)",
                      {}, &rs)
                  .ok());
  // nodes_[2] has both inserts (its own committed last); wait for everyone
  // to reach that height before querying elsewhere.
  uint64_t committed_height = nodes_[2]->chain().height();
  for (auto& node : nodes_) {
    ASSERT_TRUE(WaitForHeight(node.get(), committed_height));
  }
  // Query on a *different* node sees the committed data.
  ResultSet result;
  ASSERT_TRUE(nodes_[3]
                  ->ExecuteSql("SELECT donor, amount FROM donate "
                               "WHERE amount > 200",
                               {}, &result)
                  .ok());
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.rows[0][0].AsString(), "Mary");
  // All chains converge to identical tips (synchronize on the max height —
  // any node may momentarily lead).
  uint64_t max_height = 0;
  for (auto& node : nodes_) {
    max_height = std::max(max_height, node->chain().height());
  }
  for (auto& node : nodes_) {
    ASSERT_TRUE(WaitForHeight(node.get(), max_height));
    EXPECT_EQ(node->chain().tip_hash(), nodes_[0]->chain().tip_hash());
  }
}

TEST_F(ClusterTest, InsertTypeCheckingAndWidening) {
  ResultSet rs;
  ASSERT_TRUE(
      nodes_[0]
          ->ExecuteSql("CREATE t (name string, amount decimal)", {}, &rs)
          .ok());
  // Int literal widens into the decimal column.
  ASSERT_TRUE(
      nodes_[0]->ExecuteSql("INSERT INTO t VALUES ('a', 5)", {}, &rs).ok());
  // Wrong arity / type rejected before consensus.
  EXPECT_TRUE(nodes_[0]
                  ->ExecuteSql("INSERT INTO t VALUES ('a')", {}, &rs)
                  .IsInvalidArgument());
  EXPECT_TRUE(nodes_[0]
                  ->ExecuteSql("INSERT INTO t VALUES (5, 'a')", {}, &rs)
                  .IsInvalidArgument());
  EXPECT_TRUE(nodes_[0]
                  ->ExecuteSql("INSERT INTO nope VALUES (1)", {}, &rs)
                  .IsNotFound());
}

TEST_F(ClusterTest, ObserverSyncsViaGossip) {
  ResultSet rs;
  ASSERT_TRUE(nodes_[0]->ExecuteSql("CREATE t (v int)", {}, &rs).ok());
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(nodes_[0]
                    ->ExecuteSql("INSERT INTO t VALUES (" + std::to_string(i) +
                                     ")",
                                 {}, &rs)
                    .ok());
  }
  uint64_t height = nodes_[0]->chain().height();

  // An observer node: no consensus participation, gossip only.
  ASSERT_TRUE(keystore_.AddIdentity("observer", "secret-observer").ok());
  NodeOptions options;
  options.node_id = "observer";
  options.data_dir = dir_->path() + "/observer";
  options.participants = participants_;  // gossip peers
  options.gossip.interval_millis = 10;
  SebdbNode observer(options, &keystore_, nullptr);
  // Not in the participant list -> no consensus engine.
  NodeOptions observer_options = options;
  ASSERT_TRUE(observer.Start(&net_).ok());
  EXPECT_EQ(observer.consensus(), nullptr);
  ASSERT_TRUE(WaitForHeight(&observer, height));

  ResultSet result;
  ASSERT_TRUE(observer.ExecuteSql("SELECT * FROM t", {}, &result).ok());
  EXPECT_EQ(result.num_rows(), 3u);
  // Observer cannot write.
  EXPECT_TRUE(observer.ExecuteSql("INSERT INTO t VALUES (9)", {}, &result)
                  .IsNotSupported());
  observer.Stop();
}

TEST_F(ClusterTest, ThinClientAuthenticatedTrace) {
  ResultSet rs;
  ASSERT_TRUE(nodes_[0]->ExecuteSql("CREATE t (v int)", {}, &rs).ok());
  Transaction txn;
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(nodes_[0]
                    ->MakeInsertTransaction("org1", "t", {Value::Int(i)}, &txn)
                    .ok());
    ASSERT_TRUE(nodes_[0]->SubmitAndWait(std::move(txn)).ok());
  }
  uint64_t height = nodes_[0]->chain().height();
  for (auto& node : nodes_) ASSERT_TRUE(WaitForHeight(node.get(), height));

  std::vector<SebdbNode*> fulls;
  for (auto& node : nodes_) fulls.push_back(node.get());
  ThinClient client(fulls);
  ASSERT_TRUE(client.SyncHeaders().ok());
  EXPECT_EQ(client.num_headers(), height);

  std::vector<Transaction> results;
  AuthQueryStats stats;
  ASSERT_TRUE(client
                  .AuthTraceQuery(/*by_sender=*/true, "org1",
                                  /*num_auxiliary=*/3,
                                  /*required_matching=*/2, &results, &stats)
                  .ok());
  EXPECT_EQ(results.size(), 8u);
  EXPECT_GT(stats.vo_bytes, 0u);

  // Basic approach agrees.
  std::vector<Transaction> basic;
  AuthQueryStats basic_stats;
  ASSERT_TRUE(client.BasicTraceQuery(true, "org1", &basic, &basic_stats).ok());
  EXPECT_EQ(basic.size(), 8u);
  EXPECT_GT(basic_stats.vo_bytes, stats.vo_bytes);  // whole blocks shipped

  // Windowed authenticated trace: restrict to the first half of commits.
  // Every node derives the same window bitmap (block timestamps are
  // deterministic), so the auxiliary digests still match.
  std::sort(results.begin(), results.end(),
            [](const Transaction& a, const Transaction& b) {
              return a.ts() < b.ts();
            });
  Timestamp start = 0;
  Timestamp end = results[3].ts();  // covers at least the first 4 txns
  std::vector<Transaction> windowed;
  ASSERT_TRUE(client
                  .AuthTraceQuery(true, "org1", 3, 2, &windowed, &stats,
                                  &start, &end)
                  .ok());
  EXPECT_GE(windowed.size(), 4u);
  EXPECT_LT(windowed.size(), 8u);
}

TEST_F(ClusterTest, ThinClientAuthenticatedTwoDimTrace) {
  ResultSet rs;
  ASSERT_TRUE(nodes_[0]->ExecuteSql("CREATE a (v int)", {}, &rs).ok());
  ASSERT_TRUE(nodes_[0]->ExecuteSql("CREATE b (v int)", {}, &rs).ok());
  // org1 sends 4 txns to table a and 3 to table b; n0 sends 2 to a.
  Transaction txn;
  auto submit = [&](const std::string& who, const std::string& table,
                    int v) {
    ASSERT_TRUE(
        nodes_[0]->MakeInsertTransaction(who, table, {Value::Int(v)}, &txn)
            .ok());
    ASSERT_TRUE(nodes_[0]->SubmitAndWait(std::move(txn)).ok());
  };
  for (int i = 0; i < 4; i++) submit("org1", "a", i);
  for (int i = 0; i < 3; i++) submit("org1", "b", i);
  for (int i = 0; i < 2; i++) submit("n0", "a", i);
  uint64_t height = nodes_[0]->chain().height();
  for (auto& node : nodes_) ASSERT_TRUE(WaitForHeight(node.get(), height));

  std::vector<SebdbNode*> fulls;
  for (auto& node : nodes_) fulls.push_back(node.get());
  ThinClient client(fulls);
  ASSERT_TRUE(client.SyncHeaders().ok());

  std::vector<Transaction> results;
  AuthQueryStats stats;
  ASSERT_TRUE(
      client.AuthTraceTwoDimQuery("org1", "a", 3, 2, &results, &stats).ok());
  EXPECT_EQ(results.size(), 4u);  // org1's txns to table a only
  for (const auto& result : results) {
    EXPECT_EQ(result.sender(), "org1");
    EXPECT_EQ(result.tname(), "a");
  }
  results.clear();
  ASSERT_TRUE(
      client.AuthTraceTwoDimQuery("n0", "b", 3, 2, &results, &stats).ok());
  EXPECT_EQ(results.size(), 0u);  // n0 never wrote to b
}

TEST_F(ClusterTest, ThinClientAuthenticatedRange) {
  ResultSet rs;
  ASSERT_TRUE(nodes_[0]->ExecuteSql("CREATE d (amount int)", {}, &rs).ok());
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(nodes_[0]
                    ->ExecuteSql(
                        "INSERT INTO d VALUES (" + std::to_string(i) + ")", {},
                        &rs)
                    .ok());
  }
  uint64_t height = nodes_[0]->chain().height();
  for (auto& node : nodes_) {
    ASSERT_TRUE(WaitForHeight(node.get(), height));
    // Every full node maintains the authenticated index.
    ASSERT_TRUE(node->ExecuteSql("CREATE INDEX ON d(amount)", {}, &rs).ok());
  }

  std::vector<SebdbNode*> fulls;
  for (auto& node : nodes_) fulls.push_back(node.get());
  ThinClient client(fulls);
  ASSERT_TRUE(client.SyncHeaders().ok());

  Schema schema;
  ASSERT_TRUE(nodes_[0]->chain().catalog()->GetSchema("d", &schema).ok());
  int column_index = schema.ColumnIndex("amount");
  Value lo = Value::Int(10), hi = Value::Int(19);
  std::vector<Transaction> results;
  AuthQueryStats stats;
  ASSERT_TRUE(client
                  .AuthRangeQuery("d", "amount", column_index, &lo, &hi, 3, 2,
                                  &results, &stats)
                  .ok());
  EXPECT_EQ(results.size(), 10u);
  for (const auto& txn : results) {
    int64_t v = txn.values()[0].AsInt();
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 19);
  }
}

TEST_F(ClusterTest, AccessControlBlocksOutsiders) {
  ResultSet rs;
  ASSERT_TRUE(nodes_[0]->ExecuteSql("CREATE priv (v int)", {}, &rs).ok());
  for (auto& node : nodes_) ASSERT_TRUE(WaitForHeight(node.get(), 2));
  // Channel membership: only n0 may touch "priv".
  for (auto& node : nodes_) {
    ASSERT_TRUE(node->access_control()->AssignTable("priv", "ch").ok());
    ASSERT_TRUE(node->access_control()->AddMember("ch", "n0").ok());
  }
  ASSERT_TRUE(
      nodes_[0]->ExecuteSql("INSERT INTO priv VALUES (1)", {}, &rs).ok());
  EXPECT_TRUE(nodes_[1]
                  ->ExecuteSql("INSERT INTO priv VALUES (2)", {}, &rs)
                  .IsInvalidArgument());
  EXPECT_TRUE(nodes_[1]
                  ->ExecuteSql("SELECT * FROM priv", {}, &rs)
                  .IsInvalidArgument());
}

TEST_F(ClusterTest, StoredProcedureDonationFlow) {
  ResultSet rs;
  ASSERT_TRUE(nodes_[0]
                  ->ExecuteSql("CREATE donate (donor string, amount int)", {},
                               &rs)
                  .ok());
  ProcedureRegistry procedures;
  ASSERT_TRUE(procedures
                  .Register("record_donation",
                            {"INSERT INTO donate VALUES (?, ?)",
                             "SELECT * FROM donate WHERE donor = ?"})
                  .ok());
  EXPECT_TRUE(procedures.Has("record_donation"));
  EXPECT_FALSE(procedures.Has("nope"));
  // Bad SQL rejected at registration.
  EXPECT_TRUE(
      procedures.Register("bad", {"FLY TO the moon"}).IsInvalidArgument());

  std::vector<ResultSet> results;
  ASSERT_TRUE(procedures
                  .Invoke(nodes_[0].get(), "record_donation",
                          {Value::Str("Jack"), Value::Int(42),
                           Value::Str("Jack")},
                          &results)
                  .ok());
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(results[1].num_rows(), 1u);

  // Too few parameters.
  results.clear();
  EXPECT_TRUE(procedures
                  .Invoke(nodes_[0].get(), "record_donation",
                          {Value::Str("x")}, &results)
                  .IsInvalidArgument());
}

TEST_F(ClusterTest, TendermintClusterEndToEnd) {
  // A second cluster on the same network, running Tendermint: the node
  // routes the "tm.*" frames to its engine.
  std::vector<std::string> ids = {"v0", "v1", "v2", "v3"};
  for (const auto& id : ids) {
    ASSERT_TRUE(keystore_.AddIdentity(id, "secret-" + id).ok());
  }
  std::vector<std::unique_ptr<SebdbNode>> cluster;
  for (const auto& id : ids) {
    NodeOptions options;
    options.node_id = id;
    options.data_dir = dir_->path() + "/" + id;
    options.consensus = ConsensusKind::kTendermint;
    options.participants = ids;
    options.consensus_options.max_batch_txns = 2;
    options.consensus_options.batch_timeout_millis = 20;
    options.gossip.interval_millis = 10;
    auto node = std::make_unique<SebdbNode>(options, &keystore_, nullptr);
    ASSERT_TRUE(node->Start(&net_).ok());
    cluster.push_back(std::move(node));
  }
  ResultSet rs;
  ASSERT_TRUE(cluster[0]->ExecuteSql("CREATE t (v int)", {}, &rs).ok());
  // v1 applies the CREATE block at its own pace; wait until its catalog
  // knows the table before submitting from it.
  ASSERT_TRUE(WaitForHeight(cluster[1].get(), 2));
  ASSERT_TRUE(
      cluster[1]->ExecuteSql("INSERT INTO t VALUES (7)", {}, &rs).ok());
  for (auto& node : cluster) {
    ASSERT_TRUE(WaitForHeight(node.get(), 3));
  }
  ResultSet result;
  ASSERT_TRUE(cluster[3]->ExecuteSql("SELECT * FROM t", {}, &result).ok());
  EXPECT_EQ(result.num_rows(), 1u);
  for (auto& node : cluster) node->Stop();
}

// A one-node Kafka cluster whose batches cut on size (`batch`) well before
// their long timeout, so a test can tell "submitted together" (one block)
// from "each waited out its own batch window" (one block per txn).
class SizeCutNodeTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kBatch = 16;

  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("size_cut");
    ASSERT_TRUE(keystore_.AddIdentity("n0", "secret-n0").ok());
    ASSERT_TRUE(keystore_.AddIdentity("org1", "secret-org1").ok());
    NodeOptions options;
    options.node_id = "n0";
    options.data_dir = dir_->path() + "/n0";
    options.participants = {"n0"};
    options.enable_gossip = false;
    options.enable_repair = false;
    options.consensus_options.max_batch_txns = kBatch;
    options.consensus_options.batch_timeout_millis = 1500;
    options.rpc_server.workers = 1;
    node_ = std::make_unique<SebdbNode>(options, &keystore_, nullptr);
    ASSERT_TRUE(node_->Start(&net_).ok());
    ResultSet rs;
    ASSERT_TRUE(node_->ExecuteSql("CREATE t (v int)", {}, &rs).ok());
  }

  void TearDown() override { node_->Stop(); }

  size_t BlockSize(BlockId height) {
    std::shared_ptr<const Block> block;
    EXPECT_TRUE(node_->chain().store()->ReadBlock(height, &block).ok());
    return block == nullptr ? 0 : block->transactions().size();
  }

  SimNetwork net_;
  std::unique_ptr<ScratchDir> dir_;
  KeyStore keystore_;
  std::unique_ptr<SebdbNode> node_;
};

// A multi-row INSERT submits every row before waiting, so its rows share a
// batch instead of each waiting out a batch window of its own.
TEST_F(SizeCutNodeTest, MultiRowInsertLandsInOneBlock) {
  const uint64_t height = node_->chain().height();
  std::string sql = "INSERT INTO t VALUES (0)";
  for (int i = 1; i < 10; i++) sql += ", (" + std::to_string(i) + ")";
  // Ten rows of a 16-txn batch: the size cut does not fire, the timeout
  // cuts one block holding all ten.
  ResultSet rs;
  ASSERT_TRUE(node_->ExecuteSql(sql, {}, &rs).ok());
  EXPECT_EQ(node_->chain().height(), height + 1);
  EXPECT_EQ(BlockSize(height), 10u);
  ResultSet result;
  ASSERT_TRUE(node_->ExecuteSql("SELECT count(*) FROM t", {}, &result).ok());
  EXPECT_EQ(result.rows[0][0].AsInt(), 10);
}

// thin.submit is deferred: the node's only RPC worker hands each txn to
// consensus and moves on, so 16 concurrent remote writes fill one
// size-cut batch instead of being served one batch window at a time.
TEST_F(SizeCutNodeTest, ConcurrentThinSubmitsShareOneBlock) {
  const uint64_t height = node_->chain().height();
  std::vector<Transaction> txns(kBatch);
  for (uint32_t i = 0; i < kBatch; i++) {
    ASSERT_TRUE(node_->MakeInsertTransaction(
                        "org1", "t", {Value::Int(static_cast<int64_t>(i))},
                        &txns[i])
                    .ok());
  }
  RpcThinTransport transport("thin-writer", &net_, {"n0"});
  std::vector<Status> statuses(kBatch);
  std::vector<uint64_t> heights(kBatch, 0);
  std::vector<std::thread> writers;
  for (uint32_t i = 0; i < kBatch; i++) {
    writers.emplace_back([&, i] {
      statuses[i] = transport.Submit("n0", txns[i], &heights[i]);
    });
  }
  for (auto& writer : writers) writer.join();
  for (uint32_t i = 0; i < kBatch; i++) {
    ASSERT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
    EXPECT_EQ(heights[i], height + 1) << i;
  }
  EXPECT_EQ(node_->chain().height(), height + 1);
  EXPECT_EQ(BlockSize(height), kBatch);
}

}  // namespace
}  // namespace sebdb
