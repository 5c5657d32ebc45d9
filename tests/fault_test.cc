// Failure-injection tests: partitions healed by gossip, node restart with
// chain recovery, lossy networks, Byzantine-style corrupt blocks, and
// snapshot pinning when nodes diverge in height (the paper's motivation for
// the two-phase authenticated protocol, §VI).
#include <gtest/gtest.h>

#include <cstdio>

#include "common/coding.h"
#include "common/fault_env.h"
#include "core/node.h"
#include "core/thin_client.h"
#include "storage/block_store.h"
#include "tests/test_util.h"
#include "network/sim_network.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;
using testing_util::ScratchDir;

bool WaitForHeight(SebdbNode* node, uint64_t height, int timeout_ms = 15000) {
  for (int i = 0; i < timeout_ms / 10; i++) {
    if (node->chain().height() >= height) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

NodeOptions BaseOptions(const std::string& id, const std::string& dir,
                        const std::vector<std::string>& participants) {
  NodeOptions options;
  options.node_id = id;
  options.data_dir = dir + "/" + id;
  options.consensus = ConsensusKind::kKafka;
  options.participants = participants;
  options.consensus_options.max_batch_txns = 5;
  options.consensus_options.batch_timeout_millis = 20;
  options.gossip.interval_millis = 10;
  return options;
}

TEST(FaultTest, PartitionedNodeCatchesUpViaGossip) {
  ScratchDir dir("fault_partition");
  SimNetwork net;
  KeyStore keystore;
  std::vector<std::string> ids = {"n0", "n1", "n2"};
  for (const auto& id : ids) keystore.AddIdentity(id, "s-" + id);

  std::vector<std::unique_ptr<SebdbNode>> nodes;
  for (const auto& id : ids) {
    auto node = std::make_unique<SebdbNode>(BaseOptions(id, dir.path(), ids),
                                            &keystore, nullptr);
    ASSERT_TRUE(node->Start(&net).ok());
    nodes.push_back(std::move(node));
  }
  ResultSet rs;
  ASSERT_TRUE(nodes[0]->ExecuteSql("CREATE t (v int)", {}, &rs).ok());

  // Cut n2 off from everyone.
  net.SetLinkDown("n2", "n0", true);
  net.SetLinkDown("n2", "n1", true);
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(nodes[0]
                    ->ExecuteSql("INSERT INTO t VALUES (" + std::to_string(i) +
                                     ")",
                                 {}, &rs)
                    .ok());
  }
  uint64_t height = nodes[0]->chain().height();
  EXPECT_LT(nodes[2]->chain().height(), height);

  // Heal the partition: gossip anti-entropy recovers the missing blocks.
  net.SetLinkDown("n2", "n0", false);
  net.SetLinkDown("n2", "n1", false);
  ASSERT_TRUE(WaitForHeight(nodes[2].get(), height));
  EXPECT_EQ(nodes[2]->chain().tip_hash(), nodes[0]->chain().tip_hash());
  ResultSet result;
  ASSERT_TRUE(nodes[2]->ExecuteSql("SELECT count(*) FROM t", {}, &result).ok());
  EXPECT_EQ(result.rows[0][0].AsInt(), 5);
  for (auto& node : nodes) node->Stop();
}

TEST(FaultTest, NodeRestartRecoversChainAndIndexes) {
  ScratchDir dir("fault_restart");
  SimNetwork net;
  KeyStore keystore;
  std::vector<std::string> ids = {"n0", "n1"};
  for (const auto& id : ids) keystore.AddIdentity(id, "s-" + id);

  uint64_t height;
  {
    SebdbNode n0(BaseOptions("n0", dir.path(), ids), &keystore, nullptr);
    SebdbNode n1(BaseOptions("n1", dir.path(), ids), &keystore, nullptr);
    ASSERT_TRUE(n0.Start(&net).ok());
    ASSERT_TRUE(n1.Start(&net).ok());
    ResultSet rs;
    ASSERT_TRUE(n0.ExecuteSql("CREATE t (v int)", {}, &rs).ok());
    for (int i = 0; i < 7; i++) {
      ASSERT_TRUE(n0.ExecuteSql(
                        "INSERT INTO t VALUES (" + std::to_string(i) + ")", {},
                        &rs)
                      .ok());
    }
    ASSERT_TRUE(n1.ExecuteSql("CREATE INDEX ON t(v)", {}, &rs).ok());
    height = n0.chain().height();
    ASSERT_TRUE(WaitForHeight(&n1, height));
    n0.Stop();
    n1.Stop();
  }

  // n1 restarts from disk: catalog, block index and data all replayed.
  SebdbNode revived(BaseOptions("n1", dir.path(), ids), &keystore, nullptr);
  ASSERT_TRUE(revived.Start(&net).ok());
  EXPECT_EQ(revived.chain().height(), height);
  EXPECT_TRUE(revived.chain().catalog()->HasTable("t"));
  ResultSet rs;
  ASSERT_TRUE(revived.ExecuteSql("SELECT * FROM t WHERE v >= 3", {}, &rs).ok());
  EXPECT_EQ(rs.num_rows(), 4u);
  // The user-created index was recorded in the index manifest and rebuilt
  // during replay — usable immediately, and re-creating it is an error.
  ExecOptions layered;
  layered.access_path = AccessPath::kLayered;
  ASSERT_TRUE(
      revived.ExecuteSql("SELECT * FROM t WHERE v BETWEEN 2 AND 4", layered,
                         &rs)
          .ok());
  EXPECT_EQ(rs.num_rows(), 3u);
  EXPECT_TRUE(revived.ExecuteSql("CREATE INDEX ON t(v)", {}, &rs)
                  .IsInvalidArgument());
  revived.Stop();
}

TEST(FaultTest, LossyNetworkStillConverges) {
  ScratchDir dir("fault_lossy");
  SimNetworkOptions net_options;
  net_options.drop_rate = 0.05;  // 5% message loss
  net_options.seed = 99;
  SimNetwork net(net_options);
  KeyStore keystore;
  std::vector<std::string> ids = {"n0", "n1", "n2"};
  for (const auto& id : ids) keystore.AddIdentity(id, "s-" + id);

  std::vector<std::unique_ptr<SebdbNode>> nodes;
  for (const auto& id : ids) {
    NodeOptions options = BaseOptions(id, dir.path(), ids);
    // A dropped commit-response should fail fast, not hang the test.
    options.write_timeout_millis = 1500;
    auto node = std::make_unique<SebdbNode>(options, &keystore, nullptr);
    ASSERT_TRUE(node->Start(&net).ok());
    nodes.push_back(std::move(node));
  }
  ResultSet rs;
  // Retry the DDL: with 5% loss its commit response may drop even though
  // the schema committed ("table exists" then counts as success).
  bool created = false;
  for (int attempt = 0; attempt < 5 && !created; attempt++) {
    Status s = nodes[0]->ExecuteSql("CREATE t (v int)", {}, &rs);
    created = s.ok() || nodes[0]->chain().catalog()->HasTable("t");
  }
  ASSERT_TRUE(created);
  // Direct async submits: some deliver-messages may drop; gossip repairs.
  int accepted = 0;
  for (int i = 0; i < 10; i++) {
    Transaction txn;
    if (!nodes[0]
             ->MakeInsertTransaction("n0", "t", {Value::Int(i)}, &txn)
             .ok()) {
      continue;
    }
    if (nodes[0]->SubmitAndWait(std::move(txn)).ok()) accepted++;
  }
  EXPECT_GT(accepted, 0);
  uint64_t height = nodes[0]->chain().height();
  for (auto& node : nodes) {
    EXPECT_TRUE(WaitForHeight(node.get(), height)) << node->node_id();
  }
  for (auto& node : nodes) node->Stop();
}

TEST(FaultTest, CorruptGossipBlockRejected) {
  ScratchDir dir("fault_corrupt");
  SimNetwork net;
  KeyStore keystore;
  keystore.AddIdentity("n0", "s-n0");
  std::vector<std::string> ids = {"n0"};
  SebdbNode node(BaseOptions("n0", dir.path(), ids), &keystore, nullptr);
  ASSERT_TRUE(node.Start(&net).ok());
  ResultSet rs;
  ASSERT_TRUE(node.ExecuteSql("CREATE t (v int)", {}, &rs).ok());
  ASSERT_TRUE(node.ExecuteSql("INSERT INTO t VALUES (1)", {}, &rs).ok());

  // A Byzantine peer forges a block record: bad merkle root / hash.
  std::string record;
  ASSERT_TRUE(node.GetBlockRecord(1, &record).ok());
  std::string forged = record;
  forged[forged.size() - 5] ^= 0x7;
  uint64_t height_before = node.ChainHeight();
  EXPECT_FALSE(node.ApplyBlockRecord(height_before, forged).ok());
  EXPECT_EQ(node.ChainHeight(), height_before);

  // An unsigned transaction inside an otherwise valid block is also caught
  // (signature verification on the gossip path).
  Transaction unsigned_txn = MakeTxn("t", "mallory", 999, {Value::Int(9)});
  BlockBuilder builder;
  builder.SetPrevHash(node.chain().tip_hash())
      .SetHeight(height_before)
      .SetTimestamp(node.chain().height() * 1000000)
      .SetFirstTid(node.chain().next_tid());
  builder.AddTransaction(std::move(unsigned_txn));
  Block evil = std::move(builder).Build("evil-sig");
  std::string evil_record;
  evil.EncodeTo(&evil_record);
  EXPECT_FALSE(node.ApplyBlockRecord(height_before, evil_record).ok());
  EXPECT_EQ(node.ChainHeight(), height_before);
  node.Stop();
}

// ---- torn-write matrix over the block store's on-disk frames ----

Block MakeStoreBlock(BlockId height, const Hash256& prev) {
  BlockBuilder builder;
  builder.SetHeight(height).SetPrevHash(prev).SetTimestamp(1000 + height)
      .SetFirstTid(1 + height * 2);
  builder.AddTransaction(MakeTxn("t", "sender", 1000 + height,
                                 {Value::Int(static_cast<int64_t>(height)),
                                  Value::Str("payload")}));
  builder.AddTransaction(MakeTxn("t", "sender", 1000 + height,
                                 {Value::Int(-1), Value::Str("more")}));
  return std::move(builder).Build("packager-sig");
}

// Writes a 3-block store and returns the raw segment bytes plus the offset
// where the last frame starts, and the encodings of the intact blocks.
void BuildSegmentImage(std::string* image, size_t* last_frame_start,
                       std::vector<std::string>* encodings) {
  ScratchDir dir("fault_torn_build");
  BlockStore store;
  Hash256 prev{};
  ASSERT_TRUE(store.Open(BlockStoreOptions(), dir.path()).ok());
  for (BlockId h = 0; h < 3; h++) {
    Block block = MakeStoreBlock(h, prev);
    prev = block.header().block_hash;
    std::string record;
    block.EncodeTo(&record);
    encodings->push_back(std::move(record));
    ASSERT_TRUE(store.Append(block).ok());
  }
  store.Close();

  std::vector<std::string> files;
  ASSERT_TRUE(ListDir(dir.path(), &files).ok());
  ASSERT_EQ(files.size(), 1u);
  FILE* f = fopen((dir.path() + "/" + files[0]).c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) image->append(buf, n);
  fclose(f);

  // Walk the first two frames: [magic u32][len u32][payload][crc u32].
  size_t offset = 0;
  for (int i = 0; i < 2; i++) {
    uint32_t len = DecodeFixed32(image->data() + offset + 4);
    offset += 8 + len + 4;
  }
  *last_frame_start = offset;
  ASSERT_LT(offset, image->size());
}

void WriteSegment(const std::string& dir, const std::string& bytes) {
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  FILE* f = fopen((dir + "/seg_000000.blk").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  fclose(f);
}

// Checks the recovered store holds exactly `expect` intact blocks.
void ExpectRecovered(const std::string& dir, size_t expect, bool truncated,
                     const std::vector<std::string>& encodings) {
  BlockStore store;
  ASSERT_TRUE(store.Open(BlockStoreOptions(), dir).ok());
  ASSERT_EQ(store.num_blocks(), expect);
  for (size_t h = 0; h < expect; h++) {
    std::string record;
    ASSERT_TRUE(store.ReadRawRecord(h, &record).ok()) << "height " << h;
    ASSERT_EQ(record, encodings[h]) << "height " << h;
  }
  EXPECT_EQ(store.recovery_stats().tail_truncated, truncated);
  store.Close();
}

// Truncate the segment at EVERY byte boundary of the last frame — inside
// the 8-byte header, the payload, and the 4-byte CRC trailer — and reopen:
// recovery must come back with exactly the two intact blocks.
TEST(FaultTest, TornWriteMatrixRecoversIntactPrefix) {
  std::string image;
  size_t last_frame_start;
  std::vector<std::string> encodings;
  BuildSegmentImage(&image, &last_frame_start, &encodings);

  ScratchDir dir("fault_torn_matrix");
  size_t case_id = 0;
  for (size_t cut = last_frame_start; cut < image.size(); cut++) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    std::string sub = dir.path() + "/cut_" + std::to_string(case_id++);
    WriteSegment(sub, image.substr(0, cut));
    // A cut exactly at the frame boundary is a clean (not torn) tail.
    ExpectRecovered(sub, 2, /*truncated=*/cut > last_frame_start, encodings);
  }
  // Untouched image sanity check: all three blocks, no truncation.
  std::string sub = dir.path() + "/intact";
  WriteSegment(sub, image);
  ExpectRecovered(sub, 3, /*truncated=*/false, encodings);
}

// Flip one bit at several positions of the last frame (header magic, header
// length, payload, CRC trailer): the defective record is dropped, the two
// intact blocks survive.
TEST(FaultTest, FlippedBitInTailFrameRecoversIntactPrefix) {
  std::string image;
  size_t last_frame_start;
  std::vector<std::string> encodings;
  BuildSegmentImage(&image, &last_frame_start, &encodings);

  ScratchDir dir("fault_flip");
  const size_t frame_len = image.size() - last_frame_start;
  const size_t positions[] = {
      0,                  // header magic
      5,                  // header length field
      8,                  // first payload byte
      8 + frame_len / 3,  // mid-payload
      frame_len - 5,      // last payload byte
      frame_len - 2,      // CRC trailer
  };
  size_t case_id = 0;
  for (size_t pos : positions) {
    SCOPED_TRACE("flip at frame byte " + std::to_string(pos));
    std::string flipped = image;
    flipped[last_frame_start + pos] ^= 0x40;
    std::string sub = dir.path() + "/flip_" + std::to_string(case_id++);
    WriteSegment(sub, flipped);
    ExpectRecovered(sub, 2, /*truncated=*/true, encodings);
  }
}

// Corruption that is NOT a crash artifact — a flipped bit in a non-tail
// segment — must refuse to open rather than silently drop committed blocks
// from the middle of the chain.
TEST(FaultTest, NonTailSegmentCorruptionRefusesToOpen) {
  ScratchDir dir("fault_midchain");
  BlockStoreOptions options;
  options.segment_size = 512;  // force several segments
  Hash256 prev{};
  {
    BlockStore store;
    ASSERT_TRUE(store.Open(options, dir.path()).ok());
    for (BlockId h = 0; h < 6; h++) {
      Block block = MakeStoreBlock(h, prev);
      prev = block.header().block_hash;
      ASSERT_TRUE(store.Append(block).ok());
    }
    store.Close();
  }
  std::vector<std::string> files;
  ASSERT_TRUE(ListDir(dir.path(), &files).ok());
  ASSERT_GT(files.size(), 1u);

  FILE* f = fopen((dir.path() + "/seg_000000.blk").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 20, SEEK_SET);
  int c = fgetc(f);
  fseek(f, 20, SEEK_SET);
  fputc(c ^ 0xff, f);
  fclose(f);

  BlockStore store;
  EXPECT_TRUE(store.Open(options, dir.path()).IsCorruption());
}

TEST(FaultTest, AuthQuerySnapshotAcrossDivergentHeights) {
  // Paper §VI: nodes run at different speeds, so the thin client pins the
  // height h from phase 1 and auxiliary nodes answer at that snapshot.
  ScratchDir dir("fault_snapshot");
  SimNetwork net;
  KeyStore keystore;
  std::vector<std::string> ids = {"n0", "n1"};
  for (const auto& id : ids) keystore.AddIdentity(id, "s-" + id);

  SebdbNode n0(BaseOptions("n0", dir.path(), ids), &keystore, nullptr);
  SebdbNode n1(BaseOptions("n1", dir.path(), ids), &keystore, nullptr);
  ASSERT_TRUE(n0.Start(&net).ok());
  ASSERT_TRUE(n1.Start(&net).ok());
  ResultSet rs;
  ASSERT_TRUE(n0.ExecuteSql("CREATE t (v int)", {}, &rs).ok());
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(n0.ExecuteSql(
                      "INSERT INTO t VALUES (" + std::to_string(i) + ")", {},
                      &rs)
                    .ok());
  }
  uint64_t height = n0.chain().height();
  ASSERT_TRUE(WaitForHeight(&n1, height));

  // Now partition n1 and commit more data on n0 only.
  net.SetLinkDown("n0", "n1", true);
  for (int i = 6; i < 12; i++) {
    ASSERT_TRUE(n0.ExecuteSql(
                      "INSERT INTO t VALUES (" + std::to_string(i) + ")", {},
                      &rs)
                    .ok());
  }
  ASSERT_GT(n0.chain().height(), n1.chain().height());

  // Phase 1 at the lagging node pins its height; the auxiliary digest from
  // the leading node at that same height matches.
  AuthQueryResponse response;
  ASSERT_TRUE(n1.AuthProveTrace(/*by_sender=*/true, "n0", &response).ok());
  Hash256 digest;
  ASSERT_TRUE(n0.AuthDigestTrace(true, "n0", response.chain_height, &digest)
                  .ok());
  Value key = Value::Str("n0");
  std::vector<std::string> records;
  ASSERT_TRUE(AuthenticatedLayeredIndex::VerifyResponse(
                  response, &key, &key,
                  [](const Slice& record, Value* out) -> Status {
                    Transaction txn;
                    Slice input = record;
                    Status s = Transaction::DecodeFrom(&input, &txn);
                    if (!s.ok()) return s;
                    *out = Value::Str(txn.sender());
                    return Status::OK();
                  },
                  {digest}, 1, &records)
                  .ok());
  // Only the pre-partition transactions are covered by the snapshot: the
  // schema txn plus 6 inserts.
  EXPECT_EQ(records.size(), 7u);
  n0.Stop();
  n1.Stop();
}

// CREATE INDEX is durable only through its manifest record: with no
// checkpoint, a restart recreates user indexes from the manifest alone. A
// failed manifest sync must therefore fail the create and register nothing,
// and a restart must not find the index either.
TEST(FaultTest, CreateIndexFailsWhenManifestSyncFails) {
  ScratchDir dir("fault_manifest");
  FaultInjectionEnv env(Env::Default());
  ChainOptions options;
  options.verify_signatures = false;
  options.store.env = &env;  // the index manifest shares the store's Env
  const int v_column = Schema::kNumSystemColumns;
  {
    ChainManager chain("n0", nullptr);
    ASSERT_TRUE(chain.Open(options, dir.path()).ok());
    std::vector<Transaction> txns;
    for (int i = 0; i < 4; i++) {
      txns.push_back(MakeTxn("t", "org", 10 + i, {Value::Int(i)}));
    }
    ASSERT_TRUE(chain.AppendBatch(0, std::move(txns), 13, "sig").ok());

    env.SetFailSyncs(true);
    Status s = chain.indexes()->CreateLayeredIndex("t", "v", v_column,
                                                   /*discrete=*/false);
    env.SetFailSyncs(false);
    EXPECT_FALSE(s.ok());
    EXPECT_FALSE(chain.indexes()->HasLayered("t", "v"));
    EXPECT_EQ(chain.indexes()->GetLayered("t", "v"), nullptr);
    ASSERT_TRUE(chain.Close().ok());
  }
  {
    ChainManager chain("n0", nullptr);
    ASSERT_TRUE(chain.Open(options, dir.path()).ok());
    EXPECT_FALSE(chain.startup_stats().from_checkpoint);
    EXPECT_FALSE(chain.indexes()->HasLayered("t", "v"));
    // The manifest is still well-formed: a retry succeeds and survives the
    // next restart.
    ASSERT_TRUE(chain.indexes()
                    ->CreateLayeredIndex("t", "v", v_column,
                                         /*discrete=*/false)
                    .ok());
    ASSERT_TRUE(chain.Close().ok());
  }
  ChainManager chain("n0", nullptr);
  ASSERT_TRUE(chain.Open(options, dir.path()).ok());
  EXPECT_TRUE(chain.indexes()->HasLayered("t", "v"));
  ASSERT_TRUE(chain.Close().ok());
}

}  // namespace
}  // namespace sebdb
