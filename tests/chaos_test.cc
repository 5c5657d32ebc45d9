// Deterministic chaos matrix for the self-healing subsystem (DESIGN.md §12):
// 4-node Kafka clusters of full SebdbNodes driven through composed faults —
// on-disk corruption at the head / middle / tail of a non-tail segment, in
// the frame magic / length / payload / CRC fields; partitions overlapping
// repair; crash/restart mid-repair and mid-state-sync; and a checkpoint
// state-sync catch-up across a large gap. Every scenario must converge to
// the same tip, byte-identical query results and equal ALI digests, with
// zero acked-transaction loss; a corrupted node must open degraded and
// serve its verified prefix before repair completes. Zero-latency
// SimNetwork and explicit fault schedules keep the runs bounded; where a
// scenario asserts on repair counters, the victim runs without gossip and
// the test feeds height observations directly (gossip would race repair at
// message speed — a legal race, but not an observable one). Labeled `chaos`
// (also in the tsan/asan preset filters).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "core/node.h"
#include "storage/file.h"
#include "tests/test_util.h"
#include "network/sim_network.h"

namespace sebdb {
namespace {

using testing_util::ScratchDir;

bool WaitForHeight(SebdbNode* node, uint64_t height, int timeout_ms = 30000) {
  for (int i = 0; i < timeout_ms / 10; i++) {
    if (node->chain().height() >= height) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

NodeOptions ChaosNodeOptions(const std::string& id, const std::string& dir,
                             const std::vector<std::string>& participants) {
  NodeOptions options;
  options.node_id = id;
  options.data_dir = dir + "/" + id;
  options.consensus = ConsensusKind::kKafka;
  options.participants = participants;
  options.consensus_options.max_batch_txns = 1;  // one block per insert
  options.consensus_options.batch_timeout_millis = 5;
  options.gossip.interval_millis = 10;
  // Small segments so a modest chain spans several files and the corruption
  // matrix has real non-tail segments to hit. Must be identical across
  // restarts: repair re-appends the same records, reproducing the layout.
  options.chain.store.segment_size = 2048;
  // Aggressive repair cadence keeps the scenarios bounded.
  options.repair.fetch_batch = 8;
  options.repair.request_timeout_millis = 100;
  options.repair.tick_interval_millis = 10;
  return options;
}

// Commits `count` single-row inserts through consensus on `node`, recording
// each acked value in `acked` (ExecuteSql returns only after the commit is
// locally applied — an OK status IS the ack).
void CommitInserts(SebdbNode* node, int64_t base, int count,
                   std::vector<int64_t>* acked) {
  ResultSet rs;
  for (int i = 0; i < count; i++) {
    const int64_t v = base + i;
    ASSERT_TRUE(
        node->ExecuteSql("INSERT INTO t VALUES (" + std::to_string(v) + ")",
                         {}, &rs)
            .ok())
        << "insert " << v;
    acked->push_back(v);
  }
}

// Zero acked-txn loss + byte-identical results: every node returns exactly
// the acked values (each exactly once) and the same ALI digest at the same
// height.
void ExpectConverged(std::vector<std::unique_ptr<SebdbNode>>& nodes,
                     const std::vector<int64_t>& acked) {
  uint64_t height = 0;
  for (auto& node : nodes) {
    height = std::max(height, node->chain().height());
  }
  for (auto& node : nodes) {
    ASSERT_TRUE(WaitForHeight(node.get(), height)) << node->node_id();
    EXPECT_EQ(node->chain().tip_hash(), nodes[0]->chain().tip_hash())
        << "fork: " << node->node_id();
  }
  const std::multiset<int64_t> expected(acked.begin(), acked.end());
  EXPECT_EQ(expected.size(), acked.size()) << "test bug: duplicate values";
  Hash256 reference_digest;
  ASSERT_TRUE(nodes[0]
                  ->AuthDigestTrace(/*by_sender=*/true, "n0", height,
                                    &reference_digest)
                  .ok());
  for (auto& node : nodes) {
    ResultSet rs;
    ASSERT_TRUE(node->ExecuteSql("SELECT v FROM t", {}, &rs).ok())
        << node->node_id();
    std::multiset<int64_t> got;
    for (const auto& row : rs.rows) got.insert(row[0].AsInt());
    EXPECT_EQ(got, expected) << "acked txn lost or duplicated on "
                             << node->node_id();
    Hash256 digest;
    ASSERT_TRUE(node->AuthDigestTrace(true, "n0", height, &digest).ok())
        << node->node_id();
    EXPECT_EQ(digest, reference_digest)
        << "ALI digest diverged on " << node->node_id();
  }
}

std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> files, segments;
  EXPECT_TRUE(ListDir(dir, &files).ok());
  for (const auto& f : files) {
    if (f.size() == 14 && f.rfind("seg_", 0) == 0 &&
        f.rfind(".blk") == 10) {
      segments.push_back(f);
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

std::string ReadFileBytes(const std::string& path) {
  std::string bytes;
  FILE* f = fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  fclose(f);
  return bytes;
}

// Byte offsets of every frame start in a segment image:
// [magic u32][len u32][payload][crc u32].
std::vector<size_t> FrameOffsets(const std::string& image) {
  std::vector<size_t> offsets;
  size_t offset = 0;
  while (offset + 12 <= image.size()) {
    offsets.push_back(offset);
    uint32_t len = DecodeFixed32(image.data() + offset + 4);
    offset += 8 + len + 4;
  }
  return offsets;
}

enum class Field { kMagic, kLen, kPayload, kCrc };

const char* FieldName(Field f) {
  switch (f) {
    case Field::kMagic: return "magic";
    case Field::kLen: return "len";
    case Field::kPayload: return "payload";
    case Field::kCrc: return "crc";
  }
  return "?";
}

// Position of the corrupted frame within the segment file.
enum class Position { kHead, kMiddle, kTail };

const char* PositionName(Position p) {
  switch (p) {
    case Position::kHead: return "head";
    case Position::kMiddle: return "middle";
    case Position::kTail: return "tail";
  }
  return "?";
}

// Flips one byte of the chosen field of the chosen frame in `path`.
void CorruptSegment(const std::string& path, Position position, Field field) {
  std::string image = ReadFileBytes(path);
  std::vector<size_t> frames = FrameOffsets(image);
  ASSERT_FALSE(frames.empty()) << path;
  size_t idx = 0;
  if (position == Position::kMiddle) idx = frames.size() / 2;
  if (position == Position::kTail) idx = frames.size() - 1;
  const size_t frame = frames[idx];
  const uint32_t len = DecodeFixed32(image.data() + frame + 4);
  size_t target = frame;
  switch (field) {
    case Field::kMagic: target = frame + 1; break;
    case Field::kLen: target = frame + 4; break;
    case Field::kPayload: target = frame + 8 + len / 2; break;
    case Field::kCrc: target = frame + 8 + len + 2; break;
  }
  ASSERT_LT(target, image.size()) << path;
  image[target] = static_cast<char>(image[target] ^ 0x40);
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(fwrite(image.data(), 1, image.size(), f), image.size());
  fclose(f);
}

// A 4-node cluster whose victim node (n3) gets stopped, corrupted on disk
// and restarted over the damaged directory. Removing the victim's
// checkpoint directory forces the reopen through the full segment scan — a
// checkpoint's trusted prefix would otherwise skip the bytes we just
// damaged (corruption *of* checkpoint state is exercised by the state-sync
// scenarios, which replace the checkpoint wholesale after hash checks).
class ChaosCluster {
 public:
  explicit ChaosCluster(const std::string& tag, bool victim_gossip = true)
      : dir_(tag), victim_gossip_(victim_gossip) {
    for (const auto& id : participants_) {
      EXPECT_TRUE(keystore_.AddIdentity(id, "secret-" + id).ok());
    }
  }

  virtual ~ChaosCluster() {
    for (auto& node : nodes_) {
      if (node != nullptr) node->Stop();
    }
  }

  void StartAll(SimNetwork* net) {
    for (const auto& id : participants_) StartNode(net, id);
    ResultSet rs;
    ASSERT_TRUE(nodes_[0]->ExecuteSql("CREATE t (v int)", {}, &rs).ok());
    for (auto& node : nodes_) {
      ASSERT_TRUE(WaitForHeight(node.get(), 2)) << node->node_id();
    }
  }

  void StartNode(SimNetwork* net, const std::string& id) {
    NodeOptions options = ChaosNodeOptions(id, dir_.path(), participants_);
    if (id == "n3" && !victim_gossip_) options.enable_gossip = false;
    Customize(&options);
    auto node = std::make_unique<SebdbNode>(options, &keystore_, nullptr);
    ASSERT_TRUE(node->Start(net).ok()) << id;
    const size_t idx = static_cast<size_t>(id.back() - '0');
    if (nodes_.size() <= idx) nodes_.resize(idx + 1);
    nodes_[idx] = std::move(node);
  }

  virtual void Customize(NodeOptions* options) { (void)options; }

  /// Stops n3, applies `corrupt` to its data dir, restarts it degraded.
  void CorruptAndRestartVictim(SimNetwork* net, Position position,
                               Field field, size_t segment_index = 1) {
    nodes_[3]->Stop();
    std::vector<std::string> segments = SegmentFiles(node_dir("n3"));
    ASSERT_GT(segments.size(), segment_index + 1)
        << "workload too small: corrupted segment must not be the tail";
    CorruptSegment(node_dir("n3") + "/" + segments[segment_index], position,
                   field);
    RemoveDirRecursive(node_dir("n3") + "/checkpoints");
    StartNode(net, "n3");
  }

  SebdbNode* node(size_t i) { return nodes_[i].get(); }
  KeyStore* keystore() { return &keystore_; }
  std::vector<std::unique_ptr<SebdbNode>>& nodes() { return nodes_; }
  const std::string& dir() const { return dir_.path(); }
  std::string node_dir(const std::string& id) const {
    return dir_.path() + "/" + id;
  }
  std::vector<int64_t>& acked() { return acked_; }

 protected:
  ScratchDir dir_;
  const bool victim_gossip_;
  KeyStore keystore_;
  const std::vector<std::string> participants_ = {"n0", "n1", "n2", "n3"};
  std::vector<std::unique_ptr<SebdbNode>> nodes_;
  std::vector<int64_t> acked_;
};

// ---- corruption matrix -----------------------------------------------------

// A degraded open must expose exactly the verified prefix — queryable, with
// height strictly below the peers' — and a subsequent repair-enabled
// restart must converge back with zero acked loss.
TEST(ChaosTest, DegradedOpenServesVerifiedPrefixThenRepairs) {
  SimNetwork net;
  ChaosCluster cluster("chaos_prefix");
  cluster.StartAll(&net);
  CommitInserts(cluster.node(0), 1000, 24, &cluster.acked());
  const uint64_t full_height = cluster.node(0)->chain().height();
  ASSERT_TRUE(WaitForHeight(cluster.node(3), full_height));

  cluster.node(3)->Stop();
  std::vector<std::string> segments = SegmentFiles(cluster.node_dir("n3"));
  ASSERT_GE(segments.size(), 3u) << "workload too small for the matrix";
  CorruptSegment(cluster.node_dir("n3") + "/" + segments[1],
                 Position::kMiddle, Field::kPayload);
  RemoveDirRecursive(cluster.node_dir("n3") + "/checkpoints");

  // Phase 1: reopen isolated (no gossip, no repair) and inspect the
  // degraded state before anyone can heal it.
  {
    NodeOptions isolated =
        ChaosNodeOptions("n3", cluster.dir(), {"n0", "n1", "n2", "n3"});
    isolated.enable_gossip = false;
    isolated.enable_repair = false;
    // Keep the degraded open from checkpointing its shortened chain: phase
    // 2 below must also open degraded (checkpoint restore would mask it).
    isolated.chain.checkpoint.checkpoint_on_close = false;
    SebdbNode degraded(isolated, cluster.keystore(), nullptr);
    ASSERT_TRUE(degraded.Start(&net).ok());
    const BlockStore::RecoveryStats recovery =
        degraded.chain().recovery_stats();
    EXPECT_TRUE(recovery.degraded);
    EXPECT_GE(recovery.segments_quarantined, 1u);
    const uint64_t degraded_height = degraded.chain().height();
    EXPECT_LT(degraded_height, full_height);
    EXPECT_GE(degraded_height, 1u);  // at least genesis survived
    // The verified prefix serves queries (fewer rows than acked, no error).
    ResultSet rs;
    ASSERT_TRUE(degraded.ExecuteSql("SELECT count(*) FROM t", {}, &rs).ok());
    EXPECT_LT(rs.rows[0][0].AsInt(),
              static_cast<int64_t>(cluster.acked().size()));
    degraded.Stop();
  }

  // Phase 2: restart with gossip + repair; the node refetches the missing
  // blocks from its peers and converges. (The quarantine itself already
  // happened in phase 1; this open resumes from the verified prefix.)
  cluster.StartNode(&net, "n3");
  ASSERT_TRUE(WaitForHeight(cluster.node(3), full_height));
  ExpectConverged(cluster.nodes(), cluster.acked());
}

// head/middle/tail frame × magic/len/payload/crc field, rotated so every
// position and every field is hit: each combination quarantines a chain
// suffix on reopen and peer-assisted block repair must restore convergence.
// The victim runs without gossip, so repair is provably the healer.
TEST(ChaosTest, CorruptionMatrixConverges) {
  SimNetwork net;
  ChaosCluster cluster("chaos_matrix", /*victim_gossip=*/false);
  cluster.StartAll(&net);
  CommitInserts(cluster.node(0), 2000, 24, &cluster.acked());

  const struct {
    Position position;
    Field field;
  } kMatrix[] = {
      {Position::kHead, Field::kMagic},
      {Position::kHead, Field::kPayload},
      {Position::kMiddle, Field::kLen},
      {Position::kMiddle, Field::kCrc},
      {Position::kTail, Field::kPayload},
      {Position::kTail, Field::kMagic},
  };

  int64_t next_value = 3000;
  for (const auto& combo : kMatrix) {
    SCOPED_TRACE(std::string(PositionName(combo.position)) + " frame, " +
                 FieldName(combo.field) + " field");
    ASSERT_TRUE(
        WaitForHeight(cluster.node(3), cluster.node(0)->chain().height()));
    cluster.CorruptAndRestartVictim(&net, combo.position, combo.field);

    const BlockStore::RecoveryStats recovery =
        cluster.node(3)->chain().recovery_stats();
    EXPECT_TRUE(recovery.degraded);
    EXPECT_GE(recovery.segments_quarantined, 1u);
    EXPECT_GT(recovery.bytes_quarantined, 0u);
    const uint64_t degraded_height = cluster.node(3)->chain().height();

    // While n3 is damaged, the healthy majority keeps committing (composed
    // load): those acks must survive repair too.
    CommitInserts(cluster.node(0), next_value, 2, &cluster.acked());
    next_value += 100;

    // Feed the height observation a gossip digest would normally deliver.
    const uint64_t target = cluster.node(0)->chain().height();
    cluster.node(3)->OnPeerAdvertisedHeight("n0", target);
    ASSERT_TRUE(WaitForHeight(cluster.node(3), target));
    const RepairStats rs = cluster.node(3)->repair_stats();
    EXPECT_GE(rs.blocks_repaired, target - degraded_height);
    EXPECT_GE(rs.repairs_completed, 1u);
    ExpectConverged(cluster.nodes(), cluster.acked());
  }
}

// Corruption + partition: the damaged node restarts behind a full
// partition, repair can reach nobody (its fetches and retries die on the
// downed links), and the heal must still converge it.
TEST(ChaosTest, PartitionDuringRepairStillConverges) {
  SimNetwork net;
  ChaosCluster cluster("chaos_partition");
  cluster.StartAll(&net);
  CommitInserts(cluster.node(0), 4000, 24, &cluster.acked());
  ASSERT_TRUE(
      WaitForHeight(cluster.node(3), cluster.node(0)->chain().height()));

  for (const auto& peer : {"n0", "n1", "n2"}) {
    net.SetLinkDown("n3", peer, true);
  }
  // Mid-frame of segment 0: quarantines most of the chain — close to the
  // biggest possible repair.
  cluster.CorruptAndRestartVictim(&net, Position::kMiddle, Field::kCrc,
                                  /*segment_index=*/0);
  EXPECT_TRUE(cluster.node(3)->chain().recovery_stats().degraded);
  // Commit through the partition; n3 must pick these up after the heal too.
  CommitInserts(cluster.node(0), 4100, 4, &cluster.acked());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(cluster.node(3)->chain().height(),
            cluster.node(0)->chain().height());
  for (const auto& peer : {"n0", "n1", "n2"}) {
    net.SetLinkDown("n3", peer, false);
  }
  ASSERT_TRUE(
      WaitForHeight(cluster.node(3), cluster.node(0)->chain().height()));
  ExpectConverged(cluster.nodes(), cluster.acked());
}

// Crash in the middle of a repair session: the half-repaired chain is a
// valid prefix (repair appends through the same durable path), so the next
// restart resumes from it and converges.
TEST(ChaosTest, CrashMidRepairThenConverges) {
  SimNetwork net;
  ChaosCluster cluster("chaos_midrepair");
  cluster.StartAll(&net);
  CommitInserts(cluster.node(0), 5000, 24, &cluster.acked());
  ASSERT_TRUE(
      WaitForHeight(cluster.node(3), cluster.node(0)->chain().height()));

  cluster.CorruptAndRestartVictim(&net, Position::kMiddle, Field::kPayload,
                                  /*segment_index=*/0);
  EXPECT_TRUE(cluster.node(3)->chain().recovery_stats().degraded);
  const uint64_t degraded_height = cluster.node(3)->chain().height();
  // Let repair make some progress, then kill the node mid-flight. (If
  // repair already finished, the scenario degenerates to a clean restart —
  // still a valid run, just a weaker one.)
  for (int i = 0; i < 500; i++) {
    if (cluster.node(3)->chain().height() > degraded_height) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  cluster.node(3)->Stop();

  cluster.StartNode(&net, "n3");
  ASSERT_TRUE(
      WaitForHeight(cluster.node(3), cluster.node(0)->chain().height()));
  ExpectConverged(cluster.nodes(), cluster.acked());
}

// ---- crash mid-parallel-apply ----------------------------------------------

// A cluster tuned so every node applies multi-transaction blocks through
// the parallel apply pipeline (extract fan-out, then per-structure merges):
// a stop under continuous load can land while a block is mid-apply.
class ParallelApplyCluster : public ChaosCluster {
 public:
  explicit ParallelApplyCluster(const std::string& tag)
      : ChaosCluster(tag) {}
  void Customize(NodeOptions* options) override {
    options->consensus_options.max_batch_txns = 8;  // multi-txn blocks
    options->consensus_options.batch_timeout_millis = 20;
  }
};

// Stopping a node while it is applying a multi-transaction block must
// leave it restartable with the PR 6 recovery invariants intact: the commit
// point is the block append, so an interrupted apply either completed its
// block or never persisted it — the restart replays/repairs to the cluster
// tip with zero acked loss, identical tips and equal ALI digests. (If the
// stop happens to land between blocks, the scenario degenerates to a clean
// restart — still a valid run, just a weaker one.)
TEST(ChaosTest, CrashMidParallelApplyThenConverges) {
  SimNetwork net;
  ParallelApplyCluster cluster("chaos_midapply");
  cluster.StartAll(&net);

  // Submits `count` inserts concurrently so the broker cuts multi-txn
  // blocks, waits for every ack. Values are unique per call: each wave's
  // acks are recorded before the next begins.
  auto submit_wave = [&](int64_t base, int count) {
    std::atomic<int> pending{count};
    std::vector<Status> results(count);
    for (int i = 0; i < count; i++) {
      Transaction txn;
      ASSERT_TRUE(cluster.node(0)
                      ->MakeInsertTransaction("n0", "t",
                                              {Value::Int(base + i)}, &txn)
                      .ok());
      ASSERT_TRUE(cluster.node(0)
                      ->SubmitAsync(std::move(txn),
                                    [&results, &pending, i](Status s) {
                                      results[i] = std::move(s);
                                      pending.fetch_sub(1);
                                    })
                      .ok());
    }
    for (int i = 0; i < 3000 && pending.load() > 0; i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(pending.load(), 0);
    for (int i = 0; i < count; i++) {
      ASSERT_TRUE(results[i].ok()) << results[i].ToString();
      cluster.acked().push_back(base + i);
    }
  };

  submit_wave(9000, 8);
  ASSERT_TRUE(
      WaitForHeight(cluster.node(3), cluster.node(0)->chain().height()));

  // Continuous multi-txn load from a writer thread; stop the victim while
  // the pipeline is busy so the stop lands mid-apply.
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (int w = 0; w < 6; w++) submit_wave(9100 + w * 10, 8);
    writer_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  cluster.node(3)->Stop();
  writer.join();
  ASSERT_TRUE(writer_done.load());

  cluster.StartNode(&net, "n3");
  ASSERT_TRUE(
      WaitForHeight(cluster.node(3), cluster.node(0)->chain().height()));
  ExpectConverged(cluster.nodes(), cluster.acked());
}

// ---- checkpoint state sync -------------------------------------------------

class StateSyncCluster : public ChaosCluster {
 public:
  explicit StateSyncCluster(const std::string& tag)
      : ChaosCluster(tag, /*victim_gossip=*/false) {}
  void Customize(NodeOptions* options) override {
    // Frequent checkpoints so a lagging peer always finds a recent one.
    options->chain.checkpoint.interval_blocks = 16;
    // A modest gap triggers state sync; big fetches keep the run bounded.
    options->repair.state_sync_gap = 40;
    options->repair.fetch_batch = 16;
  }
};

// A replica that fell a multi-checkpoint gap behind catches up by
// installing a peer checkpoint + bridge blocks instead of replaying the gap
// block by block — then a second outage kills it mid-state-sync and the
// next restart still converges with zero acked loss.
TEST(ChaosTest, StateSyncCatchUpAndCrashMidSync) {
  SimNetwork net;
  StateSyncCluster cluster("chaos_statesync");
  cluster.StartAll(&net);
  CommitInserts(cluster.node(0), 6000, 8, &cluster.acked());
  ASSERT_TRUE(
      WaitForHeight(cluster.node(3), cluster.node(0)->chain().height()));

  // Outage 1: n3 partitioned (kafka deliveries die on the downed links)
  // while the cluster commits far past the state-sync threshold and several
  // checkpoint intervals.
  for (const auto& peer : {"n0", "n1", "n2"}) {
    net.SetLinkDown("n3", peer, true);
  }
  CommitInserts(cluster.node(0), 7000, 70, &cluster.acked());
  const uint64_t lag_height = cluster.node(3)->chain().height();
  const uint64_t target = cluster.node(0)->chain().height();
  ASSERT_GE(target - lag_height, 40u);
  for (const auto& peer : {"n0", "n1", "n2"}) {
    net.SetLinkDown("n3", peer, false);
  }
  // The victim runs without gossip: hand it the height observation a digest
  // would normally carry, so the repair coordinator is provably the healer.
  cluster.node(3)->OnPeerAdvertisedHeight("n0", target);
  ASSERT_TRUE(WaitForHeight(cluster.node(3), target));
  const RepairStats rs = cluster.node(3)->repair_stats();
  EXPECT_GE(rs.state_syncs_started, 1u);
  EXPECT_GE(rs.state_syncs_completed, 1u);
  EXPECT_GE(rs.chunks_fetched, 1u);
  EXPECT_GT(rs.bytes_verified, 0u);
  const ChainManager::StateSyncStats ss =
      cluster.node(3)->state_sync_stats();
  EXPECT_GE(ss.installs, 1u);
  EXPECT_GT(ss.installed_height, lag_height);
  ExpectConverged(cluster.nodes(), cluster.acked());

  // Outage 2: same gap again, but kill n3 as soon as its catch-up session
  // starts. A half-fetched package is only installed after every hash
  // check passes, so the crash loses nothing.
  for (const auto& peer : {"n0", "n1", "n2"}) {
    net.SetLinkDown("n3", peer, true);
  }
  CommitInserts(cluster.node(0), 8000, 60, &cluster.acked());
  for (const auto& peer : {"n0", "n1", "n2"}) {
    net.SetLinkDown("n3", peer, false);
  }
  cluster.node(3)->OnPeerAdvertisedHeight(
      "n0", cluster.node(0)->chain().height());
  for (int i = 0; i < 1000; i++) {
    if (cluster.node(3)->repair()->active()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.node(3)->Stop();
  cluster.StartNode(&net, "n3");
  cluster.node(3)->OnPeerAdvertisedHeight(
      "n0", cluster.node(0)->chain().height());
  ASSERT_TRUE(
      WaitForHeight(cluster.node(3), cluster.node(0)->chain().height()));
  ExpectConverged(cluster.nodes(), cluster.acked());
}

}  // namespace
}  // namespace sebdb
