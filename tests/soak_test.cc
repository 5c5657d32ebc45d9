// Deterministic overload/partition/crash soak over a 4-node Kafka cluster
// of full SebdbNodes: an open-loop overload burst (offered load far above
// the admission caps), a full partition of one node, and a crash/restart of
// another — with clients that retry after the server's retry_after hint and
// resubmit on timeout (safe: the broker dedups sequenced keys and acks
// duplicates). Asserts the safety invariants of DESIGN.md's overload
// contract: no committed txn lost, no fork, every acked txn in the chain
// exactly once, admission peaks within the configured caps, and shedding
// actually happened. Zero-latency SimNetwork with explicit fault schedules
// keeps the run deterministic and bounded; labeled `soak` and runnable
// under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "consensus/tendermint.h"
#include "core/node.h"
#include "storage/block.h"
#include "tests/test_util.h"
#include "network/sim_network.h"

namespace sebdb {
namespace {

using testing_util::ScratchDir;

constexpr uint64_t kMaxMempoolTxns = 16;
constexpr uint64_t kMaxMempoolBytes = 64ull << 10;
constexpr uint64_t kPerSenderQuota = 8;

NodeOptions SoakNodeOptions(const std::string& id, const std::string& dir,
                            const std::vector<std::string>& participants) {
  NodeOptions options;
  options.node_id = id;
  options.data_dir = dir + "/" + id;
  options.consensus = ConsensusKind::kKafka;
  options.participants = participants;
  options.consensus_options.max_batch_txns = 10;
  options.consensus_options.batch_timeout_millis = 20;
  options.consensus_options.admission.max_txns = kMaxMempoolTxns;
  options.consensus_options.admission.max_bytes = kMaxMempoolBytes;
  options.consensus_options.admission.max_txns_per_sender = kPerSenderQuota;
  options.consensus_options.admission.retry_after_base_millis = 5;
  options.gossip.interval_millis = 10;
  options.rpc_server.workers = 1;  // bounded RPC queue in the loop too
  return options;
}

// Latest completion state of one logical transaction. Resubmissions
// re-register the engine callback, so only the newest state receives the
// verdict; older abandoned states are simply never fired.
struct AckState {
  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  Status status;
};

struct PendingTxn {
  Transaction txn;
  std::string key;
  std::shared_ptr<AckState> state;
  bool acked = false;
  bool abandoned = false;
};

struct ClientStats {
  uint64_t acked = 0;
  uint64_t rejections_seen = 0;  // ResourceExhausted verdicts (then retried)
  uint64_t resubmits = 0;
  uint64_t abandoned = 0;
  std::vector<std::string> acked_keys;
};

std::shared_ptr<AckState> SubmitTracked(SebdbNode* node, const Transaction& txn) {
  auto state = std::make_shared<AckState>();
  Status s = node->SubmitAsync(txn, [state](Status status) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->status = std::move(status);
    state->fired = true;
    state->cv.notify_all();
  });
  // A synchronous failure (local shed) already fired the callback; any
  // other error is recorded so the retry loop can act on it.
  if (!s.ok()) {
    std::lock_guard<std::mutex> lock(state->mu);
    if (!state->fired) {
      state->status = s;
      state->fired = true;
    }
  }
  return state;
}

// Fires `count` transactions open-loop at `node`, then drives every one to
// an ack: ResourceExhausted -> sleep the server hint and resubmit; no
// verdict within the attempt window -> resubmit (duplicate-safe); Aborted or
// a semantic error -> abandon.
void RunClient(SebdbNode* node, KeyStore* keystore,
               const std::string& identity, int64_t value_base, int count,
               ClientStats* out) {
  (void)keystore;
  std::vector<PendingTxn> work;
  work.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; i++) {
    PendingTxn pending;
    Status s = node->MakeInsertTransaction(
        identity, "soak", {Value::Int(value_base + i)}, &pending.txn);
    if (!s.ok()) {
      out->abandoned++;
      continue;
    }
    pending.key = pending.txn.Hash().ToHex();
    pending.state = SubmitTracked(node, pending.txn);
    work.push_back(std::move(pending));
  }

  const int64_t deadline = SteadyNowMillis() + 60000;
  for (auto& pending : work) {
    while (!pending.acked && !pending.abandoned) {
      if (SteadyNowMillis() > deadline) {
        pending.abandoned = true;
        out->abandoned++;
        break;
      }
      Status verdict;
      bool fired;
      {
        std::unique_lock<std::mutex> lock(pending.state->mu);
        fired = pending.state->cv.wait_for(
            lock, std::chrono::milliseconds(1500),
            [&] { return pending.state->fired; });
        if (fired) verdict = pending.state->status;
      }
      if (fired && verdict.ok()) {
        pending.acked = true;
        out->acked++;
        out->acked_keys.push_back(pending.key);
      } else if (fired && verdict.IsResourceExhausted()) {
        out->rejections_seen++;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::max<int64_t>(verdict.retry_after_millis(), 1)));
        out->resubmits++;
        pending.state = SubmitTracked(node, pending.txn);
      } else if (fired) {
        // Aborted (engine stopped) or a semantic error: not retryable.
        pending.abandoned = true;
        out->abandoned++;
      } else {
        // No verdict (e.g. the submit message died in a partition):
        // resubmit. Exactly-once holds because the broker dedups sequenced
        // keys and dup-acks the origin.
        out->resubmits++;
        pending.state = SubmitTracked(node, pending.txn);
      }
    }
  }
}

bool WaitForHeight(SebdbNode* node, uint64_t height, int timeout_ms = 30000) {
  for (int i = 0; i < timeout_ms / 10; i++) {
    if (node->chain().height() >= height) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// Per-key commit counts across the whole chain of `node` (genesis skipped).
std::unordered_map<std::string, int> ChainCommitCounts(SebdbNode* node) {
  std::unordered_map<std::string, int> counts;
  uint64_t height = node->chain().height();
  for (uint64_t h = 1; h < height; h++) {
    std::string record;
    EXPECT_TRUE(node->GetBlockRecord(h, &record).ok()) << "height " << h;
    Block block;
    Slice input(record);
    EXPECT_TRUE(Block::DecodeFrom(&input, &block).ok()) << "height " << h;
    for (const auto& txn : block.transactions()) {
      // Block packaging assigns tids after the client hashed its copy;
      // normalize back to the client-side identity (tid 0) so acked keys
      // match committed keys.
      Transaction normalized = txn;
      normalized.set_tid(0);
      counts[normalized.Hash().ToHex()]++;
    }
  }
  return counts;
}

TEST(SoakTest, OverloadPartitionCrashRestart) {
  SimNetworkOptions net_options;
  net_options.max_queue_per_endpoint = 4096;
  net_options.max_gossip_queue_per_endpoint = 256;
  SimNetwork net(net_options);
  ScratchDir dir("soak");
  std::vector<std::string> participants = {"n0", "n1", "n2", "n3"};
  KeyStore keystore;
  for (const auto& id : participants) {
    ASSERT_TRUE(keystore.AddIdentity(id, "secret-" + id).ok());
  }
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(
        keystore.AddIdentity("c" + std::to_string(i), "secret-c").ok());
  }

  std::vector<std::unique_ptr<SebdbNode>> nodes;
  for (const auto& id : participants) {
    auto node = std::make_unique<SebdbNode>(
        SoakNodeOptions(id, dir.path(), participants), &keystore, nullptr);
    ASSERT_TRUE(node->Start(&net).ok()) << id;
    nodes.push_back(std::move(node));
  }
  ResultSet rs;
  ASSERT_TRUE(nodes[0]->ExecuteSql("CREATE soak (v int)", {}, &rs).ok());
  for (auto& node : nodes) ASSERT_TRUE(WaitForHeight(node.get(), 2));

  std::vector<ClientStats> stats(6);

  // Phase 1 — overload burst: four clients fire 40 txns each open-loop.
  // Offered in-flight load (160) is 10x the mempool cap (16) and 20x the
  // per-sender quota (8), so local shedding and broker nacks are certain.
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < 4; i++) {
      clients.emplace_back([&, i] {
        RunClient(nodes[static_cast<size_t>(i)].get(), &keystore,
                  "c" + std::to_string(i), 100000 * (i + 1), 40, &stats[i]);
      });
    }
    for (auto& client : clients) client.join();
  }

  // Phase 2 — partition: n3 loses every link mid-burst. Its clients time
  // out (submits die on the downed links) and resubmit until the heal.
  {
    for (const auto& peer : {"n0", "n1", "n2"}) {
      net.SetLinkDown("n3", peer, true);
    }
    std::thread partitioned([&] {
      RunClient(nodes[3].get(), &keystore, "c3", 500000, 15, &stats[4]);
    });
    // A healthy client keeps committing through the partition.
    RunClient(nodes[1].get(), &keystore, "c1", 600000, 15, &stats[5]);
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    for (const auto& peer : {"n0", "n1", "n2"}) {
      net.SetLinkDown("n3", peer, false);
    }
    partitioned.join();
  }

  // Phase 3 — crash/restart: n2 (a non-broker) restarts over the same data
  // dir; its chain replays and consensus sequencing resumes where it left
  // off. Submissions to the restarted node must still commit.
  {
    nodes[2]->Stop();
    nodes[2].reset();
    nodes[2] = std::make_unique<SebdbNode>(
        SoakNodeOptions("n2", dir.path(), participants), &keystore, nullptr);
    ASSERT_TRUE(nodes[2]->Start(&net).ok());
    ClientStats restart_stats;
    RunClient(nodes[2].get(), &keystore, "c2", 700000, 15, &restart_stats);
    EXPECT_EQ(restart_stats.acked, 15u);
    EXPECT_EQ(restart_stats.abandoned, 0u);
    stats.push_back(restart_stats);
  }

  // Convergence: every node reaches the max height with the same tip.
  uint64_t max_height = 0;
  for (auto& node : nodes) {
    max_height = std::max(max_height, node->chain().height());
  }
  for (auto& node : nodes) {
    ASSERT_TRUE(WaitForHeight(node.get(), max_height)) << node->node_id();
  }
  for (auto& node : nodes) {
    EXPECT_EQ(node->chain().tip_hash(), nodes[0]->chain().tip_hash())
        << "fork: " << node->node_id();
  }

  // Safety: every acked txn is in the chain exactly once, on every node —
  // and no txn at all committed twice (exactly-once under resubmission).
  std::vector<std::string> all_acked;
  uint64_t total_acked = 0, total_rejections = 0, total_abandoned = 0;
  for (const auto& s : stats) {
    total_acked += s.acked;
    total_rejections += s.rejections_seen;
    total_abandoned += s.abandoned;
    all_acked.insert(all_acked.end(), s.acked_keys.begin(),
                     s.acked_keys.end());
  }
  for (auto& node : nodes) {
    std::unordered_map<std::string, int> counts =
        ChainCommitCounts(node.get());
    for (const auto& [key, count] : counts) {
      EXPECT_EQ(count, 1) << "duplicate commit of " << key << " on "
                          << node->node_id();
    }
    for (const auto& key : all_acked) {
      EXPECT_EQ(counts.count(key), 1u)
          << "acked txn lost on " << node->node_id() << ": " << key;
    }
  }

  // Liveness of the accepted load: nothing was abandoned, and overload
  // actually exercised the shedding path.
  EXPECT_EQ(total_abandoned, 0u);
  EXPECT_EQ(total_acked, 4 * 40u + 15 + 15 + 15);
  EXPECT_GT(total_rejections, 0u);

  // Admission stayed within its caps on every node.
  uint64_t nodes_that_shed = 0;
  for (auto& node : nodes) {
    MempoolStats mp = node->mempool_stats();
    EXPECT_LE(mp.admission.peak_txns, kMaxMempoolTxns) << node->node_id();
    EXPECT_LE(mp.admission.peak_bytes, kMaxMempoolBytes) << node->node_id();
    if (mp.admission.rejected_total() > 0) nodes_that_shed++;
  }
  EXPECT_GE(nodes_that_shed, 1u);

  for (auto& node : nodes) node->Stop();
}

// Engine-level deterministic soak for the BFT engine: sustained open-loop
// overload against a tiny mempool, asserting exactly-once commits and cap
// compliance without the full-node stack (keeps the TSan run cheap).
TEST(SoakTest, TendermintEngineOverload) {
  TendermintOptions tm;
  tm.serial_txn_cost_micros = 0;
  SimNetwork net;
  std::vector<std::string> ids = {"n0", "n1", "n2", "n3"};
  ConsensusOptions options;
  options.max_batch_txns = 10;
  options.batch_timeout_millis = 20;
  options.admission.max_txns = 8;
  options.admission.retry_after_base_millis = 2;

  struct Harness {
    std::unique_ptr<TendermintEngine> engine;
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Transaction> committed;
  };
  std::vector<std::unique_ptr<Harness>> nodes;
  for (const auto& id : ids) {
    auto h = std::make_unique<Harness>();
    Harness* raw = h.get();
    h->engine = std::make_unique<TendermintEngine>(
        id, ids, &net, options,
        [raw](uint64_t seq, std::vector<Transaction> txns) {
          (void)seq;
          std::lock_guard<std::mutex> lock(raw->mu);
          for (auto& txn : txns) raw->committed.push_back(std::move(txn));
          raw->cv.notify_all();
        },
        tm);
    TendermintEngine* engine = h->engine.get();
    ASSERT_TRUE(net.Register(id, [engine](const Message& m) {
                       engine->HandleMessage(m);
                     }).ok());
    ASSERT_TRUE(h->engine->Start().ok());
    nodes.push_back(std::move(h));
  }

  constexpr int kPerNode = 25;
  std::atomic<uint64_t> rejections{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; c++) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerNode; i++) {
        Transaction txn = testing_util::MakeTxn(
            "t", "sender" + std::to_string(c), 1000 * (c + 1) + i,
            {Value::Int(1000 * (c + 1) + i)});
        // Submit-side shedding is the only failure mode here; retry after
        // the hint until admitted.
        while (true) {
          Status s = nodes[static_cast<size_t>(c)]->engine->Submit(txn,
                                                                   nullptr);
          if (s.ok()) break;
          ASSERT_TRUE(s.IsResourceExhausted()) << s.ToString();
          rejections.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::max<int64_t>(s.retry_after_millis(), 1)));
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  const size_t expected = 4 * kPerNode;
  for (auto& node : nodes) {
    std::unique_lock<std::mutex> lock(node->mu);
    ASSERT_TRUE(node->cv.wait_for(lock, std::chrono::seconds(60), [&] {
      return node->committed.size() >= expected;
    })) << "committed " << node->committed.size() << "/" << expected;
  }
  // Same order everywhere, no duplicates, caps respected.
  std::vector<Transaction> reference;
  {
    std::lock_guard<std::mutex> lock(nodes[0]->mu);
    reference = nodes[0]->committed;
  }
  std::set<std::string> seen;
  for (const auto& txn : reference) {
    EXPECT_TRUE(seen.insert(txn.Hash().ToHex()).second) << "duplicate";
  }
  EXPECT_EQ(reference.size(), expected);
  for (auto& node : nodes) {
    std::lock_guard<std::mutex> lock(node->mu);
    ASSERT_EQ(node->committed.size(), expected);
    for (size_t i = 0; i < expected; i++) {
      EXPECT_EQ(node->committed[i], reference[i]);
    }
    MempoolStats mp = node->engine->mempool_stats();
    EXPECT_LE(mp.admission.peak_txns, options.admission.max_txns);
  }
  EXPECT_GT(rejections.load(), 0u);
  for (auto& node : nodes) node->engine->Stop();
  for (const auto& id : ids) net.Unregister(id);
}

}  // namespace
}  // namespace sebdb
