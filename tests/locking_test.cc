// Regression tests for the unguarded accesses exposed by the thread-safety
// annotation pass. Each test reproduces the pre-fix interleaving with real
// threads, so running this binary under the tsan preset (scripts/check.sh
// tsan) re-detects the race if a fix regresses:
//   - GossipAgent::rng_ was drawn by RunRound without pull_mu_ while
//     MaybeRetryPull used it under the lock.
//   - BlockStore::cache_stats()/recovery_stats() read guarded state (and
//     per-counter LRU getters could tear a multi-counter snapshot).
//   - BlockStore::Open mutated guarded members before taking mu_.
//   - LayeredIndex::Tree() and AuthenticatedLayeredIndex::Tree() created
//     their tree caches lazily inside const methods, racing concurrent
//     readers of a restored index.
//   - SQL read statements and ALI proves/digests walked the layered
//     indexes and ALI root lists while IndexSet::ApplyBlock grew them.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "core/chain_manager.h"
#include "core/node.h"
#include "network/gossip.h"
#include "network/sim_network.h"
#include "storage/block.h"
#include "storage/block_store.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;
using testing_util::ScratchDir;
using testing_util::SecondLevelEntries;

Block MakeBlock(BlockId height, TransactionId first_tid, int num_txns) {
  BlockBuilder builder;
  builder.SetHeight(height)
      .SetPrevHash(Hash256{})
      .SetTimestamp(1000 + height)
      .SetFirstTid(first_tid);
  for (int i = 0; i < num_txns; i++) {
    builder.AddTransaction(MakeTxn("donate", "org" + std::to_string(i),
                                   1000 + height + i,
                                   {Value::Int(i), Value::Str("payload")}));
  }
  return std::move(builder).Build("sig");
}

/// Delegate that pretends to always be behind: a digest from a taller peer
/// arms the pull-retry state, so MaybeRetryPull keeps drawing from the
/// shared RNG under pull_mu_ while the test hammers RunRound.
class LaggingDelegate : public GossipDelegate {
 public:
  uint64_t ChainHeight() override { return 0; }
  Status GetBlockRecord(BlockId, std::string*) override {
    return Status::NotFound("empty chain");
  }
  Status ApplyBlockRecord(BlockId, const std::string&) override {
    return Status::OK();
  }
};

// Pre-fix: RunRound drew gossip targets from rng_ with no lock while the
// retry path used the same RNG under pull_mu_. Concurrent RunRound calls
// from several threads (the public API allows a test driver thread next to
// the ticker) made the data race observable under TSan. The taller peer is
// deliberately not registered — the sim network swallows its traffic, so
// the test exercises only the lagger's round/retry interleaving.
TEST(GossipLockingTest, ConcurrentRoundsShareRngSafely) {
  SimNetwork network;
  LaggingDelegate lagging;
  GossipOptions options;
  options.fanout = 2;
  options.pull_retry_initial_millis = 0;  // every round retries immediately
  options.pull_retry_max_millis = 1;
  GossipAgent lagger("lagger", &network, &lagging, {"tall"}, options);

  // Arm the pull state: deliver a digest advertising height 100 directly.
  std::string digest;
  PutVarint64(&digest, 100);
  lagger.HandleMessage(Message{"gossip.digest", "tall", "lagger", digest});

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; i++) lagger.RunRound();
    });
  }
  for (auto& t : threads) t.join();
  network.DrainAll();
  // With a zero backoff window every armed round re-issues the pull; the
  // exact count depends on interleaving but must be nonzero.
  EXPECT_GT(lagger.pull_retries(), 0u);
}

// Pre-fix: cache_stats() read the cache pointers and counters without mu_,
// racing Append/ReadBlock. It also assembled the snapshot from per-counter
// getters, so a reader could observe hits from one insert epoch and usage
// from another. The fixed version holds mu_ and snapshots each cache in one
// lock acquisition; this test checks the invariant that makes tearing
// visible: every cached block has charge == its encoded size, so usage can
// never exceed bytes appended, and hits+misses equals reads issued.
TEST(BlockStoreLockingTest, StatsSnapshotsDuringConcurrentReads) {
  ScratchDir dir("locking_stats");
  BlockStoreOptions options;
  options.block_cache_bytes = 64 * 1024;
  options.transaction_cache_bytes = 64 * 1024;
  BlockStore store;
  ASSERT_TRUE(store.Open(options, dir.path()).ok());
  constexpr int kBlocks = 32;
  for (int h = 0; h < kBlocks; h++) {
    ASSERT_TRUE(store.Append(MakeBlock(h, h * 4 + 1, 4)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; t++) {
    readers.emplace_back([&, t] {
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const Block> block;
        ASSERT_TRUE(store.ReadBlock((t * 7 + local) % kBlocks, &block).ok());
        local++;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 500; i++) {
    const BlockStore::CacheStats stats = store.cache_stats();
    EXPECT_LE(stats.block_usage, stats.block_capacity);
    EXPECT_LE(stats.txn_usage, stats.txn_capacity);
    // Counters only grow; a torn snapshot could show hits > lookups issued.
    EXPECT_LE(stats.block_hits + stats.block_misses,
              reads.load(std::memory_order_acquire) + 3);
    const BlockStore::RecoveryStats recovery = store.recovery_stats();
    EXPECT_TRUE(recovery.clean());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  ASSERT_TRUE(store.Close().ok());
}

// Pre-fix: Open set options_/env_/dir_ and built the caches before taking
// any lock, so two racing Opens (or Open racing a stats reader) tore the
// guarded members. Now the whole of Open runs under mu_: exactly one racer
// wins and the loser sees Busy.
TEST(BlockStoreLockingTest, ConcurrentOpenSerializes) {
  ScratchDir dir("locking_open");
  BlockStore store;
  std::atomic<int> ok{0}, busy{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&] {
      Status s = store.Open(BlockStoreOptions(), dir.path());
      if (s.ok()) {
        ok.fetch_add(1);
      } else if (s.IsBusy()) {
        busy.fetch_add(1);
      }
      // Reading stats concurrently with the losing Opens must be safe.
      (void)store.recovery_stats();
      (void)store.cache_stats();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 1);
  EXPECT_EQ(busy.load(), 3);
  ASSERT_TRUE(store.Close().ok());
}

// Four threads walk the same checkpoint-restored frozen blocks' second
// levels through cursors (each pins pages of the shared buffer pool) and
// rebuild their MB-trees through the ALI's shared rebuilt-tree cache, from
// const methods with no caller-side lock, and must all see the same
// entries and roots.
TEST(LayeredIndexLockingTest, ConcurrentTreeOnRestoredFrozenBlocks) {
  ScratchDir dir("locking_tree");
  ChainOptions options;
  options.verify_signatures = false;
  constexpr int kBlocks = 12;
  {
    ChainManager chain("locking", nullptr);
    ASSERT_TRUE(chain.Open(options, dir.path()).ok());
    for (int b = 0; b < kBlocks; b++) {
      std::vector<Transaction> txns;
      for (int i = 0; i < 8; i++) {
        txns.push_back(MakeTxn("donate", "org" + std::to_string((b + i) % 5),
                               100 * b + i, {Value::Int(i)}));
      }
      const Timestamp ts = txns.back().ts();
      ASSERT_TRUE(
          chain.AppendBatch(chain.height() - 1, std::move(txns), ts, "sig")
              .ok());
    }
    ASSERT_TRUE(chain.WriteCheckpoint().ok());
    ASSERT_TRUE(chain.Close().ok());
  }

  ChainManager chain("locking", nullptr);
  ASSERT_TRUE(chain.Open(options, dir.path()).ok());
  ASSERT_TRUE(chain.startup_stats().from_checkpoint);
  const LayeredIndex* index = chain.indexes()->senid_index();
  const AuthenticatedLayeredIndex* ali = chain.indexes()->senid_ali();
  const uint64_t frozen = index->frozen_end();
  ASSERT_EQ(frozen, static_cast<uint64_t>(kBlocks) + 1);  // + genesis

  std::vector<std::vector<std::vector<std::string>>> entries(4);
  std::vector<std::vector<std::string>> roots(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; round++) {
        for (BlockId bid = 0; bid < frozen; bid++) {
          std::vector<std::string> walked = SecondLevelEntries(*index, bid);
          std::shared_ptr<const MbTree> mb;
          ASSERT_TRUE(ali->Tree(bid, &mb).ok());
          if (round == 0) {
            entries[t].push_back(std::move(walked));
            roots[t].push_back(mb ? mb->root_hash().ToHex() : "");
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < 4; t++) {
    ASSERT_EQ(entries[t].size(), frozen);
    EXPECT_EQ(entries[t], entries[0]);
    EXPECT_EQ(roots[t], roots[0]);
    EXPECT_TRUE(entries[t][0].empty());  // genesis holds no transactions
    for (uint64_t bid = 1; bid < frozen; bid++) {
      EXPECT_EQ(entries[t][bid].size(), 8u);
    }
  }
  ASSERT_TRUE(chain.Close().ok());
}

// Pre-fix: readers took no lock while a block apply mutated the indexes —
// a SELECT's candidate-block probe ran against LayeredIndex bitmaps that
// MergeTxnDeltas was growing, and a prove read the ALI root list that apply
// push_back()ed (a reallocation under a live reader). Now every read
// statement and every prove/digest holds the index set's apply lock shared
// for its whole run, and apply takes it exclusive. One thread commits
// one-transaction blocks through consensus while this one keeps running
// SQL, proves and digests against the growing chain.
TEST(IndexSetLockingTest, ReadsDuringApplySeeWholeBlocks) {
  ScratchDir dir("locking_apply");
  SimNetwork net;
  KeyStore keystore;
  ASSERT_TRUE(keystore.AddIdentity("n0", "secret-n0").ok());
  ASSERT_TRUE(keystore.AddIdentity("org1", "secret-org1").ok());
  NodeOptions options;
  options.node_id = "n0";
  options.data_dir = dir.path() + "/n0";
  options.participants = {"n0"};
  options.enable_gossip = false;
  options.enable_repair = false;
  options.consensus_options.max_batch_txns = 1;
  options.consensus_options.batch_timeout_millis = 1;
  SebdbNode node(options, &keystore, nullptr);
  ASSERT_TRUE(node.Start(&net).ok());
  ResultSet rs;
  ASSERT_TRUE(
      node.ExecuteSql("CREATE donate (donor string, amount int)", {}, &rs)
          .ok());
  ASSERT_TRUE(node.ExecuteSql("CREATE INDEX ON donate(amount)", {}, &rs).ok());

  constexpr int kInserts = 40;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kInserts; i++) {
      Transaction txn;
      EXPECT_TRUE(node.MakeInsertTransaction(
                          "org1", "donate",
                          {Value::Str("d" + std::to_string(i % 3)),
                           Value::Int(i)},
                          &txn)
                      .ok());
      EXPECT_TRUE(node.SubmitAndWait(std::move(txn)).ok());
    }
    done.store(true);
  });

  const Value lo = Value::Int(5);
  const Value hi = Value::Int(30);
  int rounds = 0;
  while (!done.load() || rounds == 0) {
    ResultSet select;
    ASSERT_TRUE(node.ExecuteSql(
                        "SELECT * FROM donate WHERE amount >= 5 AND "
                        "amount <= 30",
                        {}, &select)
                    .ok());
    ResultSet trace;
    ASSERT_TRUE(node.ExecuteSql("TRACE OPERATOR = 'org1'", {}, &trace).ok());
    AuthQueryResponse range;
    ASSERT_TRUE(node.AuthProveRange("donate", "amount", &lo, &hi, &range).ok());
    Hash256 digest;
    ASSERT_TRUE(node.AuthDigestRange("donate", "amount", &lo, &hi,
                                     range.chain_height, &digest)
                    .ok());
    AuthQueryResponse by_sender;
    ASSERT_TRUE(node.AuthProveTrace(/*by_sender=*/true, "org1", &by_sender)
                    .ok());
    ASSERT_TRUE(node.AuthDigestTrace(/*by_sender=*/true, "org1",
                                     by_sender.chain_height, &digest)
                    .ok());
    rounds++;
  }
  writer.join();

  ResultSet all;
  ASSERT_TRUE(node.ExecuteSql("SELECT * FROM donate WHERE amount >= 5 AND "
                              "amount <= 30",
                              {}, &all)
                  .ok());
  EXPECT_EQ(all.num_rows(), 26u);
  node.Stop();
}

}  // namespace
}  // namespace sebdb
