// Equivalence of the three ways index state can exist (DESIGN.md §11):
// built in memory by sequential AddBlock, restored from a checkpoint plus
// tail-only replay, and restored through a starved buffer pool where every
// query evicts and refaults pages. Randomized chains (fixed seeds) must
// yield byte-identical query results — block index lookups, layered-index
// candidate bitmaps and per-block searches, user-index range results — and
// identical ALI digests and encoded range proofs across all of them, plus a
// rebuild-from-scratch opened on the same directory with its checkpoints
// removed.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/env.h"
#include "core/chain_manager.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;
using testing_util::ScratchDir;
using testing_util::SecondLevelEntries;

struct Workload {
  // One entry per consensus batch: the transactions of that block.
  std::vector<std::vector<Transaction>> batches;
  // Batches chained before CREATE INDEX. At 0 the equal-depth histogram
  // bootstraps from the first entry-carrying block; mid-chain it is sampled
  // from history at creation, and every recovery path must reproduce it.
  uint64_t create_index_after = 0;
};

Workload MakeWorkload(uint64_t seed, uint64_t create_index_after = 0) {
  std::mt19937_64 rng(seed);
  Workload w;
  w.create_index_after = create_index_after;
  const uint64_t nblocks = 20 + rng() % 25;
  Timestamp ts = 1000;
  for (uint64_t b = 0; b < nblocks; b++) {
    ts += rng() % 5;  // duplicate timestamps happen
    std::vector<Transaction> txns;
    const uint64_t ntxns = rng() % 5;  // empty blocks happen
    for (uint64_t t = 0; t < ntxns; t++) {
      const bool tab_t = rng() % 3 != 0;
      const std::string sender = "org" + std::to_string(rng() % 4);
      const int64_t v = static_cast<int64_t>(rng() % 1000);
      txns.push_back(tab_t ? MakeTxn("t", sender, ts,
                                     {Value::Int(v), Value::Str("x")})
                           : MakeTxn("u", sender, ts, {Value::Str("y")}));
    }
    w.batches.push_back(std::move(txns));
  }
  return w;
}

// Drives `chain` through the workload: CREATE INDEX on t.v (app column 0)
// at the agreed point, then the remaining blocks.
void RunWorkload(ChainManager* chain, const Workload& w) {
  for (uint64_t seq = 0; seq < w.batches.size(); seq++) {
    if (seq == w.create_index_after) {
      ASSERT_TRUE(chain->indexes()
                      ->CreateLayeredIndex("t", "v",
                                           Schema::kNumSystemColumns,
                                           /*discrete=*/false)
                      .ok());
    }
    std::vector<Transaction> txns = w.batches[seq];
    Timestamp ts = 0;
    for (const auto& txn : txns) ts = std::max(ts, txn.ts());
    ASSERT_TRUE(
        chain->AppendBatch(seq, std::move(txns), ts, "sig").ok());
  }
}

std::string BitmapString(const Bitmap& bm) {
  std::string s = std::to_string(bm.size()) + ":";
  for (size_t bit : bm.SetBits()) s += std::to_string(bit) + ",";
  return s;
}

std::string PointerString(uint64_t block, uint32_t position) {
  return "(" + std::to_string(block) + "," + std::to_string(position) + ")";
}

// Serializes every query surface of the chain into one comparable string.
// `seed` drives the sampled probes; the same seed must be used for every
// configuration under comparison.
std::string Fingerprint(ChainManager* chain, uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5eb0d6);
  IndexSet* indexes = chain->indexes();
  const uint64_t height = chain->height();
  std::string fp = "h=" + std::to_string(height) + ";";

  // Block index: every block, sampled tids, timestamps, and windows.
  const BlockIndex& bidx = indexes->block_index();
  TransactionId max_tid = chain->next_tid();
  for (uint64_t h = 0; h < height; h++) {
    BlockIndexEntry e;
    Status s = bidx.FindByBlockId(h, &e);
    EXPECT_TRUE(s.ok()) << "height " << h << ": " << s.ToString();
    fp += std::to_string(e.first_tid) + "/" +
          std::to_string(e.num_transactions) + "/" + std::to_string(e.ts) +
          ";";
  }
  for (int i = 0; i < 30; i++) {
    TransactionId tid = rng() % (max_tid + 2);
    BlockIndexEntry e;
    Status s = bidx.FindByTid(tid, &e);
    fp += s.ok() ? std::to_string(e.bid) : "miss";
    Timestamp ts = 990 + static_cast<Timestamp>(rng() % 150);
    s = bidx.FindFirstAtOrAfter(ts, &e);
    fp += s.ok() ? "@" + std::to_string(e.bid) : "@miss";
    Timestamp lo = 990 + static_cast<Timestamp>(rng() % 150);
    fp += BitmapString(
        bidx.BlocksInWindow(lo, lo + static_cast<Timestamp>(rng() % 40)));
  }

  // System layered indices: candidates + per-block pointers per key.
  for (int org = 0; org < 5; org++) {  // org4 never occurs: empty results
    Value key = Value::Str("org" + std::to_string(org));
    fp += BitmapString(indexes->senid_index()->CandidateBlocks(&key, &key));
    for (uint64_t h = 0; h < height; h++) {
      std::vector<uint32_t> ptrs;
      EXPECT_TRUE(
          indexes->senid_index()->SearchBlock(h, &key, &key, &ptrs).ok());
      for (uint32_t p : ptrs) fp += PointerString(h, p);
    }
  }
  for (const char* name : {"t", "u", "nope"}) {
    Value key = Value::Str(name);
    fp += BitmapString(indexes->tname_index()->CandidateBlocks(&key, &key));
  }
  // Every block's whole second level, entry by entry: tail runs, frozen
  // pages and restored pages must walk alike.
  for (LayeredIndex* index :
       {indexes->senid_index(), indexes->GetLayered("t", "v")}) {
    if (index == nullptr) continue;
    for (uint64_t h = 0; h < index->num_blocks(); h++) {
      for (const auto& entry : SecondLevelEntries(*index, h)) fp += entry + ",";
      fp += ";";
    }
  }

  // User index on t.v: random ranges through candidates + searches.
  LayeredIndex* user = indexes->GetLayered("t", "v");
  EXPECT_NE(user, nullptr);
  if (user != nullptr) {
    fp += BitmapString(user->BlocksWithEntries());
    for (int i = 0; i < 20; i++) {
      int64_t lo = static_cast<int64_t>(rng() % 1100) - 50;
      Value vlo = Value::Int(lo);
      Value vhi = Value::Int(lo + static_cast<int64_t>(rng() % 300));
      Bitmap candidates = user->CandidateBlocks(&vlo, &vhi);
      fp += BitmapString(candidates);
      for (size_t bit : candidates.SetBits()) {
        std::vector<uint32_t> ptrs;
        EXPECT_TRUE(user->SearchBlock(bit, &vlo, &vhi, &ptrs).ok());
        for (uint32_t p : ptrs) fp += PointerString(bit, p);
      }
    }
  }

  // Authenticated twins: digests and byte-exact encoded proofs.
  Hash256 digest{};
  EXPECT_TRUE(indexes->senid_ali()
                  ->ComputeDigest(nullptr, nullptr, nullptr, height, &digest)
                  .ok());
  fp.append(reinterpret_cast<const char*>(digest.bytes.data()), 32);
  Value org1 = Value::Str("org1");
  AuthQueryResponse proof;
  EXPECT_TRUE(indexes->senid_ali()
                  ->ProveRange(&org1, &org1, nullptr, height, &proof)
                  .ok());
  std::string enc;
  proof.EncodeTo(&enc);
  fp += enc;

  AuthenticatedLayeredIndex* user_ali = indexes->GetAli("t", "v");
  EXPECT_NE(user_ali, nullptr);
  if (user_ali != nullptr) {
    Value lo = Value::Int(100), hi = Value::Int(700);
    EXPECT_TRUE(
        user_ali->ComputeDigest(&lo, &hi, nullptr, height, &digest).ok());
    fp.append(reinterpret_cast<const char*>(digest.bytes.data()), 32);
    proof = AuthQueryResponse();
    EXPECT_TRUE(user_ali->ProveRange(&lo, &hi, nullptr, height, &proof).ok());
    enc.clear();
    proof.EncodeTo(&enc);
    fp += enc;
  }
  return fp;
}

ChainOptions EquivChainOptions(uint64_t interval, uint64_t pool_bytes,
                               bool on_close) {
  ChainOptions options;
  options.verify_signatures = false;
  options.checkpoint.interval_blocks = interval;
  options.checkpoint.pool_bytes = pool_bytes;
  options.checkpoint.checkpoint_on_close = on_close;
  return options;
}

TEST(CheckpointEquivalenceTest, AllRecoveryPathsAnswerIdentically) {
  // {seed, batches chained before CREATE INDEX}: the mid-chain cases create
  // the index before and after the last checkpoint (interval 7), so a
  // restore either finds it checkpointed or backfills it.
  const std::pair<uint64_t, uint64_t> cases[] = {
      {1, 0}, {7, 0}, {23, 0}, {31, 9}, {53, 37}};
  for (const auto& [seed, create_index_after] : cases) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Workload w = MakeWorkload(seed, create_index_after);

    // Baseline: never checkpointed, fully in-memory, still open.
    ScratchDir mem_dir("equiv_mem_" + std::to_string(seed));
    ChainManager mem("mem", nullptr);
    ASSERT_TRUE(mem.Open(EquivChainOptions(0, 64 << 20, false),
                         mem_dir.path())
                    .ok());
    RunWorkload(&mem, w);
    const std::string expected = Fingerprint(&mem, seed);

    // Checkpointed chain: periodic checkpoints mid-workload mean the live
    // chain is already a hybrid of frozen page files and in-memory tail.
    ScratchDir dir("equiv_ckpt_" + std::to_string(seed));
    {
      ChainManager chain("ckpt", nullptr);
      ASSERT_TRUE(chain.Open(EquivChainOptions(7, 64 << 20, false),
                             dir.path())
                      .ok());
      RunWorkload(&chain, w);
      EXPECT_GT(chain.checkpoints_written(), 0u);
      EXPECT_EQ(Fingerprint(&chain, seed), expected) << "live hybrid chain";
      // Leave a tail above the last checkpoint: no checkpoint on close.
      chain.Close();
    }

    // Checkpoint + tail-only replay.
    {
      ChainManager chain("restore", nullptr);
      ASSERT_TRUE(chain.Open(EquivChainOptions(0, 64 << 20, false),
                             dir.path())
                      .ok());
      const ChainManager::StartupStats startup = chain.startup_stats();
      EXPECT_TRUE(startup.from_checkpoint);
      EXPECT_EQ(startup.checkpoint_height + startup.replayed_blocks,
                chain.height());
      EXPECT_EQ(Fingerprint(&chain, seed), expected)
          << "checkpoint + tail replay";
      chain.Close();
    }

    // Same restore through a 8-page pool: every tree descent refaults.
    {
      ChainManager chain("starved", nullptr);
      ASSERT_TRUE(chain.Open(EquivChainOptions(0, 8 * kPageSize, false),
                             dir.path())
                      .ok());
      EXPECT_TRUE(chain.startup_stats().from_checkpoint);
      EXPECT_EQ(Fingerprint(&chain, seed), expected) << "starved pool";
      const BufferManager::Stats stats = chain.buffer_stats();
      EXPECT_LE(stats.usage, 8 * kPageSize);
      EXPECT_GT(stats.evictions, 0u);
      chain.Close();
    }

    // Rebuild-from-scratch: same directory, checkpoints removed — the full
    // replay must reconstruct the exact same state.
    ASSERT_TRUE(
        Env::Default()->RemoveDirRecursive(dir.path() + "/checkpoints").ok());
    {
      ChainManager chain("rebuild", nullptr);
      ASSERT_TRUE(chain.Open(EquivChainOptions(0, 64 << 20, false),
                             dir.path())
                      .ok());
      const ChainManager::StartupStats startup = chain.startup_stats();
      EXPECT_FALSE(startup.from_checkpoint);
      EXPECT_EQ(startup.replayed_blocks, chain.height());
      EXPECT_EQ(Fingerprint(&chain, seed), expected) << "full rebuild";
      chain.Close();
    }
    mem.Close();
  }
}

// A restart in the middle of the workload — restore, then keep appending,
// checkpointing, and restarting — converges to the same answers as the
// uninterrupted chain.
TEST(CheckpointEquivalenceTest, RestartMidWorkloadConverges) {
  const uint64_t seed = 99;
  const Workload w = MakeWorkload(seed);

  ScratchDir mem_dir("equiv_mid_mem");
  ChainManager mem("mem", nullptr);
  ASSERT_TRUE(
      mem.Open(EquivChainOptions(0, 64 << 20, false), mem_dir.path()).ok());
  RunWorkload(&mem, w);
  const std::string expected = Fingerprint(&mem, seed);

  ScratchDir dir("equiv_mid");
  uint64_t next_seq = 0;
  // Three sessions over one directory, each appending a third of the blocks
  // (manifest-recorded CREATE INDEX lands in session 1 and must survive).
  for (int session = 0; session < 3; session++) {
    ChainManager chain("node", nullptr);
    ASSERT_TRUE(chain.Open(EquivChainOptions(5, 64 << 20, true), dir.path())
                    .ok());
    ASSERT_EQ(chain.height(), next_seq + 1);  // nothing acked was lost
    const uint64_t until = std::min<uint64_t>(
        w.batches.size(), (session + 1) * (w.batches.size() / 3 + 1));
    for (; next_seq < until; next_seq++) {
      if (next_seq == w.create_index_after) {
        ASSERT_TRUE(chain.indexes()
                        ->CreateLayeredIndex("t", "v",
                                             Schema::kNumSystemColumns,
                                             /*discrete=*/false)
                        .ok());
      }
      std::vector<Transaction> txns = w.batches[next_seq];
      Timestamp ts = 0;
      for (const auto& txn : txns) ts = std::max(ts, txn.ts());
      ASSERT_TRUE(
          chain.AppendBatch(next_seq, std::move(txns), ts, "sig")
              .ok());
    }
    if (next_seq == w.batches.size()) {
      EXPECT_EQ(Fingerprint(&chain, seed), expected)
          << "session " << session;
    }
    chain.Close();
  }
  ASSERT_EQ(next_seq, w.batches.size());

  // Final restart: clean shutdown above wrote a checkpoint, so this restore
  // replays no tail — and still answers identically.
  ChainManager final_chain("final", nullptr);
  ASSERT_TRUE(final_chain.Open(EquivChainOptions(0, 64 << 20, false),
                               dir.path())
                  .ok());
  EXPECT_TRUE(final_chain.startup_stats().from_checkpoint);
  EXPECT_EQ(final_chain.startup_stats().replayed_blocks, 0u);
  EXPECT_EQ(Fingerprint(&final_chain, seed), expected);
  final_chain.Close();
  mem.Close();
}

}  // namespace
}  // namespace sebdb
