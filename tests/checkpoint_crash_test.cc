// Crash-point fault injection for the checkpoint protocol (DESIGN.md §11):
// a simulated kill at EVERY write boundary of a checkpoint build — page
// files, chain-meta blob, manifest append (the atomic swap) — must leave a
// directory that reopens to exactly the acked chain: recovery restores the
// newest fully published checkpoint (or falls back to the previous one, or
// to a full replay) and replays the tail, with zero acked-transaction loss
// and every index answering identically to a never-crashed reference chain.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/env.h"
#include "common/fault_env.h"
#include "core/chain_manager.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;
using testing_util::ScratchDir;

constexpr uint64_t kFirstBatch = 8;   // blocks before checkpoint 1
constexpr uint64_t kSecondBatch = 4;  // blocks between checkpoints 1 and 2
// Heights (genesis included) the two checkpoints cover.
constexpr uint64_t kCkpt1Height = 1 + kFirstBatch;
constexpr uint64_t kCkpt2Height = kCkpt1Height + kSecondBatch;

ChainOptions CrashChainOptions(Env* env) {
  ChainOptions options;
  options.verify_signatures = false;
  options.store.env = env;
  options.indexes.env = env;
  // Checkpoints are driven manually; Close must not write another.
  options.checkpoint.interval_blocks = 0;
  options.checkpoint.checkpoint_on_close = false;
  return options;
}

// Deterministic batch for consensus seq `seq` (block height seq + 1): two
// transactions from rotating senders over two tables.
std::vector<Transaction> BatchFor(uint64_t seq) {
  Timestamp ts = 1000 + static_cast<Timestamp>(seq);
  return {
      MakeTxn("t", "org" + std::to_string(seq % 3), ts,
              {Value::Int(static_cast<int64_t>(seq)), Value::Str("a")}),
      MakeTxn("u", "org" + std::to_string((seq + 1) % 3), ts,
              {Value::Int(-static_cast<int64_t>(seq)), Value::Str("b")}),
  };
}

Status AppendSeq(ChainManager* chain, uint64_t seq) {
  return chain->AppendBatch(seq, BatchFor(seq), 1000 + seq, "sig");
}

// One comparable answer sheet for the chain prefix [0, height): every block
// index entry, per-block SenID search results, and the SenID ALI digest.
std::string QueryFingerprint(ChainManager* chain, uint64_t height) {
  std::string fp;
  for (uint64_t h = 0; h < height; h++) {
    BlockIndexEntry e;
    Status s = chain->indexes()->block_index().FindByBlockId(h, &e);
    EXPECT_TRUE(s.ok()) << "height " << h << ": " << s.ToString();
    fp += std::to_string(e.bid) + "/" + std::to_string(e.first_tid) + "/" +
          std::to_string(e.num_transactions) + "/" + std::to_string(e.ts) +
          ";";
  }
  for (int org = 0; org < 3; org++) {
    Value key = Value::Str("org" + std::to_string(org));
    for (uint64_t h = 0; h < height; h++) {
      std::vector<uint32_t> ptrs;
      Status s =
          chain->indexes()->senid_index()->SearchBlock(h, &key, &key, &ptrs);
      EXPECT_TRUE(s.ok()) << "block " << h << ": " << s.ToString();
      for (uint32_t p : ptrs) {
        fp += "(" + std::to_string(h) + "," + std::to_string(p) + ")";
      }
    }
    fp += "|";
  }
  Hash256 digest{};
  Status s = chain->indexes()->senid_ali()->ComputeDigest(
      nullptr, nullptr, nullptr, height, &digest);
  EXPECT_TRUE(s.ok()) << s.ToString();
  fp.append(reinterpret_cast<const char*>(digest.bytes.data()), 32);
  return fp;
}

TEST(CheckpointCrashTest, RecoversFromEveryCheckpointWritePoint) {
  // Reference chain: same workload, no checkpoints, never crashed.
  ScratchDir ref_dir("ckpt_crash_ref");
  ChainManager reference("ref", nullptr);
  ASSERT_TRUE(
      reference.Open(CrashChainOptions(nullptr), ref_dir.path()).ok());
  for (uint64_t seq = 0; seq < kFirstBatch + kSecondBatch; seq++) {
    ASSERT_TRUE(AppendSeq(&reference, seq).ok());
  }
  ASSERT_EQ(reference.height(), kCkpt2Height);

  // Clean instrumented run: count the write ops spanning checkpoint 1, the
  // second batch of appends, and checkpoint 2. Crash points sweep this
  // whole window, so kills land inside page-file writes, the meta blob,
  // and both manifest appends.
  uint64_t window_writes;
  {
    ScratchDir dir("ckpt_crash_clean");
    FaultInjectionEnv env(Env::Default());
    ChainManager chain("node", nullptr);
    ASSERT_TRUE(chain.Open(CrashChainOptions(&env), dir.path()).ok());
    for (uint64_t seq = 0; seq < kFirstBatch; seq++) {
      ASSERT_TRUE(AppendSeq(&chain, seq).ok());
    }
    const uint64_t before = env.stats().write_ops;
    ASSERT_TRUE(chain.WriteCheckpoint().ok());
    for (uint64_t seq = kFirstBatch; seq < kFirstBatch + kSecondBatch; seq++) {
      ASSERT_TRUE(AppendSeq(&chain, seq).ok());
    }
    ASSERT_TRUE(chain.WriteCheckpoint().ok());
    ASSERT_EQ(chain.checkpoints_written(), 2u);
    window_writes = env.stats().write_ops - before;
    chain.Close();

    // Sanity: the clean directory restores from checkpoint 2 with no tail.
    ChainManager reopened("node", nullptr);
    ASSERT_TRUE(
        reopened.Open(CrashChainOptions(nullptr), dir.path()).ok());
    const ChainManager::StartupStats startup = reopened.startup_stats();
    EXPECT_TRUE(startup.from_checkpoint);
    EXPECT_EQ(startup.checkpoint_height, kCkpt2Height);
    EXPECT_EQ(startup.replayed_blocks, 0u);
    EXPECT_EQ(QueryFingerprint(&reopened, kCkpt2Height),
              QueryFingerprint(&reference, kCkpt2Height));
    reopened.Close();
  }
  ASSERT_GT(window_writes, 4u);  // several files + two manifest appends

  for (uint64_t crash_at = 1; crash_at <= window_writes; crash_at++) {
    SCOPED_TRACE("crash point " + std::to_string(crash_at));
    ScratchDir dir("ckpt_crash_pt");
    FaultInjectionEnv env(Env::Default());
    uint64_t acked = 0;  // blocks whose append returned OK (genesis incl.)
    {
      ChainManager chain("node", nullptr);
      ASSERT_TRUE(chain.Open(CrashChainOptions(&env), dir.path()).ok());
      for (uint64_t seq = 0; seq < kFirstBatch; seq++) {
        ASSERT_TRUE(AppendSeq(&chain, seq).ok());
      }
      acked = kCkpt1Height;
      // Vary how much of the fatal write survives: nothing, a fragment, or
      // the whole buffer (crash after the write, before the ack).
      static constexpr uint64_t kKeepChoices[] = {0, 1, 97, 1 << 20};
      env.ScheduleCrash(crash_at, kKeepChoices[crash_at % 4]);

      chain.WriteCheckpoint().ok();  // may die anywhere inside
      for (uint64_t seq = kFirstBatch; seq < kFirstBatch + kSecondBatch;
           seq++) {
        if (!AppendSeq(&chain, seq).ok()) break;
        acked++;
      }
      chain.WriteCheckpoint().ok();
      ASSERT_TRUE(env.crashed());
      chain.Close();  // best effort; the env is dead
    }

    // "Restart" against the real file system.
    ChainManager chain("node", nullptr);
    ASSERT_TRUE(chain.Open(CrashChainOptions(nullptr), dir.path()).ok())
        << "reopen failed";
    const uint64_t recovered = chain.height();
    // Zero acked loss; at most the one in-flight torn append can exceed it.
    ASSERT_GE(recovered, acked);
    ASSERT_LE(recovered, acked + 1);

    // Recovery restored a published checkpoint — necessarily one of the two
    // the workload writes — or fell back to a full replay; either way the
    // whole recovered prefix is accounted for.
    const ChainManager::StartupStats startup = chain.startup_stats();
    if (startup.from_checkpoint) {
      EXPECT_TRUE(startup.checkpoint_height == kCkpt1Height ||
                  startup.checkpoint_height == kCkpt2Height)
          << "checkpoint height " << startup.checkpoint_height;
      EXPECT_LE(startup.checkpoint_height, recovered);
      EXPECT_EQ(startup.replayed_blocks,
                recovered - startup.checkpoint_height);
    } else {
      EXPECT_EQ(startup.replayed_blocks, recovered);
    }

    // Every recovered block answers exactly like the reference chain.
    EXPECT_EQ(QueryFingerprint(&chain, recovered),
              QueryFingerprint(&reference, recovered));

    // The chain resumes: the rest of the workload appends and a fresh
    // checkpoint publishes over whatever the crash left behind.
    for (uint64_t seq = recovered - 1;
         seq < kFirstBatch + kSecondBatch; seq++) {
      ASSERT_TRUE(AppendSeq(&chain, seq).ok()) << "seq " << seq;
    }
    ASSERT_EQ(chain.height(), kCkpt2Height);
    EXPECT_TRUE(chain.WriteCheckpoint().ok());
    EXPECT_EQ(QueryFingerprint(&chain, kCkpt2Height),
              QueryFingerprint(&reference, kCkpt2Height));
    chain.Close();
  }
  reference.Close();
}

// A checkpoint attempt that dies must not poison the open chain: appends
// and queries continue against the in-memory state, and the next reopen
// still recovers everything.
TEST(CheckpointCrashTest, FailedCheckpointLeavesChainServing) {
  ScratchDir dir("ckpt_crash_serving");
  FaultInjectionEnv env(Env::Default());
  ChainManager chain("node", nullptr);
  ASSERT_TRUE(chain.Open(CrashChainOptions(&env), dir.path()).ok());
  for (uint64_t seq = 0; seq < kFirstBatch; seq++) {
    ASSERT_TRUE(AppendSeq(&chain, seq).ok());
  }

  env.SetFailWrites(true);
  EXPECT_FALSE(chain.WriteCheckpoint().ok());
  env.SetFailWrites(false);
  EXPECT_EQ(chain.checkpoints_written(), 0u);

  // Queries and a retried checkpoint work after the transient failure.
  BlockIndexEntry e;
  ASSERT_TRUE(chain.indexes()->block_index().FindByBlockId(3, &e).ok());
  EXPECT_EQ(e.bid, 3u);
  ASSERT_TRUE(AppendSeq(&chain, kFirstBatch).ok());
  EXPECT_TRUE(chain.WriteCheckpoint().ok());
  EXPECT_EQ(chain.checkpoints_written(), 1u);
  chain.Close();

  ChainManager reopened("node", nullptr);
  ASSERT_TRUE(reopened.Open(CrashChainOptions(nullptr), dir.path()).ok());
  EXPECT_EQ(reopened.height(), kCkpt1Height + 1);
  EXPECT_TRUE(reopened.startup_stats().from_checkpoint);
  reopened.Close();
}

}  // namespace
}  // namespace sebdb
