// Block-apply equivalence (DESIGN.md §13): the same ordered workload must
// produce byte-identical chain state (tip hash, query rows and plans, ALI
// digests, checkpoint files) whether IndexSet::ApplyBlock runs with no pool,
// a 1-thread pool or a 4-thread pool, and every index must match a serial
// reference built here from standalone LayeredIndex /
// AuthenticatedLayeredIndex instances fed through their own AddBlock.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/chain_manager.h"
#include "sql/executor.h"
#include "storage/file.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;
using testing_util::ScratchDir;
using testing_util::SecondLevelEntries;

// One chain variant: a scratch dir, its own pool (when threaded) and chain.
struct Variant {
  std::string name;
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<ChainManager> chain;
  std::unique_ptr<Executor> executor;
};

Variant MakeVariant(const std::string& name, int pool_threads) {
  Variant v;
  v.name = name;
  v.dir = std::make_unique<ScratchDir>("mvcc_" + name);
  ChainOptions options;
  options.verify_signatures = false;
  options.store.segment_size = 8 << 10;  // tiny: forces many segments
  if (pool_threads > 0) {
    v.pool = std::make_unique<ThreadPool>(pool_threads);
    options.pool = v.pool.get();
  }
  v.chain = std::make_unique<ChainManager>("mvcc-" + name, nullptr);
  EXPECT_TRUE(v.chain->Open(options, v.dir->path()).ok());
  return v;
}

// Application positions of the user-indexed donate columns.
constexpr int kProjectPos = 1;
constexpr int kAmountPos = 2;

// Deterministic mixed workload: repeated and unique first-column keys,
// mid-chain schema re-syncs, a table created and populated in one block,
// and user indexes created mid-chain (at height *user_index_height) so
// later blocks exercise user targets in the apply.
void BuildWorkload(ChainManager* chain, uint64_t* user_index_height) {
  Timestamp ts = 0;
  auto next_ts = [&ts] { return ts += 10; };
  auto append = [&](std::vector<Transaction> txns) {
    Timestamp block_ts = 0;
    for (const auto& txn : txns) block_ts = std::max(block_ts, txn.ts());
    uint64_t seq = chain->height() - 1;  // genesis at height 0
    ASSERT_TRUE(
        chain->AppendBatch(seq, std::move(txns), block_ts, "sig").ok());
  };

  Schema donate, acct;
  ASSERT_TRUE(Schema::Create("donate",
                             {{"donor", ValueType::kString},
                              {"project", ValueType::kString},
                              {"amount", ValueType::kInt64}},
                             &donate)
                  .ok());
  ASSERT_TRUE(Schema::Create(
                  "acct",
                  {{"id", ValueType::kString}, {"v", ValueType::kInt64}},
                  &acct)
                  .ok());
  std::vector<Transaction> schema_txns;
  for (const Schema* schema : {&donate, &acct}) {
    Transaction txn = Catalog::MakeSchemaTransaction(*schema);
    txn.set_sender("admin");
    txn.set_ts(next_ts());
    txn.set_signature("test-sig");
    schema_txns.push_back(std::move(txn));
  }
  append(std::move(schema_txns));

  Random rng(20260809);
  for (int b = 0; b < 30; b++) {
    std::vector<Transaction> txns;
    // Mid-chain schema re-sync (idempotent) between inserts of one block.
    if (b % 7 == 3) {
      Transaction txn = Catalog::MakeSchemaTransaction(donate);
      txn.set_sender("admin");
      txn.set_ts(next_ts());
      txn.set_signature("test-sig");
      txns.push_back(std::move(txn));
    }
    // Odd blocks draw first-column keys from a tiny pool (many repeats
    // within a block); even blocks from a wide one (mostly unique).
    uint64_t key_space = (b % 2 == 1) ? 3 : 1000;
    int rows = 4 + static_cast<int>(rng.Uniform(9));
    for (int i = 0; i < rows; i++) {
      if (rng.Uniform(3) == 0) {
        txns.push_back(
            MakeTxn("acct", "org" + std::to_string(rng.Uniform(4)), next_ts(),
                    {Value::Str("a" + std::to_string(rng.Uniform(key_space))),
                     Value::Int(rng.UniformRange(0, 500))}));
      } else {
        txns.push_back(MakeTxn(
            "donate", "donor" + std::to_string(rng.Uniform(6)), next_ts(),
            {Value::Str("d" + std::to_string(rng.Uniform(key_space))),
             Value::Str("proj" + std::to_string(rng.Uniform(5))),
             Value::Int(rng.UniformRange(0, 500))}));
      }
    }
    append(std::move(txns));

    if (b == 14) {
      // New table created and populated within a single block.
      Schema late;
      ASSERT_TRUE(Schema::Create("late",
                                 {{"who", ValueType::kString},
                                  {"score", ValueType::kInt64}},
                                 &late)
                      .ok());
      Transaction schema_txn = Catalog::MakeSchemaTransaction(late);
      schema_txn.set_sender("admin");
      schema_txn.set_ts(next_ts());
      schema_txn.set_signature("test-sig");
      std::vector<Transaction> block;
      block.push_back(std::move(schema_txn));
      for (int i = 0; i < 3; i++) {
        block.push_back(
            MakeTxn("late", "admin", next_ts(),
                    {Value::Str("w" + std::to_string(i)), Value::Int(i)}));
      }
      append(std::move(block));
      // User indexes created mid-chain (backfilled): a continuous
      // histogram on amount, discrete value-bitmaps on project.
      *user_index_height = chain->height();
      ASSERT_TRUE(chain->indexes()
                      ->CreateLayeredIndex(
                          "donate", "amount",
                          Schema::kNumSystemColumns + kAmountPos,
                          /*discrete=*/false)
                      .ok());
      ASSERT_TRUE(chain->indexes()
                      ->CreateLayeredIndex(
                          "donate", "project",
                          Schema::kNumSystemColumns + kProjectPos,
                          /*discrete=*/true)
                      .ok());
    }
  }
}

std::vector<std::string> Rendered(const ResultSet& result) {
  std::vector<std::string> out;
  for (const auto& row : result.rows) {
    std::string line;
    for (const auto& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  return out;
}

std::string AliDigest(const AuthenticatedLayeredIndex& ali, const Value& lo,
                      const Value& hi) {
  Hash256 digest;
  EXPECT_TRUE(
      ali.ComputeDigest(&lo, &hi, nullptr, ali.num_blocks(), &digest).ok());
  return digest.ToHex();
}

// Every regular file under `dir` (recursing one level into subdirectories),
// keyed by relative name.
std::map<std::string, std::string> DirBytes(const std::string& dir) {
  std::map<std::string, std::string> out;
  std::vector<std::string> names;
  if (!ListDir(dir, &names).ok()) return out;
  for (const auto& name : names) {
    const std::string path = dir + "/" + name;
    RandomAccessFile file;
    if (file.Open(path).ok()) {
      std::string bytes;
      if (file.size() > 0) {
        EXPECT_TRUE(file.Read(0, file.size(), &bytes).ok()) << path;
      }
      out[name] = std::move(bytes);
    } else {
      for (auto& [sub, bytes] : DirBytes(path)) {
        out[name + "/" + sub] = std::move(bytes);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serial reference: one standalone LayeredIndex + ALI pair per index the
// IndexSet maintains, built with equivalent extractors and fed every block
// through their own AddBlock, one block at a time.

struct ReferenceIndex {
  ReferenceIndex(const std::string& name, LayeredIndexOptions options,
                 const ColumnExtractor& extractor)
      : layered(name, options, extractor), ali(&layered) {}
  LayeredIndex layered;
  AuthenticatedLayeredIndex ali;
};

// A probe range and the indexes it applies to.
struct Probe {
  std::string index;
  Value lo, hi;
};

struct Reference {
  std::map<std::string, std::unique_ptr<ReferenceIndex>> indexes;
  std::vector<Probe> probes;
};

ColumnExtractor DonateColumn(int pos) {
  return [pos](const Transaction& txn, Value* out) {
    if (txn.tname() != "donate" ||
        pos >= static_cast<int>(txn.values().size())) {
      return false;
    }
    *out = txn.values()[pos];
    return true;
  };
}

std::unique_ptr<Reference> BuildReference(ChainManager* chain,
                                          uint64_t user_index_height) {
  std::vector<std::shared_ptr<const Block>> blocks(chain->height());
  for (uint64_t h = 0; h < blocks.size(); h++) {
    EXPECT_TRUE(chain->store()->ReadBlock(h, &blocks[h]).ok()) << h;
  }

  auto ref = std::make_unique<Reference>();
  LayeredIndexOptions discrete;
  discrete.discrete = true;
  ref->indexes["sys.senid"] = std::make_unique<ReferenceIndex>(
      "sys.senid", discrete, [](const Transaction& txn, Value* out) {
        *out = Value::Str(txn.sender());
        return true;
      });
  ref->indexes["sys.tname"] = std::make_unique<ReferenceIndex>(
      "sys.tname", discrete, [](const Transaction& txn, Value* out) {
        *out = Value::Str(txn.tname());
        return true;
      });
  ref->indexes["donate.project"] = std::make_unique<ReferenceIndex>(
      "donate.project", discrete, DonateColumn(kProjectPos));

  // The continuous index was created at user_index_height, its histogram
  // sampled from the values chained before it; created at height 0, it
  // bootstraps from its first non-empty block instead.
  LayeredIndexOptions continuous;
  continuous.histogram_buckets = IndexSetOptions().histogram_buckets;
  const ColumnExtractor amount = DonateColumn(kAmountPos);
  ref->indexes["donate.amount"] = std::make_unique<ReferenceIndex>(
      "donate.amount", continuous, amount);
  std::vector<Value> sample;
  for (uint64_t h = 0; h < user_index_height; h++) {
    for (const auto& txn : blocks[h]->transactions()) {
      Value v;
      if (amount(txn, &v)) sample.push_back(std::move(v));
    }
  }
  if (!sample.empty()) {
    EqualDepthHistogram histogram;
    EXPECT_TRUE(EqualDepthHistogram::Build(std::move(sample),
                                           continuous.histogram_buckets,
                                           &histogram)
                    .ok());
    ReferenceIndex* amount_ref = ref->indexes["donate.amount"].get();
    EXPECT_TRUE(amount_ref->layered.SetHistogram(std::move(histogram)).ok());
  }

  for (const auto& block : blocks) {
    for (auto& [name, index] : ref->indexes) {
      EXPECT_TRUE(index->layered.AddBlock(*block).ok()) << name;
      EXPECT_TRUE(index->ali.AddBlock(*block).ok()) << name;
    }
  }

  auto point = [&](const std::string& index, const Value& v) {
    ref->probes.push_back({index, v, v});
  };
  for (int i = 0; i < 6; i++) {
    point("sys.senid", Value::Str("donor" + std::to_string(i)));
  }
  for (int i = 0; i < 4; i++) {
    point("sys.senid", Value::Str("org" + std::to_string(i)));
  }
  point("sys.senid", Value::Str("admin"));
  for (const char* table : {"donate", "acct", "late", "__schema"}) {
    point("sys.tname", Value::Str(table));
  }
  for (int i = 0; i < 5; i++) {
    point("donate.project", Value::Str("proj" + std::to_string(i)));
  }
  for (auto [lo, hi] : {std::pair<int, int>{0, 99}, {100, 300}, {450, 500},
                        {0, 500}, {250, 250}}) {
    ref->probes.push_back({"donate.amount", Value::Int(lo), Value::Int(hi)});
  }
  return ref;
}

// `chain`'s indexes match the serial reference: every block's second
// level, and the candidate bitmaps and ALI digests of every probe.
void ExpectMatchesReference(ChainManager* chain, const Reference& ref) {
  IndexSet* set = chain->indexes();
  auto lookup = [&](const std::string& name)
      -> std::pair<LayeredIndex*, AuthenticatedLayeredIndex*> {
    if (name == "sys.senid") return {set->senid_index(), set->senid_ali()};
    if (name == "sys.tname") return {set->tname_index(), set->tname_ali()};
    const std::string column = name.substr(name.find('.') + 1);
    return {set->GetLayered("donate", column), set->GetAli("donate", column)};
  };
  for (const auto& [name, want] : ref.indexes) {
    SCOPED_TRACE(name);
    const LayeredIndex* layered = lookup(name).first;
    ASSERT_NE(layered, nullptr);
    ASSERT_EQ(want->layered.num_blocks(), layered->num_blocks());
    for (BlockId bid = 0; bid < layered->num_blocks(); bid++) {
      EXPECT_EQ(SecondLevelEntries(want->layered, bid),
                SecondLevelEntries(*layered, bid))
          << "block " << bid;
    }
  }
  for (const Probe& probe : ref.probes) {
    SCOPED_TRACE(probe.index + " [" + probe.lo.ToString() + ", " +
                 probe.hi.ToString() + "]");
    auto [layered, ali] = lookup(probe.index);
    ASSERT_NE(layered, nullptr);
    ASSERT_NE(ali, nullptr);
    const ReferenceIndex& want = *ref.indexes.at(probe.index);
    EXPECT_EQ(want.layered.CandidateBlocks(&probe.lo, &probe.hi).SetBits(),
              layered->CandidateBlocks(&probe.lo, &probe.hi).SetBits());
    EXPECT_EQ(AliDigest(want.ali, probe.lo, probe.hi),
              AliDigest(*ali, probe.lo, probe.hi));
  }
}

// ---------------------------------------------------------------------------
// Randomized equivalence across pool sizes.

TEST(MvccEquivalenceTest, SerialAndScheduledStateIsByteIdentical) {
  std::vector<Variant> variants;
  variants.push_back(MakeVariant("nopool", 0));
  variants.push_back(MakeVariant("pool1", 1));
  variants.push_back(MakeVariant("pool4", 4));

  uint64_t user_index_height = 0;
  for (auto& v : variants) {
    BuildWorkload(v.chain.get(), &user_index_height);
    v.executor = std::make_unique<Executor>(v.chain->store(),
                                            v.chain->indexes(),
                                            v.chain->catalog(), nullptr);
  }
  ASSERT_GT(user_index_height, 0u);

  const Variant& base = variants[0];
  for (size_t i = 1; i < variants.size(); i++) {
    const Variant& other = variants[i];
    SCOPED_TRACE(other.name);
    EXPECT_EQ(base.chain->height(), other.chain->height());
    EXPECT_EQ(base.chain->tip_hash().ToHex(), other.chain->tip_hash().ToHex());
    EXPECT_EQ(base.chain->next_tid(), other.chain->next_tid());
  }

  // Every variant's indexes equal the serial reference.
  const std::unique_ptr<Reference> ref =
      BuildReference(base.chain.get(), user_index_height);
  for (auto& v : variants) {
    SCOPED_TRACE(v.name);
    ExpectMatchesReference(v.chain.get(), *ref);
  }

  // Query results and plans across every access path the planner picks.
  const char* queries[] = {
      "SELECT * FROM donate WHERE amount >= 100 AND amount <= 300",
      "SELECT * FROM donate WHERE project = 'proj2'",
      "TRACE OPERATOR = 'donor3'",
      "TRACE OPERATION = 'acct'",
      "SELECT * FROM acct WHERE v >= 250",
      "SELECT * FROM late",
  };
  for (const char* sql : queries) {
    ExecOptions options;
    ResultSet expected;
    ASSERT_TRUE(base.executor->ExecuteSql(sql, options, &expected).ok())
        << sql;
    for (size_t i = 1; i < variants.size(); i++) {
      ResultSet got;
      ASSERT_TRUE(variants[i].executor->ExecuteSql(sql, options, &got).ok())
          << variants[i].name << ": " << sql;
      EXPECT_EQ(expected.plan, got.plan) << variants[i].name << ": " << sql;
      EXPECT_EQ(Rendered(expected), Rendered(got))
          << variants[i].name << ": " << sql;
    }
  }

  // Checkpoints must serialize to identical bytes: same page files, same
  // manifest, for any pool size.
  for (auto& v : variants) {
    ASSERT_TRUE(v.chain->WriteCheckpoint().ok()) << v.name;
  }
  const auto base_files = DirBytes(base.dir->path() + "/checkpoints");
  EXPECT_FALSE(base_files.empty());
  for (size_t i = 1; i < variants.size(); i++) {
    const auto other_files = DirBytes(variants[i].dir->path() + "/checkpoints");
    ASSERT_EQ(base_files.size(), other_files.size()) << variants[i].name;
    for (const auto& [name, bytes] : base_files) {
      auto it = other_files.find(name);
      ASSERT_NE(it, other_files.end()) << variants[i].name << ": " << name;
      EXPECT_EQ(bytes, it->second) << variants[i].name << ": " << name;
    }
  }
}

// Replay (ChainManager::Open over an existing dir) runs the same apply: a
// pool-4 replay of a chain built with no pool reproduces its tip, and every
// index, user indexes recreated from the manifest included, matches the
// serial reference.
TEST(MvccEquivalenceTest, ScheduledReplayMatchesSerialBuild) {
  ScratchDir dir("mvcc_replay");
  ChainOptions options;
  options.verify_signatures = false;
  options.store.segment_size = 8 << 10;
  std::string tip;
  uint64_t height = 0;
  uint64_t user_index_height = 0;
  {
    ChainManager chain("mvcc-build", nullptr);
    ASSERT_TRUE(chain.Open(options, dir.path()).ok());
    BuildWorkload(&chain, &user_index_height);
    tip = chain.tip_hash().ToHex();
    height = chain.height();
    ASSERT_TRUE(chain.Close().ok());
  }
  ThreadPool pool(4);
  options.pool = &pool;
  ChainManager chain("mvcc-replay", nullptr);
  ASSERT_TRUE(chain.Open(options, dir.path()).ok());
  EXPECT_FALSE(chain.startup_stats().from_checkpoint);
  EXPECT_EQ(chain.startup_stats().replayed_blocks, height);
  EXPECT_EQ(chain.height(), height);
  EXPECT_EQ(chain.tip_hash().ToHex(), tip);
  // Replay recreates the user indexes from the manifest before block 0,
  // with the histogram they sampled when created mid-chain.
  ASSERT_GT(user_index_height, 0u);
  ExpectMatchesReference(&chain, *BuildReference(&chain, user_index_height));
}

}  // namespace
}  // namespace sebdb
