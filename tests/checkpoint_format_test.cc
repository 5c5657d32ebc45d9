// Index checkpoint meta format (DESIGN.md §11): a data directory
// checkpointed with meta version 1 still restores from its checkpoint with
// the same answers, and no truncation of a version-2 meta blob restores.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "storage/buffer_manager.h"
#include "tests/checkpoint_fixture.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;
using testing_util::ScratchDir;
using testing_util::TestChain;

std::string ReadText(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// tests/data/ckpt_v1 holds a chain whose only checkpoint sits at the tip and
// whose index meta is version 1. Opened (on a copy) it must restore from
// that checkpoint, replay nothing, and answer exactly as the chain that
// wrote it did.
TEST(CheckpointFormatTest, VersionOneDataDirRestoresWithoutReplay) {
  const std::string fixture = std::string(SEBDB_TEST_DATA_DIR) + "/ckpt_v1";
  const std::string expected = ReadText(fixture + ".expected");
  ASSERT_FALSE(expected.empty());

  ScratchDir dir("ckpt_v1");
  std::error_code ec;
  std::filesystem::copy(fixture, dir.path(),
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing,
                        ec);
  ASSERT_FALSE(ec) << ec.message();

  ChainManager chain("compat", nullptr);
  ASSERT_TRUE(
      chain.Open(checkpoint_fixture::FixtureOptions(false), dir.path()).ok());
  EXPECT_TRUE(chain.startup_stats().from_checkpoint);
  EXPECT_EQ(chain.startup_stats().replayed_blocks, 0u);
  EXPECT_EQ(checkpoint_fixture::Describe(&chain), expected);
  ASSERT_TRUE(chain.Close().ok());
}

// A real version-2 meta blob (system indexes, a continuous and a discrete
// user index, frozen trees in the staged delta files): the whole blob
// restores, and every strict prefix of it is rejected without crashing.
TEST(CheckpointFormatTest, EveryStrictPrefixOfMetaIsRejected) {
  TestChain chain("meta_prefix");
  ASSERT_TRUE(chain.AppendBlock({MakeTxn("t", "org0", 10,
                                         {Value::Int(5), Value::Str("a")})})
                  .ok());
  ASSERT_TRUE(chain.indexes()
                  ->CreateLayeredIndex("t", "v", Schema::kNumSystemColumns,
                                       /*discrete=*/false)
                  .ok());
  ASSERT_TRUE(chain.indexes()
                  ->CreateLayeredIndex("t", "w", Schema::kNumSystemColumns + 1,
                                       /*discrete=*/true)
                  .ok());
  for (int b = 0; b < 4; b++) {
    std::vector<Transaction> txns;
    for (int i = 0; i <= b; i++) {
      txns.push_back(MakeTxn("t", "org" + std::to_string(i), 20 + b,
                             {Value::Int(b * 10 + i),
                              Value::Str(i % 2 == 0 ? "a" : "b")}));
    }
    ASSERT_TRUE(chain.AppendBlock(std::move(txns)).ok());
  }

  ScratchDir dir("meta_prefix_ckpt");
  const uint64_t height = chain.indexes()->num_blocks();
  std::string meta;
  {
    BufferManager pool{BufferPoolOptions()};
    std::vector<CheckpointFile> files;
    PendingIndexCheckpoint pending;
    ASSERT_TRUE(chain.indexes()
                    ->WriteCheckpoint(&pool, dir.path(), "ckpt_1", &files,
                                      &meta, &pending)
                    .ok());
    ASSERT_FALSE(pending.deltas.empty());
  }
  ASSERT_FALSE(meta.empty());
  ASSERT_EQ(meta[0], 2);  // varint version

  auto restore = [&](size_t len) {
    BufferManager pool{BufferPoolOptions()};
    IndexSet indexes(chain.store());
    return indexes.RestoreCheckpoint(&pool, dir.path(), height,
                                     Slice(meta.data(), len));
  };
  ASSERT_TRUE(restore(meta.size()).ok());
  for (size_t len = 0; len < meta.size(); len++) {
    EXPECT_FALSE(restore(len).ok()) << "prefix of " << len << " of "
                                    << meta.size() << " bytes restored";
  }
}

}  // namespace
}  // namespace sebdb
