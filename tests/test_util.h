// Shared test helpers: scratch directories and direct chain construction
// (bypassing consensus) for storage/index/executor tests.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/chain_manager.h"
#include "index/layered_index.h"
#include "storage/file.h"
#include "types/transaction.h"

namespace sebdb {
namespace testing_util {

/// Creates a unique scratch directory under the build tree and removes it at
/// scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static std::atomic<uint64_t> counter{0};
    path_ = "/tmp/sebdb_test_" + tag + "_" + std::to_string(::getpid()) +
            "_" + std::to_string(counter.fetch_add(1));
    RemoveDirRecursive(path_);
    EXPECT_TRUE(CreateDirIfMissing(path_).ok());
  }
  ~ScratchDir() { RemoveDirRecursive(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Builds an unsigned transaction with explicit sender/timestamp.
inline Transaction MakeTxn(const std::string& tname,
                           const std::string& sender, Timestamp ts,
                           std::vector<Value> values) {
  Transaction txn(tname, std::move(values));
  txn.set_sender(sender);
  txn.set_ts(ts);
  txn.set_signature("test-sig");
  return txn;
}

/// A block's second level as "value@position" in cursor order; a cursor
/// error fails the calling test.
inline std::vector<std::string> SecondLevelEntries(const LayeredIndex& index,
                                                   BlockId bid) {
  std::vector<std::string> out;
  LayeredIndex::Cursor it = index.Seek(bid, nullptr);
  for (; it.Valid(); it.Next()) {
    out.push_back(it.key().ToString() + "@" + std::to_string(it.value()));
  }
  EXPECT_TRUE(it.status().ok())
      << index.name() << " block " << bid << ": " << it.status().ToString();
  return out;
}

/// A chain opened in a scratch dir with signature verification off; append
/// batches directly (no consensus) for deterministic storage/index tests.
class TestChain {
 public:
  explicit TestChain(const std::string& tag, ChainOptions options = {})
      : dir_(tag), chain_("test-node", nullptr) {
    options.verify_signatures = false;
    EXPECT_TRUE(chain_.Open(options, dir_.path()).ok());
  }

  /// Appends one block holding `txns`; block timestamp = max txn ts.
  Status AppendBlock(std::vector<Transaction> txns) {
    Timestamp ts = 0;
    for (const auto& txn : txns) ts = std::max(ts, txn.ts());
    uint64_t seq = chain_.height() - 1;  // genesis at height 0
    return chain_.AppendBatch(seq, std::move(txns), ts, "sig");
  }

  ChainManager& chain() { return chain_; }
  BlockStore* store() { return chain_.store(); }
  IndexSet* indexes() { return chain_.indexes(); }
  Catalog* catalog() { return chain_.catalog(); }

 private:
  ScratchDir dir_;
  ChainManager chain_;
};

}  // namespace testing_util
}  // namespace sebdb
