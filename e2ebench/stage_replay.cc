#include "stage_replay.h"

#include <algorithm>

#include "chain_gen.h"
#include "consensus/engine.h"
#include "core/chain_manager.h"
#include "core/node.h"
#include "storage/block_store.h"
#include "storage/file.h"
#include "trace.h"

namespace sebdb {
namespace e2e {

Status ReplayStages(const std::vector<Transaction>& txns, int batch_size,
                    const KeyStore& keys, const std::string& scratch_dir,
                    StageCosts* out) {
  *out = StageCosts{};
  if (txns.empty()) return Status::InvalidArgument("nothing to replay");
  batch_size = std::max(1, batch_size);
  const std::string leader_dir = scratch_dir + "/leader";
  const std::string follower_dir = scratch_dir + "/follower";
  const std::string store_dir = scratch_dir + "/store";
  for (const auto& dir : {scratch_dir, leader_dir, follower_dir, store_dir}) {
    RemoveDirRecursive(dir);
    CreateDirIfMissing(dir);
  }

  int64_t verify_us = 0;
  for (const auto& txn : txns) {
    const int64_t t0 = NowMicros();
    Status s;
    {
      ScopedSpan span("core.verify_sig");
      s = keys.VerifyTransaction(txn);
    }
    verify_us += NowMicros() - t0;
    if (!s.ok()) return s;
  }
  out->verify_sig_us_per_txn =
      static_cast<double>(verify_us) / static_cast<double>(txns.size());

  ChainManager leader(kSchemaSigner, nullptr);
  ChainManager follower("node2", &keys);
  BlockStore store;
  Status s = leader.Open(DefaultNodeChainOptions(), leader_dir);
  if (s.ok()) s = follower.Open(DefaultNodeChainOptions(), follower_dir);
  if (s.ok()) s = store.Open(BlockStoreOptions(), store_dir);

  auto append = [&](std::vector<Transaction> batch, bool timed) -> Status {
    Timestamp batch_ts = 0;
    for (const auto& txn : batch) batch_ts = std::max(batch_ts, txn.ts());
    std::string encoded, signature;
    EncodeBatch(batch, &encoded);
    Status st = keys.Sign(kSchemaSigner, BatchDigest(encoded).AsSlice(),
                          &signature);
    if (!st.ok()) return st;
    const int64_t t0 = NowMicros();
    {
      ScopedSpan span(timed ? "core.append_batch" : "core.append_schema");
      st = leader.AppendBatch(leader.height() - 1, std::move(batch), batch_ts,
                              signature);
    }
    if (timed) {
      out->append_batch_us_per_block += static_cast<double>(NowMicros() - t0);
    }
    return st;
  };

  if (s.ok()) s = append(DonationSchemaTxns(keys, 1), false);
  if (s.ok()) {
    // The raw store starts from the leader's genesis, untimed.
    std::string record;
    Block genesis;
    s = leader.GetBlockRecord(0, &record);
    Slice input(record);
    if (s.ok()) s = Block::DecodeFrom(&input, &genesis);
    if (s.ok()) s = store.Append(genesis);
  }
  for (size_t i = 0; s.ok() && i < txns.size(); i += batch_size) {
    const size_t end = std::min(txns.size(), i + batch_size);
    s = append(std::vector<Transaction>(txns.begin() + i, txns.begin() + end),
               true);
    out->blocks++;
  }

  for (uint64_t h = 1; s.ok() && h < leader.height(); h++) {
    std::string record;
    s = leader.GetBlockRecord(h, &record);
    if (!s.ok()) break;
    const bool timed = h >= 2;  // data blocks only
    int64_t t0 = NowMicros();
    {
      ScopedSpan span("core.apply_record");
      s = follower.ApplyBlockRecord(h, record);
    }
    if (timed) {
      out->apply_record_us_per_block += static_cast<double>(NowMicros() - t0);
    }
    if (!s.ok()) break;

    Block block;
    Slice input(record);
    s = Block::DecodeFrom(&input, &block);
    if (!s.ok()) break;
    t0 = NowMicros();
    Hash256 root;
    {
      ScopedSpan span("storage.merkle");
      root = block.ComputeMerkleRoot();
    }
    if (timed) out->merkle_us_per_block += static_cast<double>(NowMicros() - t0);
    if (root != block.header().trans_root) {
      s = Status::Corruption("replayed block has a wrong Merkle root");
      break;
    }
    t0 = NowMicros();
    {
      ScopedSpan span("storage.append");
      s = store.Append(block);
    }
    if (timed) {
      out->store_append_us_per_block += static_cast<double>(NowMicros() - t0);
    }
  }
  if (s.ok() && follower.tip_hash() != leader.tip_hash()) {
    s = Status::Corruption("follower diverged from leader during replay");
  }
  (void)store.Close();
  (void)follower.Close();
  (void)leader.Close();
  RemoveDirRecursive(scratch_dir);
  if (!s.ok()) return s;
  const double blocks = std::max(1, out->blocks);
  out->append_batch_us_per_block /= blocks;
  out->apply_record_us_per_block /= blocks;
  out->merkle_us_per_block /= blocks;
  out->store_append_us_per_block /= blocks;
  return Status::OK();
}

}  // namespace e2e
}  // namespace sebdb
