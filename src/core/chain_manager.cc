#include "core/chain_manager.h"

#include <algorithm>
#include <cstdio>

namespace sebdb {

Status ChainManager::Open(const ChainOptions& options,
                          const std::string& dir) {
  MutexLock lock(&mu_);
  if (open_) return Status::Busy("chain already open");
  options_ = options;
  startup_ = StartupStats{};
  last_checkpoint_height_ = 0;
  state_sync_ = StateSyncStats{};
  degraded_carry_ = BlockStore::RecoveryStats{};
  retired_.clear();

  Env* env =
      options.store.env != nullptr ? options.store.env : Env::Default();
  BufferPoolOptions pool_options;
  pool_options.capacity_bytes = options.checkpoint.pool_bytes;
  pool_options.env = env;
  pool_ = std::make_unique<BufferManager>(pool_options);
  Status s = CheckpointManager::Open(env, dir + "/checkpoints", &ckpt_);
  if (!s.ok()) return s;

  IndexSetOptions index_options = options.indexes;
  if (index_options.manifest_path.empty()) {
    index_options.manifest_path = dir + "/indexes.manifest";
  }
  if (index_options.env == nullptr) index_options.env = env;
  index_options_ = index_options;

  // Tail-only recovery: restore the newest usable checkpoint, replay only
  // the blocks above it. Any failure falls back to the full rebuild below.
  if (const CheckpointRecord* latest = ckpt_->latest()) {
    s = OpenFromCheckpoint(*latest, index_options, dir);
    if (s.ok()) {
      last_checkpoint_height_ = latest->height;
      open_ = true;
      return Status::OK();
    }
    // Wholesale fallback: discard every partially restored structure (a
    // fresh pool also drops the delta files the failed restore opened).
    fprintf(stderr,
            "[sebdb] chain %s: checkpoint restore failed (%s); falling back "
            "to full replay\n",
            dir.c_str(), s.ToString().c_str());
    startup_ = StartupStats{};
    // The failed open may have quarantined segments (degraded open); the
    // clean reopen below must not erase that fact for the repair path.
    const BlockStore::RecoveryStats first = store_.recovery_stats();
    if (first.degraded) degraded_carry_ = first;
    (void)store_.Close();
    catalog_.Clear();
    indexes_.reset();
    pool_ = std::make_unique<BufferManager>(pool_options);
  }

  s = store_.Open(options.store, dir);
  if (!s.ok()) return s;
  indexes_ = std::make_unique<IndexSet>(&store_, index_options);

  if (store_.num_blocks() == 0) {
    // Fresh chain: write the genesis block (height 0, no transactions).
    BlockBuilder builder;
    builder.SetHeight(0).SetTimestamp(0).SetFirstTid(1);
    Block genesis = std::move(builder).Build("genesis");
    s = store_.Append(genesis);
    if (!s.ok()) return s;
    s = ApplyBlock(genesis);
    if (!s.ok()) return s;
  } else {
    // Recovery: replay every persisted block into indexes and catalog.
    s = ReplayChain(0, store_.num_blocks());
    if (!s.ok()) return s;
    startup_.replayed_blocks = store_.num_blocks();
  }
  open_ = true;
  return Status::OK();
}

Status ChainManager::ReplayChain(uint64_t from, uint64_t n) {
  ThreadPool* pool = options_.pool;
  if (pool == nullptr || n - from < 4) {
    for (uint64_t h = from; h < n; h++) {
      std::shared_ptr<const Block> block;
      Status s = store_.ReadBlock(h, &block);
      if (!s.ok()) return s;
      s = block->Validate();
      if (!s.ok()) return s;
      s = ApplyBlock(*block);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  // Each chunk is read (coalesced preads via ReadBlocks) and Merkle-validated
  // across the pool; sub-ranges give every worker a sequential slice. The
  // next chunk loads in the background while this thread applies the current
  // one in height order — apply is order-dependent (indexes, catalog, tids)
  // and stays here.
  const uint64_t threads = static_cast<uint64_t>(pool->num_threads());
  const uint64_t chunk = std::max<uint64_t>(threads * 16, 64);

  struct Prefetch {
    std::vector<std::shared_ptr<const Block>> blocks;
    Status status;
    Latch done{1};
  };
  auto load = [this, pool, threads](uint64_t begin, uint64_t end,
                                    Prefetch* out) {
    const uint64_t total = end - begin;
    out->blocks.assign(total, nullptr);
    const uint64_t stride = (total + threads - 1) / threads;
    const uint64_t tasks = (total + stride - 1) / stride;
    out->status = ParallelForStatus(pool, tasks, [&](uint64_t t) -> Status {
      const uint64_t lo = begin + t * stride;
      const uint64_t hi = std::min(end, lo + stride);
      std::vector<std::shared_ptr<const Block>> blocks;
      Status s = store_.ReadBlocks(lo, hi - lo, &blocks);
      if (!s.ok()) return s;
      for (uint64_t i = 0; i < blocks.size(); i++) {
        s = blocks[i]->Validate();
        if (!s.ok()) return s;
        out->blocks[lo - begin + i] = std::move(blocks[i]);
      }
      return Status::OK();
    });
    out->done.CountDown();
  };

  auto start_load = [&](uint64_t begin, uint64_t end) {
    auto p = std::make_shared<Prefetch>();
    pool->Submit([load, begin, end, p] { load(begin, end, p.get()); });
    return p;
  };

  std::shared_ptr<Prefetch> pending = start_load(from, std::min(n, from + chunk));
  for (uint64_t begin = from; begin < n; begin += chunk) {
    std::shared_ptr<Prefetch> current = std::move(pending);
    const uint64_t end = std::min(n, begin + chunk);
    if (end < n) pending = start_load(end, std::min(n, end + chunk));
    current->done.Wait();
    Status s = current->status;
    for (uint64_t i = 0; s.ok() && i < current->blocks.size(); i++) {
      s = ApplyBlock(*current->blocks[i]);
    }
    if (!s.ok()) {
      // The in-flight prefetch references this object; let it finish before
      // the error unwinds to a caller who may destroy us.
      if (pending != nullptr) pending->done.Wait();
      return s;
    }
  }
  return Status::OK();
}

Status ChainManager::Close() {
  MutexLock lock(&mu_);
  if (open_ && options_.checkpoint.checkpoint_on_close && ckpt_ != nullptr &&
      store_.num_blocks() > last_checkpoint_height_) {
    WriteCheckpointLocked().ok();  // best-effort; recovery replays the tail
  }
  open_ = false;
  return store_.Close();
}

Status ChainManager::WriteCheckpoint() {
  MutexLock lock(&mu_);
  if (!open_) return Status::Aborted("chain not open");
  return WriteCheckpointLocked();
}

ChainManager::StartupStats ChainManager::startup_stats() const {
  MutexLock lock(&mu_);
  return startup_;
}

BlockStore::RecoveryStats ChainManager::recovery_stats() const {
  BlockStore::RecoveryStats out = store_.recovery_stats();
  MutexLock lock(&mu_);
  if (degraded_carry_.degraded && !out.degraded) {
    out.degraded = true;
    out.segments_quarantined += degraded_carry_.segments_quarantined;
    out.bytes_quarantined += degraded_carry_.bytes_quarantined;
  }
  return out;
}

ChainManager::StateSyncStats ChainManager::state_sync_stats() const {
  MutexLock lock(&mu_);
  return state_sync_;
}

BufferManager::Stats ChainManager::buffer_stats() const {
  return pool_ != nullptr ? pool_->stats() : BufferManager::Stats{};
}

uint64_t ChainManager::checkpoints_written() const {
  MutexLock lock(&mu_);
  return checkpoints_written_;
}

Status ChainManager::ApplyBlock(const Block& block) {
  // Startup replay, gossip apply and consensus apply all land here: one
  // parallel index pass, then the schema ops in block order (DESIGN.md
  // §13). No transaction reads the catalog while the indexes extract, so
  // the catalog walk can follow the index pass.
  Status s = indexes_->ApplyBlock(block, options_.pool);
  if (!s.ok()) return s;
  for (const auto& txn : block.transactions()) {
    catalog_.MaybeApplySchemaTransaction(txn);
  }
  tip_hash_ = block.header().block_hash;
  last_ts_ = block.header().timestamp;
  if (block.header().num_transactions > 0) {
    next_tid_ = block.header().first_tid + block.header().num_transactions;
  }
  return Status::OK();
}

Status ChainManager::AppendBatch(uint64_t seq, std::vector<Transaction> txns,
                                 Timestamp timestamp,
                                 const std::string& packager_signature) {
  uint64_t expected_height = seq + 1;  // genesis occupies height 0
  Hash256 prev_hash;
  TransactionId first_tid;
  {
    MutexLock lock(&mu_);
    if (!open_) return Status::Aborted("chain not open");
    if (store_.num_blocks() != expected_height) {
      if (store_.num_blocks() > expected_height) {
        return Status::OK();  // already applied (e.g. arrived via gossip first)
      }
      return Status::InvalidArgument(
          "batch " + std::to_string(seq) + " arrived at chain height " +
          std::to_string(store_.num_blocks()));
    }
    // Block timestamps must be deterministic across replicas and monotone;
    // callers pass a content-derived timestamp (max transaction ts) and we
    // clamp against the previous block.
    if (timestamp < last_ts_) timestamp = last_ts_;
    prev_hash = tip_hash_;
    first_tid = next_tid_;
  }

  // Build the block — Merkle tree and SHA-256 over the whole body — outside
  // mu_ so readers and the gossip apply path aren't stalled behind hashing.
  // The snapshot stays valid as long as the height doesn't move (tid/ts/tip
  // only change together with the height, under mu_); rechecked below.
  BlockBuilder builder;
  builder.SetPrevHash(prev_hash)
      .SetHeight(expected_height)
      .SetTimestamp(timestamp)
      .SetFirstTid(first_tid);
  for (auto& txn : txns) builder.AddTransaction(std::move(txn));
  Block block = std::move(builder).Build(packager_signature);

  MutexLock lock(&mu_);
  if (!open_) return Status::Aborted("chain not open");
  if (store_.num_blocks() != expected_height) {
    // Raced with gossip delivering the same height; that block won.
    if (store_.num_blocks() > expected_height) return Status::OK();
    return Status::InvalidArgument(
        "batch " + std::to_string(seq) + " arrived at chain height " +
        std::to_string(store_.num_blocks()));
  }
  Status s = store_.Append(block);
  if (!s.ok()) return s;
  s = ApplyBlock(block);
  if (!s.ok()) return s;
  MaybeCheckpointLocked();
  return Status::OK();
}

Status ChainManager::ApplyBlockRecord(BlockId height,
                                      const std::string& record) {
  {
    MutexLock lock(&mu_);
    if (!open_) return Status::Aborted("chain not open");
    if (height < store_.num_blocks()) return Status::OK();  // stale
    if (height > store_.num_blocks()) {
      return Status::InvalidArgument("gap before block " +
                                     std::to_string(height));
    }
  }

  // Decode, Merkle-validate and signature-check outside mu_: none of it
  // depends on chain state, and signature verification fans out across the
  // pool. Only the prev-hash link and the append/apply need the lock.
  Block block;
  Slice input(record);
  Status s = Block::DecodeFrom(&input, &block);
  if (!s.ok()) return s;
  if (block.height() != height) {
    return Status::Corruption("block record height mismatch");
  }
  s = block.Validate();
  if (!s.ok()) return s;
  if (options_.verify_signatures && keystore_ != nullptr) {
    const auto& txns = block.transactions();
    s = ParallelForStatus(options_.pool, txns.size(), [&](uint64_t i) {
      return keystore_->VerifyTransaction(txns[i]);
    });
    if (!s.ok()) return s;
  }

  MutexLock lock(&mu_);
  if (!open_) return Status::Aborted("chain not open");
  if (height < store_.num_blocks()) return Status::OK();  // lost the race
  if (height > store_.num_blocks()) {
    return Status::InvalidArgument("gap before block " +
                                   std::to_string(height));
  }
  if (height > 0 && block.header().prev_hash != tip_hash_) {
    return Status::Corruption("prev hash mismatch at height " +
                              std::to_string(height));
  }
  s = store_.Append(block);
  if (!s.ok()) return s;
  s = ApplyBlock(block);
  if (!s.ok()) return s;
  MaybeCheckpointLocked();
  return Status::OK();
}

Status ChainManager::GetBlockRecord(BlockId height, std::string* record) {
  {
    MutexLock lock(&mu_);
    if (!open_) return Status::Aborted("chain not open");
  }
  return store_.ReadRawRecord(height, record);
}

// Taking mu_ orders the read after ApplyBlock: a height becomes visible
// only once the block's catalog and index updates have been applied.
uint64_t ChainManager::height() const {
  MutexLock lock(&mu_);
  return store_.num_blocks();
}

Hash256 ChainManager::tip_hash() const {
  MutexLock lock(&mu_);
  return tip_hash_;
}

TransactionId ChainManager::next_tid() const {
  MutexLock lock(&mu_);
  return next_tid_;
}

Status ChainManager::GetHeader(BlockId height, BlockHeader* out) {
  {
    MutexLock lock(&mu_);
    if (!open_) return Status::Aborted("chain not open");
  }
  return store_.ReadHeader(height, out);
}

}  // namespace sebdb
