// ChainManager: the node's authoritative chain state. Owns the block store,
// the index set and the catalog; turns committed consensus batches into
// blocks (assigning tids, linking prev hashes), validates and applies blocks
// received via gossip, and replays the persisted chain on recovery so
// indexes and catalog are rebuilt.
//
// Recovery is tail-only when a checkpoint exists: Open loads the newest
// usable checkpoint (catalog + every index restored from page files, the
// block store's own scan skipped via the checkpointed trusted prefix) and
// replays only the blocks above the checkpoint height. Any restore failure
// — torn files, version drift, corrupted meta — silently falls back to the
// seed behavior: full scan + full replay. Checkpoints are written through a
// BufferManager into <dir>/checkpoints and published via the shadow-paging
// CheckpointManager manifest (see DESIGN.md §11).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/sha256.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/signer.h"
#include "sql/catalog.h"
#include "sql/index_set.h"
#include "storage/block_store.h"
#include "storage/buffer_manager.h"
#include "storage/checkpoint.h"

namespace sebdb {

struct CheckpointPolicy {
  /// Write a checkpoint every this many newly chained blocks. 0 disables
  /// periodic checkpoints (manual WriteCheckpoint still works).
  uint64_t interval_blocks = 0;
  /// Buffer pool budget for checkpoint page files (both building and
  /// query-time faults of frozen index pages).
  uint64_t pool_bytes = 64ull << 20;
  /// Also write a final checkpoint in Close() when blocks were chained
  /// since the last one, so a clean shutdown restarts tail-free.
  bool checkpoint_on_close = false;
};

struct ChainOptions {
  BlockStoreOptions store;
  IndexSetOptions indexes;
  CheckpointPolicy checkpoint;
  /// Verify every transaction signature when applying foreign blocks.
  bool verify_signatures = true;
  /// Worker pool for parallel startup replay, concurrent signature
  /// verification and block apply; nullptr runs all three serially.
  /// SebdbNode defaults this to ThreadPool::Default() (see
  /// DefaultNodeChainOptions).
  ThreadPool* pool = nullptr;
};

class ChainManager {
 public:
  /// `keystore` may be nullptr to skip signature verification.
  ChainManager(std::string node_id, const KeyStore* keystore)
      : node_id_(std::move(node_id)), keystore_(keystore) {}

  /// Opens the store in `dir`; writes the genesis block when empty, replays
  /// all persisted blocks into the indexes and catalog otherwise.
  Status Open(const ChainOptions& options, const std::string& dir);
  Status Close();

  /// Packages a committed batch as the next block and applies it. `seq` is
  /// the consensus sequence (block height seq + 1; genesis is height 0).
  /// The packager is identified by `packager_signature` (its signature over
  /// the batch digest, carried in the block body); a separate packager-id
  /// parameter existed once but was never recorded, so it is gone.
  Status AppendBatch(uint64_t seq, std::vector<Transaction> txns,
                     Timestamp timestamp,
                     const std::string& packager_signature);

  /// Gossip path: decodes, validates (height, prev hash, merkle root, block
  /// hash, optionally every signature) and applies a serialized block.
  /// Blocks from the future are rejected with InvalidArgument (the caller
  /// pulls the gap first); stale heights are OK no-ops.
  Status ApplyBlockRecord(BlockId height, const std::string& record);

  /// Raw record for gossip transfer.
  Status GetBlockRecord(BlockId height, std::string* record);

  uint64_t height() const;  // number of blocks, genesis included
  Hash256 tip_hash() const;
  TransactionId next_tid() const;

  Status GetHeader(BlockId height, BlockHeader* out);

  BlockStore* store() { return &store_; }
  IndexSet* indexes() { return indexes_.get(); }
  Catalog* catalog() { return &catalog_; }

  /// What the last Open found on disk (torn-tail truncation, records
  /// recovered, quarantined segments); see BlockStore::RecoveryStats. A
  /// value snapshot. Degraded-open facts survive the checkpoint→full-replay
  /// fallback, which reopens the store and would otherwise report a clean
  /// second open.
  BlockStore::RecoveryStats recovery_stats() const EXCLUDES(mu_);

  /// Block/transaction cache counters (hits, misses, evictions, occupancy).
  BlockStore::CacheStats cache_stats() const { return store_.cache_stats(); }

  /// How the last Open brought the node back to serving: from a checkpoint
  /// (tail-only replay) or a full rebuild. A value snapshot.
  struct StartupStats {
    bool from_checkpoint = false;
    uint64_t checkpoint_height = 0;  // blocks restored without replay
    uint64_t replayed_blocks = 0;    // blocks fed through ApplyBlock
  };
  StartupStats startup_stats() const;

  /// Checkpoint page-pool counters (empty when the chain is not open).
  BufferManager::Stats buffer_stats() const;

  /// Number of checkpoints written by this ChainManager since Open.
  uint64_t checkpoints_written() const;

  /// Writes and publishes a checkpoint at the current height (also invoked
  /// by the periodic interval_blocks policy and, optionally, by Close).
  Status WriteCheckpoint() EXCLUDES(mu_);

  // ---- Peer state sync (DESIGN.md §12) ----

  /// Newest published checkpoint plus, per file, the size and SHA-256 of its
  /// zero-run-compressed *transfer image* — the bytes a lagging peer
  /// actually fetches (page files are mostly padding; the wire image is
  /// 10-100x smaller). The hashes bind every chunk the peer later fetches
  /// to exactly this checkpoint before anything is installed: what you hash
  /// is what you ship.
  struct CheckpointDescriptor {
    CheckpointRecord record;
    std::vector<Hash256> file_hashes;       // parallel to record.files,
    std::vector<uint64_t> transfer_sizes;   //   over the transfer image
  };
  Status DescribeCheckpoint(CheckpointDescriptor* out) EXCLUDES(mu_);

  /// Chunk-serving side: reads up to `n` bytes at `offset` of the transfer
  /// image of a file of the newest published checkpoint (the same
  /// compressed image DescribeCheckpoint hashed — recompressed per call;
  /// checkpoint files are immutable once published, so the image is
  /// deterministic). Anything not listed in the latest record is NotFound
  /// (a peer can never read outside the published set).
  Status ReadCheckpointTransfer(const std::string& name, uint64_t offset,
                                uint64_t n, std::string* out) EXCLUDES(mu_);

  /// A complete peer checkpoint plus the bridge of raw block records from
  /// the local tip to the checkpoint height: files[i] holds the full
  /// contents of record.files[i]; blocks[j] is the record of height
  /// first_height + j, and the range must cover [local tip, record.height).
  struct StateSyncPackage {
    CheckpointRecord record;
    std::vector<std::string> files;
    BlockId first_height = 0;
    std::vector<std::string> blocks;
  };

  struct StateSyncStats {
    uint64_t installs = 0;          // peer checkpoints installed
    uint64_t fallbacks = 0;         // failed installs recovered by replay
    uint64_t blocks_spliced = 0;    // verified bridge records appended raw
    uint64_t installed_height = 0;  // height of the newest install
  };

  /// Installs a peer checkpoint (state sync): verifies and splices the
  /// bridge blocks (decode + Merkle + hash-chain link from the local tip,
  /// optionally signatures), replaces the local checkpoint directory with
  /// the package contents, and restores catalog + indexes through the same
  /// RestoreCheckpoint path a restart uses — catch-up work is
  /// O(checkpoint + bridge), not O(gap replay). On any failure past the
  /// up-front validation the chain recovers to a consistent state (spliced
  /// blocks are replayed into the live indexes, or everything is rebuilt)
  /// and the original error returns. Callers must have hash-bound the
  /// package bytes to the offering peer's descriptor (lint: `verify:`).
  Status InstallStateSync(const StateSyncPackage& pkg) EXCLUDES(mu_);
  StateSyncStats state_sync_stats() const EXCLUDES(mu_);

 private:
  Status ApplyBlock(const Block& block) REQUIRES(mu_);  // index + catalog
  /// Recovery replay of heights [from, n): block reads (readahead-batched)
  /// and Merkle validation fan out across the pool one chunk ahead of the
  /// strictly height-ordered index/catalog apply.
  Status ReplayChain(uint64_t from, uint64_t n) REQUIRES(mu_);
  // chain_checkpoint.cc
  Status OpenFromCheckpoint(const CheckpointRecord& rec,
                            const IndexSetOptions& index_options,
                            const std::string& dir) REQUIRES(mu_);
  Status WriteCheckpointLocked() REQUIRES(mu_);
  void MaybeCheckpointLocked() REQUIRES(mu_);
  /// Re-syncs indexes/cursors with bridge records spliced before a state
  /// sync failed (they are verified chain extensions — kept, not dropped),
  /// then returns `cause`.
  Status RecoverSpliceLocked(uint64_t from, const Status& cause)
      REQUIRES(mu_);
  /// Full local rebuild (fresh pool + indexes, replay from genesis) after a
  /// state-sync install failed mid-way; returns `cause` when the rebuild
  /// itself succeeds.
  Status RebuildAfterFailedInstallLocked(const Status& cause) REQUIRES(mu_);

  const std::string node_id_;
  const KeyStore* keystore_;
  ChainOptions options_;
  IndexSetOptions index_options_;  // resolved at Open; reused by state sync

  mutable Mutex mu_;
  // store_/indexes_/catalog_/pool_ are internally synchronized; mu_
  // serializes chain mutations (append/apply/replay/checkpoint) and guards
  // the chain-tip state.
  BlockStore store_;
  std::unique_ptr<IndexSet> indexes_;
  Catalog catalog_;
  std::unique_ptr<BufferManager> pool_;
  std::unique_ptr<CheckpointManager> ckpt_ GUARDED_BY(mu_);
  StartupStats startup_ GUARDED_BY(mu_);
  uint64_t last_checkpoint_height_ GUARDED_BY(mu_) = 0;
  uint64_t checkpoints_written_ GUARDED_BY(mu_) = 0;
  Hash256 tip_hash_ GUARDED_BY(mu_);
  Timestamp last_ts_ GUARDED_BY(mu_) = 0;
  TransactionId next_tid_ GUARDED_BY(mu_) = 1;
  bool open_ GUARDED_BY(mu_) = false;
  // Superseded index sets + pools stay alive until the next Open: executors
  // hold raw IndexSet*/page references, and queries in flight when a state
  // sync swaps in the restored state may still be walking the old one.
  struct RetiredState {
    std::unique_ptr<IndexSet> indexes;
    std::unique_ptr<BufferManager> pool;
  };
  std::vector<RetiredState> retired_ GUARDED_BY(mu_);
  StateSyncStats state_sync_ GUARDED_BY(mu_);
  // First-open recovery stats when that open went degraded but a later
  // fallback reopened the store cleanly (see recovery_stats()).
  BlockStore::RecoveryStats degraded_carry_ GUARDED_BY(mu_);
};

}  // namespace sebdb
