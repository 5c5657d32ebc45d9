// All indices of one node, updated together as blocks are chained
// (paper §IV-B): the block-level B+-tree, the table-level bitmap index, the
// two system-wide discrete layered indices on SenID and Tname that power
// TRACE, any user-created per-column layered indices, and one authenticated
// layered index (ALI, paper §VI) over each of those layered indices for
// thin-client queries. An ALI reads its layered index's first level for
// candidate blocks and adds only a per-block MB-tree root.
//
// The IndexSet is also the checkpoint unit: WriteCheckpoint streams every
// index's new-blocks delta into fresh page files and encodes one meta blob;
// after the manifest publishes, AdoptCheckpoint commits the deltas (dropping
// the frozen blocks' in-memory runs); RestoreCheckpoint rebuilds a fresh
// IndexSet from a published checkpoint's files + meta. The meta holds each
// layered index's first level once, followed by its ALI's root list.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "auth/ali.h"
#include "common/env.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "index/bitmap_index.h"
#include "index/block_index.h"
#include "common/thread_pool.h"
#include "index/layered_index.h"
#include "storage/block_store.h"
#include "storage/buffer_manager.h"
#include "storage/checkpoint.h"

namespace sebdb {

struct IndexSetOptions {
  /// Buckets of the equal-depth histogram for continuous layered indices
  /// (the paper sets "the depth of histogram" to 100).
  size_t histogram_buckets = 100;
  /// Sample cap when backfilling a histogram from existing blocks.
  size_t histogram_sample_limit = 100000;
  /// When set, user-created indices are recorded here and recreated on the
  /// next open (before chain replay), so CREATE INDEX survives restarts.
  /// A record carries the histogram sampled at creation, so a re-created
  /// continuous index draws the same candidate bitmaps and ALI digests.
  std::string manifest_path;
  /// File system for the manifest. nullptr means Env::Default(); tests plug
  /// a FaultInjectionEnv.
  Env* env = nullptr;
};

/// In-flight checkpoint: files staged by WriteCheckpoint, waiting for the
/// manifest to publish. Opaque bookkeeping handed back to AdoptCheckpoint
/// (success) or AbortCheckpoint (failed publish).
struct PendingIndexCheckpoint {
  struct Delta {
    enum Target { kBlockIndex, kSenid, kTname, kUser };
    Target target = kUser;
    std::string table, column;  // target == kUser only
    std::string name;           // file name, relative to the checkpoint dir
    BufferManager::FileId file = BufferManager::kInvalidFileId;
    BlockIndex::SegmentRef bidx_ref;               // target == kBlockIndex
    std::vector<LayeredIndex::FrozenTreeRef> refs;  // layered targets
  };
  uint64_t height = 0;
  std::vector<Delta> deltas;
};

class IndexSet {
 public:
  /// `store` is used only to backfill when an index is created after blocks
  /// already exist; may be nullptr if indices always precede data.
  IndexSet(BlockStore* store, IndexSetOptions options = IndexSetOptions());

  /// Indexes a newly chained block in every structure (DESIGN.md §13). Must
  /// be called once per block, in height order. SEBDB transactions append
  /// tuples and read no state, so the whole block is one parallel pass:
  ///
  /// Extract: one ParallelFor over the transactions computes each one's
  /// value for every layered index and, when any index covers it, the
  /// SHA-256 of its encoded record (the MB-tree leaf), shared by every ALI.
  /// The record itself is not kept: ALIs store MB-tree roots only.
  /// Each transaction writes only its own slot.
  ///
  /// Merge: every structure ingests the slots in block order
  /// (MergeTxnDeltas) — one task per layered index, and one per ALI that
  /// computes only its root; independent structures fan out across the
  /// pool. The merge is deterministic, so bitmaps, trees, MB roots and
  /// histograms are byte-identical for any pool size — a nullptr pool runs
  /// the same code serially.
  Status ApplyBlock(const Block& block, ThreadPool* pool)
      EXCLUDES(apply_mu_, mu_);

  /// The apply lock (DESIGN.md §9). Index contents change only while it is
  /// held exclusive — ApplyBlock, AdoptCheckpoint, RestoreCheckpoint and
  /// CreateLayeredIndex take it so themselves — and a reader holds it shared
  /// once around one whole read: an Executor read statement, or one ALI
  /// prove or digest. Never per block probe (a range query probes thousands
  /// of blocks), never twice on one thread (a shared re-acquire deadlocks
  /// behind a waiting apply), and never around CREATE INDEX.
  SharedMutex* apply_mutex() const RETURN_CAPABILITY(apply_mu_) {
    return &apply_mu_;
  }

  uint64_t num_blocks() const;

  const BlockIndex& block_index() const { return block_index_; }
  const TableBitmapIndex& table_index() const { return table_index_; }

  /// System-wide layered indices (discrete, spanning all tables).
  LayeredIndex* senid_index() { return senid_index_.get(); }
  LayeredIndex* tname_index() { return tname_index_.get(); }
  AuthenticatedLayeredIndex* senid_ali() { return senid_ali_.get(); }
  AuthenticatedLayeredIndex* tname_ali() { return tname_ali_.get(); }

  /// Creates a layered index on table.column, where `schema_column_index` is
  /// the column's position in the table schema (resolved by the caller from
  /// the catalog; must be an application-level column). When blocks already
  /// exist the index is backfilled: a first pass samples values for the
  /// histogram (continuous only), a second pass indexes every block. When
  /// the manifest record cannot be written durably, returns that error and
  /// registers nothing.
  Status CreateLayeredIndex(const std::string& table,
                            const std::string& column,
                            int schema_column_index, bool discrete)
      EXCLUDES(apply_mu_, mu_);

  /// nullptr when no such index exists.
  LayeredIndex* GetLayered(const std::string& table,
                           const std::string& column);
  AuthenticatedLayeredIndex* GetAli(const std::string& table,
                                    const std::string& column);
  bool HasLayered(const std::string& table, const std::string& column) const;

  // --- checkpoint protocol (driven by ChainManager under its commit lock) --

  /// Phase 1: streams every index's delta of blocks chained since the last
  /// checkpoint into fresh page files named "<prefix>_<tag>" under `dir`
  /// (through `pool`, flushed and synced), appends them to *files, and
  /// encodes the full index-set meta state (frozen refs + first levels +
  /// ALI root lists + cursors + per-index file lists) into *meta. No index state changes. On
  /// failure the files staged so far stay recorded in *pending — call
  /// AbortCheckpoint.
  Status WriteCheckpoint(BufferManager* pool, const std::string& dir,
                         const std::string& prefix,
                         std::vector<CheckpointFile>* files, std::string* meta,
                         PendingIndexCheckpoint* pending) EXCLUDES(mu_);

  /// Phase 2, after the manifest published: registers the delta files and
  /// drops the now-frozen blocks' in-memory layered trees (the block index
  /// keeps its cheap in-memory tail).
  void AdoptCheckpoint(BufferManager* pool,
                       const PendingIndexCheckpoint& pending)
      EXCLUDES(apply_mu_, mu_);

  /// Abort path for a failed publish: drops the staged files from the pool.
  /// The orphaned on-disk files are garbage-collected at the next
  /// CheckpointManager::Open.
  void AbortCheckpoint(BufferManager* pool,
                       const PendingIndexCheckpoint& pending);

  /// Rebuilds every index from a published checkpoint taken at `height`:
  /// opens each recorded delta file from `dir` through `pool` and restores
  /// the structures to exactly their state at the checkpoint (all blocks
  /// frozen). Requires a fresh IndexSet. Manifest-listed indices the
  /// checkpoint predates are backfilled from the block store over
  /// [0, height). Any error leaves the set unusable — the caller falls back
  /// to a fresh IndexSet and full replay.
  Status RestoreCheckpoint(BufferManager* pool, const std::string& dir,
                           uint64_t height, Slice meta)
      EXCLUDES(apply_mu_, mu_);

 private:
  struct UserIndex {
    std::unique_ptr<LayeredIndex> layered;
    std::unique_ptr<AuthenticatedLayeredIndex> ali;  // over `layered`
    int schema_column_index = 0;
    bool discrete = false;
    /// Continuous only: a backfill samples its histogram from the blocks it
    /// covers. False once the creation-time histogram is known (from the
    /// manifest record), so every re-create reproduces it.
    bool sample_on_backfill = true;
    std::vector<std::string> delta_files;  // checkpoint order
  };

  static ColumnExtractor MakeSystemExtractor(bool sender);
  Env* env() const {
    return options_.env != nullptr ? options_.env : Env::Default();
  }
  AuthenticatedLayeredIndex::BlockLoader MakeBlockLoader() const;
  Status BackfillIndex(UserIndex* index) REQUIRES(mu_);
  /// `recorded` is the manifest's creation-time histogram (empty when the
  /// index had none yet), or nullptr when a backfill is to sample one
  /// (CREATE INDEX, manifest records written before histograms were).
  Status CreateLayeredIndexLocked(const std::string& table,
                                  const std::string& column,
                                  int schema_column_index, bool discrete,
                                  const EqualDepthHistogram* recorded)
      REQUIRES(mu_);
  void LoadManifest() EXCLUDES(mu_);
  Status AppendManifest(const std::string& table, const std::string& column,
                        const UserIndex& index) REQUIRES(mu_);
  Status OpenDeltaFiles(BufferManager* pool, const std::string& dir,
                        Slice* in, std::vector<std::string>* names,
                        std::vector<BufferManager::FileId>* ids);

  BlockStore* store_;
  IndexSetOptions options_;

  // Taken before mu_ by every thread that takes both.
  mutable SharedMutex apply_mu_ ACQUIRED_BEFORE(mu_);
  mutable Mutex mu_;
  // The index structures are pointer-stable: accessors hand out raw
  // pointers (senid_index() & co), so only the containers and counters —
  // not the pointees — are guarded.
  BlockIndex block_index_;
  TableBitmapIndex table_index_;
  std::unique_ptr<LayeredIndex> senid_index_;
  std::unique_ptr<LayeredIndex> tname_index_;
  std::unique_ptr<AuthenticatedLayeredIndex> senid_ali_;
  std::unique_ptr<AuthenticatedLayeredIndex> tname_ali_;
  std::map<std::pair<std::string, std::string>, UserIndex> user_indexes_
      GUARDED_BY(mu_);
  uint64_t num_blocks_ GUARDED_BY(mu_) = 0;

  // Delta file names per structure, checkpoint order (serialized into every
  // checkpoint meta so restore can reopen them).
  std::vector<std::string> bidx_files_ GUARDED_BY(mu_);
  std::vector<std::string> senid_files_ GUARDED_BY(mu_);
  std::vector<std::string> tname_files_ GUARDED_BY(mu_);
};

}  // namespace sebdb
