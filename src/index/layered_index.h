// Layered index (paper §IV-B, Fig. 4). Two levels:
//   1. per-block summaries of the indexed attribute's values — for a
//      continuous attribute, a bitmap over the buckets of an equal-depth
//      histogram; for a discrete attribute, one bitmap over blocks per value;
//   2. one B+-tree per block on the attribute, bulk-loaded when the block is
//      chained (no rebalancing, batch-append friendly).
// A range query ANDs the query's bucket bitmap against each block entry to
// filter blocks, then searches the surviving blocks' trees.
//
// Created on an application-level column of one table (range/point queries),
// or on a system-level column (SenID / Tname) across all tables (tracking
// queries).
//
// Persistence: the second level is hybrid. Blocks below frozen_end() have
// their trees in checkpoint page files (immutable DiskBpTrees, faulted
// through a BufferManager); blocks above it — chained since the last
// checkpoint — keep ordinary in-memory trees. The first level (bitmaps,
// histogram) always stays in memory and is serialized wholesale into each
// checkpoint's meta blob (EncodeCheckpointState / RestoreCheckpoint).
// Checkpointing appends one delta file covering the blocks frozen since the
// previous checkpoint (WriteFrozenDelta), and after the manifest publishes,
// AdoptFrozen swaps those blocks' in-memory trees for their disk refs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bitmap.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "index/bptree.h"
#include "index/histogram.h"
#include "index/index_codec.h"
#include "index/txn_pointer.h"
#include "storage/block.h"
#include "storage/buffer_manager.h"
#include "storage/disk_bptree.h"
#include "types/value.h"

namespace sebdb {

/// Extracts the indexed attribute from a transaction. Returns false when the
/// transaction does not participate in this index (different table).
using ColumnExtractor = std::function<bool(const Transaction&, Value*)>;

struct LayeredIndexOptions {
  /// Discrete attributes get per-value block bitmaps; continuous attributes
  /// get histogram-bucket bitmaps.
  bool discrete = false;
  /// Bucket count of the equal-depth histogram (continuous only). The paper
  /// sets "the depth of histogram" to 100 in the range-query experiments.
  size_t histogram_buckets = 100;
  /// Byte budget for in-memory trees materialized from frozen blocks (the
  /// merge-join path needs whole trees). 0 disables caching (each request
  /// rebuilds).
  uint64_t materialized_cache_bytes = 8ull << 20;
};

class LayeredIndex {
 public:
  struct ValueCmp {
    bool operator()(const Value& a, const Value& b) const {
      return a.CompareTotal(b) < 0;
    }
  };
  /// Per-block second level: attribute value -> position in block.
  using SecondLevelTree = BpTree<Value, uint32_t, ValueCmp>;
  using DiskTree = DiskBpTree<Value, uint32_t, ValuePosCodec, ValueCmp>;

  /// Where a frozen block's tree lives: which delta file (ordinal into the
  /// checkpoint's file list for this index) and which root page. A block
  /// with no indexed entries has file_ordinal == kNoTree.
  struct FrozenTreeRef {
    static constexpr uint32_t kNoTree = 0xFFFFFFFFu;
    uint32_t file_ordinal = kNoTree;
    PageId root = kInvalidPageId;
    uint64_t entries = 0;
  };

  LayeredIndex(std::string name, LayeredIndexOptions options,
               ColumnExtractor extractor)
      : name_(std::move(name)),
        options_(options),
        extractor_(std::move(extractor)) {
    // Built up front, never lazily: Tree() is const and runs concurrently
    // from parallel join workers.
    if (options_.materialized_cache_bytes > 0) {
      materialized_ =
          std::make_unique<LruCache<uint64_t, const SecondLevelTree>>(
              options_.materialized_cache_bytes);
    }
  }

  const std::string& name() const { return name_; }
  const LayeredIndexOptions& options() const { return options_; }

  /// Installs the histogram (continuous indexes only; required before the
  /// first AddBlock). Typically built by sampling historical transactions.
  Status SetHistogram(EqualDepthHistogram histogram);
  const EqualDepthHistogram& histogram() const { return histogram_; }

  /// Indexes a newly chained block: appends the first-level entry and
  /// bulk-loads the block's second-level tree. Blocks must arrive in order.
  /// Extraction + MergeTxnDeltas; IndexSet::ApplyBlock runs the two halves
  /// as separate parallel phases.
  Status AddBlock(const Block& block);

  /// The installed extractor. The parallel apply pipeline's extract phase
  /// runs it off-index into per-transaction delta slots, so the merge step
  /// can ingest a block without re-touching the transactions.
  const ColumnExtractor& extractor() const { return extractor_; }

  /// Merge step of the parallel apply pipeline: ingests one block from
  /// pre-extracted (value, block position) pairs, which MUST be in block
  /// position (= original transaction) order — exactly what AddBlock
  /// gathers. Sorting, histogram bootstrap, first-level update and the
  /// bulk-load all happen here, so AddBlock and IndexSet::ApplyBlock share
  /// one deterministic code path and produce byte-identical state.
  Status MergeTxnDeltas(uint64_t height,
                        std::vector<std::pair<Value, uint32_t>> entries);

  uint64_t num_blocks() const { return num_blocks_; }
  /// Blocks below this height are disk-backed; at or above, in memory.
  uint64_t frozen_end() const { return frozen_.size(); }

  /// First-level filter: bitmap over blocks that may contain values in
  /// [lo, hi] (either bound may be null for unbounded; lo == hi for point).
  Bitmap CandidateBlocks(const Value* lo, const Value* hi) const;

  /// Bitmap of blocks that contain at least one indexed entry.
  Bitmap BlocksWithEntries() const;

  /// Second-level search in one block; appends matching positions to *out in
  /// attribute order. Frozen blocks are searched directly on their disk
  /// trees (no materialization).
  Status SearchBlock(BlockId bid, const Value* lo, const Value* hi,
                     std::vector<TxnPointer>* out) const;

  /// The block's second-level tree, materializing (and caching) it from disk
  /// for frozen blocks. *out is nullptr when the block holds no entries.
  /// Leaf order is attribute order — what the sort-merge joins exploit.
  Status Tree(BlockId bid, std::shared_ptr<const SecondLevelTree>* out) const;

  /// First-level bucket bitmap of one block (continuous only; empty bitmap
  /// if the block holds no entries). Used by the join intersect() tests.
  const Bitmap* BlockBuckets(BlockId bid) const;

  /// Discrete only: blocks containing the exact value.
  Bitmap BlocksWithValue(const Value& v) const;

  /// Discrete only: the full first level, value -> blocks containing it.
  /// (The discrete on-chain join iterates common values; paper Alg. 2.)
  const std::map<Value, Bitmap, ValueCmp>& discrete_values() const {
    return value_blocks_;
  }

  /// Approximate memory footprint (reported by index stats).
  size_t ApproximateEntryCount() const { return total_entries_; }

  // --- checkpoint protocol (driven by IndexSet; single-threaded) ---

  /// Streams the trees of blocks [frozen_end(), up_to) into `file` (one
  /// builder per non-empty block) and returns their refs, with file_ordinal
  /// pre-assigned to the slot the file will occupy after AdoptFrozen. Pure
  /// write: no index state changes (the checkpoint may still fail).
  Status WriteFrozenDelta(BufferManager* pool, BufferManager::FileId file,
                          uint64_t up_to, std::vector<FrozenTreeRef>* refs);

  /// Commits a published delta: registers `file`, records the refs, and
  /// drops the now-frozen blocks' in-memory trees (the memory bound that
  /// makes long-lived nodes viable). `refs` must be WriteFrozenDelta's.
  void AdoptFrozen(BufferManager* pool, BufferManager::FileId file,
                   const std::vector<FrozenTreeRef>& refs);

  /// Serializes the first level + frozen refs, where `pending` are refs not
  /// yet adopted (from an in-flight WriteFrozenDelta; frozen refs + pending
  /// must cover every indexed block, i.e. checkpoints snapshot the tip).
  void EncodeCheckpointState(const std::vector<FrozenTreeRef>& pending,
                             std::string* dst) const;

  /// Rebuilds from a checkpoint: `files` are the index's delta files in
  /// ordinal order (already opened in `pool`), `state` is what
  /// EncodeCheckpointState produced at the checkpoint height. The index
  /// resumes with every checkpointed block frozen and an empty tail.
  Status RestoreCheckpoint(BufferManager* pool,
                           std::vector<BufferManager::FileId> files,
                           Slice state);

 private:
  Status DecodeFirstLevel(Slice* in);
  void EncodeFirstLevel(std::string* dst) const;
  DiskTree FrozenTree(const FrozenTreeRef& ref) const;

  std::string name_;
  LayeredIndexOptions options_;
  ColumnExtractor extractor_;
  EqualDepthHistogram histogram_;
  bool histogram_set_ = false;

  // First level. Continuous: block -> bucket bitmap. Discrete: value ->
  // block bitmap.
  std::vector<Bitmap> block_buckets_;
  std::map<Value, Bitmap, ValueCmp> value_blocks_;

  // Second level, frozen part: frozen_[bid] locates block bid's disk tree
  // inside tree_files_. Grown only by RestoreCheckpoint/AdoptFrozen.
  BufferManager* pool_ = nullptr;
  std::vector<BufferManager::FileId> tree_files_;
  std::vector<FrozenTreeRef> frozen_;

  // Second level, tail part: in-memory trees of blocks chained since the
  // last checkpoint; block_trees_[i] belongs to block frozen_end() + i
  // (nullptr when the block holds no entries).
  std::vector<std::shared_ptr<SecondLevelTree>> block_trees_;

  // Frozen trees materialized back into memory for merge joins, keyed by
  // block id, charged by decoded bytes (internally synchronized); nullptr
  // when materialized_cache_bytes == 0.
  std::unique_ptr<LruCache<uint64_t, const SecondLevelTree>> materialized_;

  uint64_t num_blocks_ = 0;
  size_t total_entries_ = 0;
};

}  // namespace sebdb
