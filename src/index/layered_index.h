// Layered index (paper §IV-B, Fig. 4). Two levels:
//   1. per-block summaries of the indexed attribute's values — for a
//      continuous attribute, a bitmap over the buckets of an equal-depth
//      histogram; for a discrete attribute, one bitmap over blocks per value;
//   2. one sorted (value, position) sequence per block on the attribute,
//      built once when the block is chained and never changed.
// A range query ANDs the query's bucket bitmap against each block entry to
// filter blocks, then searches the surviving blocks' second levels.
//
// Created on an application-level column of one table (range/point queries),
// or on a system-level column (SenID / Tname) across all tables (tracking
// queries).
//
// A block's second level has exactly two forms. Blocks below frozen_end()
// keep theirs as bulk-loaded B+-tree pages in checkpoint files (immutable
// DiskBpTrees, walked in place through a BufferManager); blocks above it —
// chained since the last checkpoint — keep the immutable sorted run their
// merge produced. One Cursor reads both, so probes (SearchBlock, the SQL
// layer's position probe) and the merge joins share one path. The first level (bitmaps, histogram) always
// stays in memory and is serialized wholesale into each checkpoint's meta
// blob (EncodeCheckpointState / RestoreCheckpoint). Checkpointing streams
// the runs of the blocks frozen since the previous checkpoint into one
// delta file (WriteFrozenDelta), and after the manifest publishes,
// AdoptFrozen swaps those runs for their disk refs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/bitmap.h"
#include "common/status.h"
#include "index/histogram.h"
#include "index/index_codec.h"
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
};

class LayeredIndex {
 public:
  struct ValueCmp {
    bool operator()(const Value& a, const Value& b) const {
      return a.CompareTotal(b) < 0;
    }
  };
  /// A tail block's second level: (attribute value, position in block)
  /// sorted by value, then position — the order a checkpoint writes.
  using SortedRun = std::vector<std::pair<Value, uint32_t>>;
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

  /// Walks one block's second level in (value, position) order, from a
  /// tail block's sorted run or in place over a frozen block's pages. It
  /// keeps alive what it reads (the run, or the current leaf's page), so it
  /// stays valid while checkpoints adopt or the pool evicts.
  class Cursor {
   public:
    bool Valid() const {
      return run_ != nullptr ? pos_ < run_->size() : disk_.Valid();
    }
    const Value& key() const {
      return run_ != nullptr ? (*run_)[pos_].first : disk_.key();
    }
    uint32_t value() const {
      return run_ != nullptr ? (*run_)[pos_].second : disk_.value();
    }
    void Next() {
      if (run_ != nullptr) {
        pos_++;
      } else {
        disk_.Next();
        Settle();
      }
    }
    /// OK while walking and at a clean end. Reports I/O and decode errors,
    /// and Corruption when a frozen tree walked from its first entry ends
    /// after a count other than the one its checkpoint recorded.
    const Status& status() const { return status_; }

   private:
    friend class LayeredIndex;
    // Settles after each step of disk_: counts a yielded entry, or at the
    // end takes the iterator's status and checks the entry count.
    void Settle();

    std::shared_ptr<const SortedRun> run_;  // tail block; null when frozen
    size_t pos_ = 0;
    DiskTree::Iterator disk_;  // frozen block
    BlockId bid_ = 0;
    bool from_start_ = false;  // walking from the first entry: check count
    uint64_t expected_ = 0;
    uint64_t yielded_ = 0;
    Status status_;
  };

  LayeredIndex(std::string name, LayeredIndexOptions options,
               ColumnExtractor extractor)
      : name_(std::move(name)),
        options_(options),
        extractor_(std::move(extractor)) {}

  const std::string& name() const { return name_; }
  const LayeredIndexOptions& options() const { return options_; }

  /// Installs the histogram (continuous indexes only; required before the
  /// first AddBlock). Typically built by sampling historical transactions.
  Status SetHistogram(EqualDepthHistogram histogram);
  const EqualDepthHistogram& histogram() const { return histogram_; }

  /// Indexes a newly chained block: appends the first-level entry and the
  /// block's sorted second-level run. Blocks must arrive in order.
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
  /// gathers. Sorting, histogram bootstrap and the first-level update all
  /// happen here, so AddBlock and IndexSet::ApplyBlock share one
  /// deterministic code path and produce byte-identical state.
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

  /// A cursor over block `bid`'s second level at its first entry with value
  /// >= *lo (at its first entry when lo is null). InvalidArgument status
  /// when the block is not indexed yet; not Valid() when it holds no
  /// entries.
  Cursor Seek(BlockId bid, const Value* lo) const;

  /// Second-level search in one block: appends the positions whose value
  /// lies in [lo, hi] (a null bound is open) to *out, in (value, position)
  /// order.
  Status SearchBlock(BlockId bid, const Value* lo, const Value* hi,
                     std::vector<uint32_t>* out) const;

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

  /// Streams the runs of blocks [frozen_end(), up_to) into `file` (one tree
  /// builder per non-empty block) and returns their refs, with file_ordinal
  /// pre-assigned to the slot the file will occupy after AdoptFrozen. Pure
  /// write: no index state changes (the checkpoint may still fail).
  Status WriteFrozenDelta(BufferManager* pool, BufferManager::FileId file,
                          uint64_t up_to, std::vector<FrozenTreeRef>* refs);

  /// Commits a published delta: registers `file`, records the refs, and
  /// drops the now-frozen blocks' in-memory runs (the memory bound that
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

  // Second level, tail part: sorted runs of blocks chained since the last
  // checkpoint; tail_[i] belongs to block frozen_end() + i (nullptr when
  // the block holds no entries).
  std::vector<std::shared_ptr<const SortedRun>> tail_;

  uint64_t num_blocks_ = 0;
  size_t total_entries_ = 0;
};

}  // namespace sebdb
