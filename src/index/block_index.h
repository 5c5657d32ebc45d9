// Block-level B+-tree (paper §IV-B): keyed by the co-monotone triple
// (bid, tid, Ts). One tree answers three lookups — block by id, block
// containing a transaction id, block covering a timestamp — each via a
// monotone-predicate descent. Entries are appended in order, so leaves stay
// full (the paper's observation).
//
// Persistence: after a restart from a checkpoint, blocks below frozen_end()
// are served from checkpointed disk segments (one immutable DiskBpTree per
// checkpoint delta, faulted through the buffer pool) and everything chained
// since the restart lives in the in-memory tree. The co-monotone trick
// extends across the split: a monotone predicate's boundary segment is found
// from the segments' first keys, then a single disk descent finishes the
// seek (VisitFrom). Entries are ~40 bytes/block, so keeping the in-memory
// tail since restart is a deliberate trade for zero-I/O queries on recent
// blocks.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/bitmap.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/status.h"
#include "index/bptree.h"
#include "storage/block.h"
#include "storage/buffer_manager.h"
#include "storage/disk_bptree.h"

namespace sebdb {

struct BlockIndexKey {
  BlockId bid = 0;
  TransactionId first_tid = 0;
  Timestamp ts = 0;
};

struct BlockIndexEntry {
  BlockId bid = 0;
  TransactionId first_tid = 0;  // tid of the block's first transaction
  uint32_t num_transactions = 0;
  Timestamp ts = 0;  // packaging timestamp
};

struct BlockIndexKeyCmp {
  bool operator()(const BlockIndexKey& a, const BlockIndexKey& b) const {
    return a.bid < b.bid;  // co-monotone with first_tid and ts
  }
};

/// On-disk codec for checkpointed block-index trees.
struct BlockIndexCodec {
  static void EncodeKey(std::string* dst, const BlockIndexKey& k) {
    PutVarint64(dst, k.bid);
    PutVarint64(dst, k.first_tid);
    PutVarSigned64(dst, k.ts);
  }
  static bool DecodeKey(Slice* in, BlockIndexKey* k) {
    return GetVarint64(in, &k->bid) && GetVarint64(in, &k->first_tid) &&
           GetVarSigned64(in, &k->ts);
  }
  static void EncodeVal(std::string* dst, const BlockIndexEntry& e) {
    PutVarint64(dst, e.bid);
    PutVarint64(dst, e.first_tid);
    PutVarint32(dst, e.num_transactions);
    PutVarSigned64(dst, e.ts);
  }
  static bool DecodeVal(Slice* in, BlockIndexEntry* e) {
    return GetVarint64(in, &e->bid) && GetVarint64(in, &e->first_tid) &&
           GetVarint32(in, &e->num_transactions) &&
           GetVarSigned64(in, &e->ts);
  }
};

class BlockIndex {
 public:
  using DiskTree =
      DiskBpTree<BlockIndexKey, BlockIndexEntry, BlockIndexCodec,
                 BlockIndexKeyCmp>;

  /// One checkpoint delta: `entries` consecutive blocks starting at `first`
  /// (the block index holds exactly one entry per block, so the entry count
  /// is the block count). entries == 0 marks a delta written while no new
  /// blocks had arrived.
  struct SegmentRef {
    PageId root = kInvalidPageId;
    uint64_t entries = 0;
    BlockId first = 0;
    BlockIndexKey first_key;  // meaningful when entries > 0
  };

  BlockIndex() : tree_(BlockIndexKeyCmp{}) {}

  /// Appends the entry for a newly chained block; heights must be dense and
  /// ascending. During a block apply this runs as one merge-phase task
  /// under IndexSet::mu_ (DESIGN.md §13) — one task per independent index
  /// structure, so no two tasks touch the same BlockIndex concurrently.
  Status Add(const BlockHeader& header);

  uint64_t num_blocks() const { return frozen_blocks_ + tree_.size(); }
  /// Blocks below this height are served from checkpoint segments.
  uint64_t frozen_end() const { return frozen_blocks_; }

  /// Block with the given id.
  Status FindByBlockId(BlockId bid, BlockIndexEntry* out) const;
  /// Block containing the given global transaction id.
  Status FindByTid(TransactionId tid, BlockIndexEntry* out) const;
  /// First block with packaging timestamp >= ts (NotFound past the tip).
  Status FindFirstAtOrAfter(Timestamp ts, BlockIndexEntry* out) const;

  /// Bitmap over blocks whose timestamp lies in [start, end] (paper
  /// Algorithms 1–3, line "B <- BI(c, e)"). I/O errors against checkpoint
  /// segments degrade to an empty window for the affected range.
  Bitmap BlocksInWindow(Timestamp start, Timestamp end) const;

  int tree_height() const { return tree_.height(); }

  // --- checkpoint protocol (driven by IndexSet; single-threaded) ---

  /// Blocks covered by adopted deltas (the next delta starts here). Unlike
  /// frozen_end(), advances on every AdoptFrozen — the in-memory tree keeps
  /// covering adopted blocks until a restore.
  uint64_t persisted_end() const;

  /// Streams the entries of blocks [persisted_end(), up_to) into `file` as
  /// one tree and describes it in *ref. Pure write; no index state changes.
  Status WriteFrozenDelta(BufferManager* pool, BufferManager::FileId file,
                          uint64_t up_to, SegmentRef* ref) const;

  /// Records a published delta for future EncodeCheckpointState calls. The
  /// in-memory tree keeps covering the blocks (cheap, and keeps recent-block
  /// queries I/O-free); the segment only goes live on the next restore.
  void AdoptFrozen(const SegmentRef& ref);

  /// Serializes every adopted segment ref (+ the pending one, if any) and
  /// the monotonicity cursors. Segment file names are tracked by the caller
  /// in the same order.
  void EncodeCheckpointState(const SegmentRef* pending,
                             std::string* dst) const;

  /// Rebuilds from a checkpoint: files[i] backs the i-th encoded segment.
  /// All checkpointed blocks come back frozen; the tail replay refills the
  /// in-memory tree above them.
  Status RestoreCheckpoint(BufferManager* pool,
                           std::vector<BufferManager::FileId> files,
                           Slice state);

 private:
  struct LiveSegment {
    BufferManager::FileId file = BufferManager::kInvalidFileId;
    SegmentRef ref;
  };
  using MemTree = BpTree<BlockIndexKey, BlockIndexEntry, BlockIndexKeyCmp>;

  /// Visits entries in key order starting from the first one satisfying the
  /// monotone predicate, across segments and the in-memory tail, until
  /// `visit` returns false.
  Status VisitFrom(
      const std::function<bool(const BlockIndexKey&)>& pred,
      const std::function<bool(const BlockIndexEntry&)>& visit) const;

  BufferManager* pool_ = nullptr;
  std::vector<LiveSegment> segments_;  // non-empty deltas, installed at restore
  uint64_t frozen_blocks_ = 0;         // blocks covered by segments_
  std::vector<SegmentRef> adopted_;    // every delta, checkpoint order
  MemTree tree_;                       // blocks [frozen_blocks_, num_blocks())
  Timestamp last_ts_ = INT64_MIN;
  TransactionId next_tid_ = 0;
};

}  // namespace sebdb
