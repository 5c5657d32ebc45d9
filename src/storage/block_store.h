// Append-only persistent block store (paper §IV-A): blocks are appended to
// segment files (default segment size 256 MB, configurable) and are immutable
// once written. Supports whole-block sequential reads (scan path), header
// reads (thin client) and single-transaction random reads (layered-index
// path), with optional block-level and transaction-level LRU caches
// (§VII-H).
//
// Durability contract (see DESIGN.md §"Durability contract"): recovery
// CRC-validates every record; a torn or corrupt suffix of the *tail* segment
// is truncated away (self-healing, the writer resumes at the last valid
// record), while corruption in any non-tail segment refuses to open — unless
// degraded_open is set, in which case the defective segment and everything
// after it are quarantined (set aside as .quar files) and the store serves
// the verified prefix while a repair orchestrator re-fetches the missing
// blocks from peers (DESIGN.md §12).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/block.h"
#include "storage/file.h"

namespace sebdb {

/// A digest of the record layout the store had at some earlier moment (a
/// checkpoint): per segment, in order, the payload length of every frame.
/// Frames are back-to-back from offset 0, so lengths alone reconstruct every
/// Location arithmetically — recovery can adopt the prefix after cheap size
/// checks plus one CRC spot-check instead of re-reading gigabytes of chain.
/// Any inconsistency falls back to the full validating scan.
struct TrustedPrefix {
  /// segments[s] = payload lengths of segment s's records, append order.
  std::vector<std::vector<uint32_t>> segments;

  uint64_t num_records() const {
    uint64_t n = 0;
    for (const auto& seg : segments) n += seg.size();
    return n;
  }

  void EncodeTo(std::string* dst) const;
  static bool DecodeFrom(Slice* in, TrustedPrefix* out);
};

struct BlockStoreOptions {
  /// Maximum bytes per segment file before rolling to a new one.
  uint64_t segment_size = 256ull << 20;
  /// Block cache capacity in bytes; 0 disables it.
  uint64_t block_cache_bytes = 0;
  /// Transaction cache capacity in bytes; 0 disables it.
  uint64_t transaction_cache_bytes = 0;
  /// fdatasync after every append (off by default; benches measure I/O
  /// pattern, not fsync latency).
  bool sync_on_append = false;
  /// File system to use; nullptr means Env::Default(). Tests plug a
  /// FaultInjectionEnv here.
  Env* env = nullptr;
  /// When set, Open first tries to adopt this layout digest (from the latest
  /// index checkpoint) instead of scanning: earlier segments are verified by
  /// size, the last trusted record by CRC, and only bytes past the prefix
  /// are scanned. Must outlive Open. Mismatch → silent full-scan fallback.
  const TrustedPrefix* trusted_prefix = nullptr;
  /// Degraded open: corruption in a non-tail segment no longer refuses to
  /// open. The defective byte range and every later segment are quarantined
  /// (copied to seg_NNNNNN.blk.quar for post-mortem, then dropped from the
  /// live chain) and the store serves the verified prefix; a peer-assisted
  /// repair path re-appends the missing blocks (DESIGN.md §12). Off by
  /// default so standalone stores keep the refuse-to-open contract.
  bool degraded_open = false;
};

/// Cumulative I/O counters; disk "seeks" count distinct pread/append block
/// accesses (the t_S term of the paper's cost model), bytes the t_T term.
struct StorageStats {
  std::atomic<uint64_t> blocks_read{0};
  std::atomic<uint64_t> headers_read{0};
  std::atomic<uint64_t> transactions_read{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> blocks_appended{0};
  std::atomic<uint64_t> bytes_appended{0};

  void Reset() {
    blocks_read = 0;
    headers_read = 0;
    transactions_read = 0;
    bytes_read = 0;
    cache_hits = 0;
    blocks_appended = 0;
    bytes_appended = 0;
  }
};

class BlockStore {
 public:
  /// Snapshot of both LRU caches (hits/misses/evictions plus occupancy).
  /// Surfaced through ChainManager and the node startup log; a disabled
  /// cache reports capacity 0 and all-zero counters.
  struct CacheStats {
    uint64_t block_hits = 0;
    uint64_t block_misses = 0;
    uint64_t block_evictions = 0;
    uint64_t block_usage = 0;
    uint64_t block_capacity = 0;
    uint64_t txn_hits = 0;
    uint64_t txn_misses = 0;
    uint64_t txn_evictions = 0;
    uint64_t txn_usage = 0;
    uint64_t txn_capacity = 0;
  };

  /// What the last Open found on disk. Surfaced through ChainManager and
  /// logged by SebdbNode::Start so operators can see self-healing happen.
  struct RecoveryStats {
    uint64_t blocks_recovered = 0;  // valid records found across segments
    uint64_t bytes_truncated = 0;   // torn/corrupt tail bytes dropped
    uint64_t records_dropped = 0;   // whole records lost to tail truncation
    uint64_t blocks_trusted = 0;    // records adopted from a trusted prefix
    uint32_t segments_scanned = 0;
    uint32_t segments_quarantined = 0;  // non-tail segments set aside
    uint64_t bytes_quarantined = 0;     // bytes from the defect to chain end
    bool tail_truncated = false;
    bool used_trusted_prefix = false;
    /// Degraded open took effect: the store serves a verified prefix and the
    /// quarantined remainder must be repaired from peers.
    bool degraded = false;

    bool clean() const { return !tail_truncated && !degraded; }
  };

  BlockStore() = default;
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  /// Opens (creating if needed) the store in `dir`, scanning and
  /// CRC-validating existing segments to rebuild the block location table.
  /// A torn tail is truncated (see RecoveryStats); mid-chain corruption
  /// fails with Status::Corruption.
  Status Open(const BlockStoreOptions& options, const std::string& dir);
  Status Close();

  /// Appends a block; its height must equal num_blocks().
  Status Append(const Block& block);

  /// Appends a pre-encoded block record (peer repair / state-sync splice).
  /// `height` must equal num_blocks(). The caller is responsible for having
  /// verified the payload — decode, Merkle root, and hash-chain linkage —
  /// before splicing; call sites carry a `verify:` marker (lint-enforced).
  Status AppendRaw(BlockId height, const Slice& payload);

  /// Number of blocks stored; block heights are dense in [0, num_blocks()).
  uint64_t num_blocks() const;

  /// Reads a whole block (sequential-scan unit). Serves from the block cache
  /// when enabled.
  Status ReadBlock(BlockId height, std::shared_ptr<const Block>* out);

  /// Batched sequential read of blocks [first, first + count): frames that
  /// are consecutive on disk are fetched with one large pread (readahead)
  /// instead of one pread per block. Serves from / fills the block cache.
  /// `out` is resized to `count`; out[i] is the block at height first + i.
  Status ReadBlocks(BlockId first, uint64_t count,
                    std::vector<std::shared_ptr<const Block>>* out);

  /// Reads only the header of a block.
  Status ReadHeader(BlockId height, BlockHeader* out);

  /// Reads one transaction by (block, position) — the random-read path used
  /// by second-level indices. Serves from the transaction cache, then the
  /// block cache, then performs positional reads against the segment file.
  Status ReadTransaction(BlockId height, uint32_t index,
                         std::shared_ptr<const Transaction>* out);

  /// Raw serialized record of a block (used by gossip block transfer).
  Status ReadRawRecord(BlockId height, std::string* out);

  StorageStats& stats() { return stats_; }
  /// Consistent snapshot of both caches' counters (one lock acquisition per
  /// cache, so hits/misses/usage are mutually coherent).
  CacheStats cache_stats() const EXCLUDES(mu_);
  /// Snapshot of what the last Open found on disk (by value: the stats are
  /// rewritten by a concurrent reopen, so a reference would escape mu_).
  RecoveryStats recovery_stats() const EXCLUDES(mu_);
  /// Digest of the current record layout, for embedding in a checkpoint so
  /// the next Open can skip re-scanning everything below it.
  TrustedPrefix trusted_prefix_snapshot() const EXCLUDES(mu_);
  const std::string& dir() const { return dir_; }

 private:
  struct Location {
    uint32_t segment;
    uint64_t offset;  // of the payload (past the frame header)
    uint32_t length;  // payload length
  };

  Status OpenSegmentForAppend(uint32_t segment_id) REQUIRES(mu_);
  Status RecoverSegments() REQUIRES(mu_);
  bool TryTrustedRecover(const TrustedPrefix& trusted,
                         const std::vector<std::string>& segments)
      REQUIRES(mu_);
  /// `defect_offset`, when non-null, arms degraded handling: a non-tail
  /// defect sets *defect_offset to the end of the valid prefix and returns
  /// OK instead of Corruption (the caller quarantines from there). A null
  /// pointer keeps the strict refuse-to-open behavior.
  Status ScanSegment(uint32_t seg_id, const std::string& name, bool is_tail,
                     uint64_t start_offset, uint64_t* defect_offset)
      REQUIRES(mu_);
  /// Sets aside the chain suffix starting at `defect_offset` in segment
  /// `defect_seg`: copies the defective range and all later segments to
  /// .quar files, truncates the defective segment back to its valid prefix,
  /// and removes the later segments from the live set.
  Status QuarantineSuffix(uint32_t defect_seg, uint64_t defect_offset,
                          const std::vector<std::string>& segments)
      REQUIRES(mu_);
  Status AppendPayload(const Slice& payload) REQUIRES(mu_);
  static Status ReadPayload(const RandomAccessFile& reader, const Location& loc,
                            std::string* out);
  Status ReadAt(uint32_t segment, uint64_t offset, size_t n,
                std::string* out) const EXCLUDES(mu_);
  /// The location of block `height` and its segment's reader, under one
  /// acquisition of mu_.
  Status Locate(BlockId height, Location* loc,
                std::shared_ptr<RandomAccessFile>* reader) const EXCLUDES(mu_);
  std::shared_ptr<RandomAccessFile> Reader(uint32_t segment) const
      REQUIRES(mu_);

  BlockStoreOptions options_;
  Env* env_ = nullptr;
  std::string dir_;
  mutable Mutex mu_;
  std::vector<Location> locations_ GUARDED_BY(mu_);
  AppendOnlyFile writer_ GUARDED_BY(mu_);
  uint32_t active_segment_ GUARDED_BY(mu_) = 0;
  mutable std::vector<std::shared_ptr<RandomAccessFile>> readers_
      GUARDED_BY(mu_);
  // The caches are internally synchronized; the pointers themselves only
  // change in Open/Close.
  std::unique_ptr<LruCache<uint64_t, const Block>> block_cache_;
  std::unique_ptr<LruCache<uint64_t, const Transaction>> txn_cache_;
  StorageStats stats_;  // all-atomic counters
  RecoveryStats recovery_ GUARDED_BY(mu_);
  bool open_ GUARDED_BY(mu_) = false;
  // Set when an append fails partway: the segment tail is in an unknown
  // state, so further appends would land after garbage. Reopen to recover.
  bool wedged_ GUARDED_BY(mu_) = false;
};

}  // namespace sebdb
