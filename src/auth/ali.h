// ALI — Authenticated Layered Index (paper §VI): the layered index with its
// per-block second-level B+-trees replaced by MB-trees, plus the two-phase
// authenticated query protocol:
//   phase 1: a full node answers a query with one VO per visited block and
//            the chain height h it executed at;
//   phase 2: auxiliary full nodes, given the query and h, re-derive the set
//            of blocks the query must visit and return a digest — the hash
//            of the concatenation of those blocks' MB-tree roots.
// The client reconstructs each block's root from its VO, recomputes the
// digest, and accepts when enough auxiliary digests match (credibility
// Eqs. 4–6).
//
// Memory: MB-trees are deterministic functions of their block's
// transactions, so the index keeps only each block's root hash (32 bytes).
// Apply computes the root from the record hashes without building a tree;
// a query's Tree() rebuilds the block's MB-tree on demand from the raw block
// (via the installed BlockLoader), verifies it against the recorded root,
// and LRU-caches it. Checkpoints therefore carry only the root list.
// Digests (phase 2) need only the stored roots, so auxiliary nodes answer
// without touching raw blocks at all.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "auth/mbtree.h"
#include "common/bitmap.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "index/layered_index.h"
#include "storage/block.h"

namespace sebdb {

/// Phase-1 response: per visited block, the block id and its range VO.
struct AliBlockProof {
  BlockId block = 0;
  VerificationObject vo;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, AliBlockProof* out);
};

struct AuthQueryResponse {
  /// Chain height the full node executed at (pins the snapshot).
  uint64_t chain_height = 0;
  /// One proof per block the query visited, ascending block order. Blocks
  /// visited but empty of results still get a (emptiness) proof.
  std::vector<AliBlockProof> proofs;

  size_t ByteSize() const;
  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, AuthQueryResponse* out);
};

class AuthenticatedLayeredIndex {
 public:
  /// Fetches a raw block so a checkpointed block's MB-tree can be rebuilt.
  using BlockLoader =
      std::function<Status(BlockId, std::shared_ptr<const Block>*)>;

  AuthenticatedLayeredIndex(std::string name, LayeredIndexOptions options,
                            ColumnExtractor extractor,
                            MbTree::Options mb_options = MbTree::Options());

  const std::string& name() const { return layered_.name(); }

  /// Continuous indexes need the histogram before the first block.
  Status SetHistogram(EqualDepthHistogram histogram);

  /// Required before any block's tree can be built (Tree, ProveRange).
  void SetBlockLoader(BlockLoader loader) { loader_ = std::move(loader); }

  /// Indexes a newly chained block: updates the first level and records
  /// the root of the block's MB-tree over (attribute value, encoded
  /// transaction).
  Status AddBlock(const Block& block);

  /// Merge step of the parallel apply pipeline: ingests one block from
  /// deltas the extract phase prepared — `layered_entries` as
  /// LayeredIndex::MergeTxnDeltas (block position order), and
  /// `record_hashes[i]` the SHA-256 of the encoded transaction behind
  /// `layered_entries[i]`. Stable-sorts by key and records the MB-tree root
  /// (MbTree::ComputeRoot) — the same root AddBlock and a rebuild produce.
  Status MergeTxnDeltas(uint64_t height,
                        std::vector<std::pair<Value, uint32_t>> layered_entries,
                        std::vector<Hash256> record_hashes);

  uint64_t num_blocks() const { return layered_.num_blocks(); }
  const LayeredIndex& layered() const { return layered_; }

  /// Blocks a range query over [lo, hi] must visit, intersected with an
  /// optional time-window bitmap, limited to heights < height_limit.
  Bitmap BlocksToVisit(const Value* lo, const Value* hi, const Bitmap* window,
                       uint64_t height_limit) const;

  /// Root of one block's MB-tree (zero hash if the block holds no entries —
  /// such blocks are never candidates). Served from the stored root list;
  /// never rebuilds.
  Status BlockRoot(BlockId bid, Hash256* out) const;

  /// One block's MB-tree (*out == nullptr when the block holds no indexed
  /// entries). Served from the LRU cache or rebuilt from the raw block and
  /// verified against the recorded root (Corruption on mismatch).
  Status Tree(BlockId bid, std::shared_ptr<const MbTree>* out) const;

  /// Counters of the rebuilt-MB-tree LRU cache (all zero when its budget,
  /// LayeredIndexOptions::materialized_cache_bytes, is zero).
  LruCache<uint64_t, const MbTree>::Stats tree_cache_stats() const {
    return rebuilt_ == nullptr ? LruCache<uint64_t, const MbTree>::Stats{}
                               : rebuilt_->stats();
  }

  /// Phase 1 (full node): executes the range query and assembles the VO set.
  Status ProveRange(const Value* lo, const Value* hi, const Bitmap* window,
                    uint64_t chain_height, AuthQueryResponse* out) const;

  /// Phase 2 (auxiliary node): digest over the roots of the blocks the query
  /// visits at the pinned height: SHA256(root_1 || root_2 || ...).
  Status ComputeDigest(const Value* lo, const Value* hi, const Bitmap* window,
                       uint64_t chain_height, Hash256* digest) const;

  /// Client: verifies a phase-1 response against auxiliary digests. Requires
  /// at least `required_matching` digests equal to the reconstructed one.
  /// On success appends the verified records (encoded transactions).
  static Status VerifyResponse(const AuthQueryResponse& response,
                               const Value* lo, const Value* hi,
                               const RecordKeyFn& key_of,
                               const std::vector<Hash256>& auxiliary_digests,
                               size_t required_matching,
                               std::vector<std::string>* records);

  // --- checkpoint protocol (driven by IndexSet; single-threaded) ---
  // The inner layered index checkpoints exactly like a plain one; the ALI
  // layer adds only the root list to the meta state.

  Status WriteFrozenDelta(BufferManager* pool, BufferManager::FileId file,
                          uint64_t up_to,
                          std::vector<LayeredIndex::FrozenTreeRef>* refs) {
    return layered_.WriteFrozenDelta(pool, file, up_to, refs);
  }

  void AdoptFrozen(BufferManager* pool, BufferManager::FileId file,
                   const std::vector<LayeredIndex::FrozenTreeRef>& refs) {
    layered_.AdoptFrozen(pool, file, refs);
  }

  void EncodeCheckpointState(
      const std::vector<LayeredIndex::FrozenTreeRef>& pending,
      std::string* dst) const;

  Status RestoreCheckpoint(BufferManager* pool,
                           std::vector<BufferManager::FileId> files,
                           Slice state);

 private:
  Status RebuildTree(BlockId bid, std::shared_ptr<const MbTree>* out) const;

  LayeredIndex layered_;
  ColumnExtractor extractor_;
  MbTree::Options mb_options_;
  BlockLoader loader_;

  /// MB-tree root of every indexed block (zero hash = no entries). The
  /// authenticated part of the checkpoint state.
  std::vector<Hash256> roots_;

  /// Rebuilt MB-trees, charged by encoded record bytes (internally
  /// synchronized); nullptr when the cache budget is zero.
  std::unique_ptr<LruCache<uint64_t, const MbTree>> rebuilt_;
};

}  // namespace sebdb
