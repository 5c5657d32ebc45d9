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
// An ALI shares its first level with the plain LayeredIndex it is built
// over: candidate blocks come from that index, which the ALI reads but never
// updates or checkpoints. What the ALI owns is one MB-tree root per block
// (32 bytes; the zero hash marks a block with no entries). MB-trees are
// deterministic functions of their block's transactions, so apply computes
// the root from the record hashes without building a tree, and a query's
// Tree() rebuilds the block's MB-tree on demand from the raw block (via the
// installed BlockLoader), verifies it against the recorded root, and
// LRU-caches it. Checkpoints carry only the root list. Digests (phase 2)
// need only the stored roots, so auxiliary nodes answer without touching raw
// blocks at all.
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

  /// Byte budget of the rebuilt-MB-tree LRU, charged by encoded records.
  static constexpr uint64_t kTreeCacheBytes = 8ull << 20;

  /// `index` is the plain layered index over the same attribute; it must
  /// outlive the ALI. The ALI takes its extractor from it.
  explicit AuthenticatedLayeredIndex(
      const LayeredIndex* index, MbTree::Options mb_options = MbTree::Options());

  /// Required before any block's tree can be built (Tree, ProveRange).
  void SetBlockLoader(BlockLoader loader) { loader_ = std::move(loader); }

  /// Records the root of a newly chained block's MB-tree over (attribute
  /// value, encoded transaction): extraction + MergeTxnDeltas. Blocks must
  /// arrive in order.
  Status AddBlock(const Block& block);

  /// Merge step of the parallel apply pipeline: records block `height`'s
  /// MB-tree root from one (attribute value, SHA-256 of the encoded
  /// transaction) leaf per indexed transaction, in block position order.
  /// Stable-sorts by key and hashes the tree (MbTree::ComputeRoot) — the
  /// same root AddBlock and a rebuild produce.
  Status MergeTxnDeltas(uint64_t height,
                        std::vector<std::pair<const Value*, Hash256>> leaves);

  /// Blocks with a recorded root. The plain index may already be ahead
  /// while a block's merge is in flight; queries never look past this.
  uint64_t num_blocks() const { return roots_.size(); }

  /// Blocks a range query over [lo, hi] must visit, intersected with an
  /// optional time-window bitmap, limited to heights < height_limit and to
  /// blocks with a recorded root.
  Bitmap BlocksToVisit(const Value* lo, const Value* hi, const Bitmap* window,
                       uint64_t height_limit) const;

  /// One block's MB-tree (*out == nullptr when the block holds no indexed
  /// entries). Served from the LRU cache or rebuilt from the raw block and
  /// verified against the recorded root (Corruption on mismatch).
  Status Tree(BlockId bid, std::shared_ptr<const MbTree>* out) const;

  /// Counters of the rebuilt-MB-tree LRU cache.
  LruCache<uint64_t, const MbTree>::Stats tree_cache_stats() const {
    return rebuilt_.stats();
  }

  /// Phase 1 (full node): executes the range query and assembles the VO set.
  /// InvalidArgument when chain_height > num_blocks().
  Status ProveRange(const Value* lo, const Value* hi, const Bitmap* window,
                    uint64_t chain_height, AuthQueryResponse* out) const;

  /// Phase 2 (auxiliary node): digest over the roots of the blocks the query
  /// visits at the pinned height: SHA256(root_1 || root_2 || ...).
  /// InvalidArgument when chain_height > num_blocks().
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

  // --- checkpoint state (driven by IndexSet; single-threaded) ---

  /// The root list: varint count, then 32 bytes per block.
  void EncodeCheckpointState(std::string* dst) const;

  /// Restores the root list EncodeCheckpointState wrote. Call after the
  /// plain index is restored: the list must cover exactly its blocks.
  Status RestoreCheckpoint(Slice state);

 private:
  Status RebuildTree(BlockId bid, std::shared_ptr<const MbTree>* out) const;

  const LayeredIndex* index_;
  MbTree::Options mb_options_;
  BlockLoader loader_;

  /// MB-tree root of every indexed block (zero hash = no entries); the
  /// ALI's whole checkpoint state.
  std::vector<Hash256> roots_;

  /// Rebuilt MB-trees, charged by encoded record bytes (internally
  /// synchronized, so const queries fill it concurrently).
  mutable LruCache<uint64_t, const MbTree> rebuilt_{kTreeCacheBytes};
};

}  // namespace sebdb
