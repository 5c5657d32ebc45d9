#include "auth/ali.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace sebdb {

void AliBlockProof::EncodeTo(std::string* dst) const {
  PutVarint64(dst, block);
  vo.EncodeTo(dst);
}

Status AliBlockProof::DecodeFrom(Slice* input, AliBlockProof* out) {
  uint64_t bid;
  if (!GetVarint64(input, &bid)) return Status::Corruption("truncated proof");
  out->block = bid;
  return VerificationObject::DecodeFrom(input, &out->vo);
}

size_t AuthQueryResponse::ByteSize() const {
  size_t n = VarintLength(chain_height) +
             VarintLength(static_cast<uint32_t>(proofs.size()));
  for (const auto& proof : proofs) {
    n += VarintLength(proof.block) + proof.vo.ByteSize();
  }
  return n;
}

void AuthQueryResponse::EncodeTo(std::string* dst) const {
  PutVarint64(dst, chain_height);
  PutVarint32(dst, static_cast<uint32_t>(proofs.size()));
  for (const auto& proof : proofs) proof.EncodeTo(dst);
}

Status AuthQueryResponse::DecodeFrom(Slice* input, AuthQueryResponse* out) {
  uint64_t height;
  uint32_t n;
  if (!GetVarint64(input, &height) || !GetVarint32(input, &n)) {
    return Status::Corruption("truncated auth response");
  }
  out->chain_height = height;
  out->proofs.resize(n);
  for (auto& proof : out->proofs) {
    Status s = AliBlockProof::DecodeFrom(input, &proof);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

namespace {

/// (value, encoded transaction) pairs of one block, in MB-tree build order.
std::vector<MbTree::Entry> ExtractEntries(const Block& block,
                                          const ColumnExtractor& extractor) {
  std::vector<MbTree::Entry> entries;
  for (const auto& txn : block.transactions()) {
    Value key;
    if (!extractor(txn, &key)) continue;
    std::string record;
    txn.EncodeTo(&record);
    entries.push_back({std::move(key), std::move(record)});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const MbTree::Entry& a, const MbTree::Entry& b) {
                     return a.key.CompareTotal(b.key) < 0;
                   });
  return entries;
}

}  // namespace

AuthenticatedLayeredIndex::AuthenticatedLayeredIndex(
    const LayeredIndex* index, MbTree::Options mb_options)
    : index_(index), mb_options_(mb_options) {}

Status AuthenticatedLayeredIndex::AddBlock(const Block& block) {
  std::vector<MbTree::Entry> entries =
      ExtractEntries(block, index_->extractor());
  std::vector<std::pair<const Value*, Hash256>> leaves;
  leaves.reserve(entries.size());
  for (const auto& e : entries) {
    leaves.emplace_back(&e.key, Sha256::Digest(e.record));
  }
  return MergeTxnDeltas(block.height(), std::move(leaves));
}

Status AuthenticatedLayeredIndex::MergeTxnDeltas(
    uint64_t height, std::vector<std::pair<const Value*, Hash256>> leaves) {
  if (height != roots_.size()) {
    return Status::InvalidArgument("ALI blocks must arrive in order");
  }
  // MB-tree order: stable by key, so equal keys keep block order.
  std::stable_sort(leaves.begin(), leaves.end(),
                   [](const auto& a, const auto& b) {
                     return a.first->CompareTotal(*b.first) < 0;
                   });
  std::vector<Hash256> sorted_hashes;
  sorted_hashes.reserve(leaves.size());
  for (const auto& leaf : leaves) sorted_hashes.push_back(leaf.second);
  roots_.push_back(sorted_hashes.empty()
                       ? Hash256{}
                       : MbTree::ComputeRoot(sorted_hashes, mb_options_));
  return Status::OK();
}

Bitmap AuthenticatedLayeredIndex::BlocksToVisit(const Value* lo,
                                                const Value* hi,
                                                const Bitmap* window,
                                                uint64_t height_limit) const {
  Bitmap candidates = index_->CandidateBlocks(lo, hi);
  if (window != nullptr) candidates.And(*window);
  // Pin the snapshot: ignore blocks at or above the height limit, and any
  // block the plain index holds whose root is not recorded yet.
  const uint64_t limit = std::min<uint64_t>(height_limit, roots_.size());
  for (size_t bid = limit; bid < candidates.size(); bid++) {
    if (candidates.Test(bid)) candidates.Clear(bid);
  }
  return candidates;
}

Status AuthenticatedLayeredIndex::Tree(
    BlockId bid, std::shared_ptr<const MbTree>* out) const {
  if (bid >= roots_.size()) return Status::NotFound("block not indexed");
  if (roots_[bid] == Hash256{}) {  // no indexed entries — no tree
    *out = nullptr;
    return Status::OK();
  }
  if (auto cached = rebuilt_.Lookup(bid)) {
    *out = std::move(cached);
    return Status::OK();
  }
  return RebuildTree(bid, out);
}

Status AuthenticatedLayeredIndex::RebuildTree(
    BlockId bid, std::shared_ptr<const MbTree>* out) const {
  if (loader_ == nullptr) {
    return Status::InvalidArgument("no block loader installed");
  }
  std::shared_ptr<const Block> block;
  Status s = loader_(bid, &block);
  if (!s.ok()) return s;
  std::vector<MbTree::Entry> entries =
      ExtractEntries(*block, index_->extractor());
  uint64_t charge = 64;
  for (const auto& e : entries) charge += e.key.ByteSize() + e.record.size();
  std::shared_ptr<const MbTree> tree =
      entries.empty() ? nullptr
                      : std::shared_ptr<const MbTree>(
                            MbTree::Build(std::move(entries), mb_options_));
  // The rebuilt tree must reproduce the root recorded when the block was
  // first indexed; anything else means the raw block changed underneath us.
  Hash256 root = tree == nullptr ? Hash256{} : tree->root_hash();
  if (root != roots_[bid]) {
    return Status::Corruption("rebuilt MB-tree root mismatch for block " +
                              std::to_string(bid));
  }
  if (tree != nullptr) rebuilt_.Insert(bid, tree, charge);
  *out = std::move(tree);
  return Status::OK();
}

Status AuthenticatedLayeredIndex::ProveRange(const Value* lo, const Value* hi,
                                             const Bitmap* window,
                                             uint64_t chain_height,
                                             AuthQueryResponse* out) const {
  if (chain_height > num_blocks()) {
    return Status::InvalidArgument("pinned height beyond indexed blocks");
  }
  out->chain_height = chain_height;
  out->proofs.clear();
  Bitmap candidates = BlocksToVisit(lo, hi, window, chain_height);
  for (size_t bid : candidates.SetBits()) {
    std::shared_ptr<const MbTree> tree;
    Status s = Tree(bid, &tree);
    if (!s.ok()) return s;
    if (tree == nullptr) continue;  // candidate bitmaps only cover non-empty
    AliBlockProof proof;
    proof.block = bid;
    s = tree->ProveRange(lo, hi, &proof.vo);
    if (!s.ok()) return s;
    out->proofs.push_back(std::move(proof));
  }
  return Status::OK();
}

Status AuthenticatedLayeredIndex::ComputeDigest(const Value* lo,
                                                const Value* hi,
                                                const Bitmap* window,
                                                uint64_t chain_height,
                                                Hash256* digest) const {
  if (chain_height > num_blocks()) {
    return Status::InvalidArgument("pinned height beyond indexed blocks");
  }
  Bitmap candidates = BlocksToVisit(lo, hi, window, chain_height);
  Sha256 ctx;
  for (size_t bid : candidates.SetBits()) {
    if (roots_[bid] == Hash256{}) continue;
    ctx.Update(roots_[bid].bytes.data(), 32);
  }
  *digest = ctx.Finish();
  return Status::OK();
}

Status AuthenticatedLayeredIndex::VerifyResponse(
    const AuthQueryResponse& response, const Value* lo, const Value* hi,
    const RecordKeyFn& key_of, const std::vector<Hash256>& auxiliary_digests,
    size_t required_matching, std::vector<std::string>* records) {
  // Reconstruct every block's MB-tree root from its VO and verify the
  // per-block soundness/completeness rules.
  std::vector<std::string> all_records;
  Sha256 digest_ctx;
  BlockId prev_block = 0;
  bool first = true;
  for (const auto& proof : response.proofs) {
    if (!first && proof.block <= prev_block) {
      return Status::VerificationFailed("proof blocks out of order");
    }
    first = false;
    prev_block = proof.block;
    Hash256 root;
    std::vector<std::string> block_records;
    Status s =
        MbTree::ReconstructRoot(proof.vo, lo, hi, key_of, &block_records, &root);
    if (!s.ok()) return s;
    digest_ctx.Update(root.bytes.data(), 32);
    for (auto& record : block_records) {
      all_records.push_back(std::move(record));
    }
  }
  Hash256 reconstructed = digest_ctx.Finish();

  size_t matching = 0;
  for (const auto& digest : auxiliary_digests) {
    if (digest == reconstructed) matching++;
  }
  if (matching < required_matching) {
    return Status::VerificationFailed(
        "only " + std::to_string(matching) + " of " +
        std::to_string(auxiliary_digests.size()) +
        " auxiliary digests match (need " +
        std::to_string(required_matching) + ")");
  }
  for (auto& record : all_records) records->push_back(std::move(record));
  return Status::OK();
}

void AuthenticatedLayeredIndex::EncodeCheckpointState(std::string* dst) const {
  PutVarint64(dst, roots_.size());
  for (const Hash256& root : roots_) {
    dst->append(reinterpret_cast<const char*>(root.bytes.data()), 32);
  }
}

Status AuthenticatedLayeredIndex::RestoreCheckpoint(Slice state) {
  uint64_t nroots;
  if (!GetVarint64(&state, &nroots) || nroots != index_->num_blocks() ||
      state.size() < nroots * 32) {
    return Status::Corruption("truncated ALI root list");
  }
  roots_.resize(nroots);
  for (uint64_t i = 0; i < nroots; i++) {
    std::memcpy(roots_[i].bytes.data(), state.data(), 32);
    state.remove_prefix(32);
  }
  return Status::OK();
}

}  // namespace sebdb
