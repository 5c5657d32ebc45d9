#include "auth/mbtree.h"

#include <algorithm>

#include "common/coding.h"

namespace sebdb {

namespace {

constexpr uint8_t kLeafDomain = 0x00;
constexpr uint8_t kInternalDomain = 0x01;

Hash256 HashLeafRange(const std::vector<Hash256>& record_hashes, size_t start,
                      size_t count) {
  Sha256 ctx;
  ctx.Update(&kLeafDomain, 1);
  for (size_t i = 0; i < count; i++) {
    ctx.Update(record_hashes[start + i].bytes.data(), 32);
  }
  return ctx.Finish();
}

Hash256 HashChildren(const std::vector<Hash256>& child_hashes, size_t start,
                     size_t count) {
  Sha256 ctx;
  ctx.Update(&kInternalDomain, 1);
  for (size_t i = 0; i < count; i++) {
    ctx.Update(child_hashes[start + i].bytes.data(), 32);
  }
  return ctx.Finish();
}

/// Every level's node hashes, leaves first, root level (one hash) last: a
/// leaf covers `fanout` consecutive records, an internal node `fanout`
/// consecutive children. An empty tree is one empty leaf. Build lays its
/// nodes over exactly these groups; ComputeRoot keeps only the last level.
std::vector<std::vector<Hash256>> LevelHashes(
    const std::vector<Hash256>& record_hashes, size_t fanout) {
  std::vector<std::vector<Hash256>> levels(1);
  const size_t n = record_hashes.size();
  if (n == 0) levels[0].push_back(HashLeafRange(record_hashes, 0, 0));
  for (size_t i = 0; i < n; i += fanout) {
    levels[0].push_back(
        HashLeafRange(record_hashes, i, std::min(fanout, n - i)));
  }
  while (levels.back().size() > 1) {
    const std::vector<Hash256>& below = levels.back();
    std::vector<Hash256> up;
    for (size_t i = 0; i < below.size(); i += fanout) {
      up.push_back(HashChildren(below, i, std::min(fanout, below.size() - i)));
    }
    levels.push_back(std::move(up));
  }
  return levels;
}

}  // namespace

namespace {

/// Bytes EncodeVoNode appends for `node`, summed without encoding it.
size_t VoNodeSize(const VerificationObject::Node& node) {
  size_t n = 1;  // kind
  switch (node.kind) {
    case VerificationObject::Kind::kPruned:
      n += 32;
      break;
    case VerificationObject::Kind::kLeaf:
      n += VarintLength(static_cast<uint32_t>(node.entries.size()));
      for (const auto& entry : node.entries) {
        n += 1 + (entry.full ? VarintLength(entry.record.size()) +
                                   entry.record.size()
                             : 32);
      }
      break;
    case VerificationObject::Kind::kInternal:
      n += VarintLength(static_cast<uint32_t>(node.children.size()));
      for (const auto& child : node.children) n += VoNodeSize(child);
      break;
  }
  return n;
}

void EncodeVoNode(const VerificationObject::Node& node, std::string* dst) {
  dst->push_back(static_cast<char>(node.kind));
  switch (node.kind) {
    case VerificationObject::Kind::kPruned:
      dst->append(reinterpret_cast<const char*>(node.hash.bytes.data()), 32);
      break;
    case VerificationObject::Kind::kLeaf:
      PutVarint32(dst, static_cast<uint32_t>(node.entries.size()));
      for (const auto& entry : node.entries) {
        dst->push_back(entry.full ? 1 : 0);
        if (entry.full) {
          PutLengthPrefixed(dst, entry.record);
        } else {
          dst->append(reinterpret_cast<const char*>(entry.hash.bytes.data()),
                      32);
        }
      }
      break;
    case VerificationObject::Kind::kInternal:
      PutVarint32(dst, static_cast<uint32_t>(node.children.size()));
      for (const auto& child : node.children) EncodeVoNode(child, dst);
      break;
  }
}

bool GetHash(Slice* input, Hash256* out) {
  if (input->size() < 32) return false;
  memcpy(out->bytes.data(), input->data(), 32);
  input->remove_prefix(32);
  return true;
}

Status DecodeVoNode(Slice* input, VerificationObject::Node* out, int depth) {
  if (depth > 64) return Status::Corruption("VO nesting too deep");
  if (input->empty()) return Status::Corruption("truncated VO");
  auto kind = static_cast<VerificationObject::Kind>((*input)[0]);
  input->remove_prefix(1);
  out->kind = kind;
  switch (kind) {
    case VerificationObject::Kind::kPruned:
      if (!GetHash(input, &out->hash)) return Status::Corruption("truncated VO hash");
      return Status::OK();
    case VerificationObject::Kind::kLeaf: {
      uint32_t n;
      if (!GetVarint32(input, &n)) return Status::Corruption("truncated VO leaf");
      out->entries.resize(n);
      for (auto& entry : out->entries) {
        if (input->empty()) return Status::Corruption("truncated VO entry");
        entry.full = (*input)[0] != 0;
        input->remove_prefix(1);
        if (entry.full) {
          Slice record;
          if (!GetLengthPrefixed(input, &record)) {
            return Status::Corruption("truncated VO record");
          }
          entry.record = record.ToString();
        } else if (!GetHash(input, &entry.hash)) {
          return Status::Corruption("truncated VO entry hash");
        }
      }
      return Status::OK();
    }
    case VerificationObject::Kind::kInternal: {
      uint32_t n;
      if (!GetVarint32(input, &n)) return Status::Corruption("truncated VO node");
      out->children.resize(n);
      for (auto& child : out->children) {
        Status s = DecodeVoNode(input, &child, depth + 1);
        if (!s.ok()) return s;
      }
      return Status::OK();
    }
  }
  return Status::Corruption("unknown VO node kind");
}

}  // namespace

size_t VerificationObject::ByteSize() const { return VoNodeSize(root); }

void VerificationObject::EncodeTo(std::string* dst) const {
  EncodeVoNode(root, dst);
}

Status VerificationObject::DecodeFrom(Slice* input, VerificationObject* out) {
  return DecodeVoNode(input, &out->root, 0);
}

std::unique_ptr<MbTree> MbTree::Build(std::vector<Entry> sorted_entries) {
  return Build(std::move(sorted_entries), Options());
}

std::unique_ptr<MbTree> MbTree::Build(std::vector<Entry> sorted_entries,
                                      const Options& options) {
  auto tree = std::unique_ptr<MbTree>(new MbTree());
  tree->options_ = options;
  const size_t fanout = std::max<size_t>(2, options.fanout);
  const size_t n = sorted_entries.size();
  tree->keys_.reserve(n);
  tree->records_.reserve(n);
  tree->record_hashes_.reserve(n);
  for (auto& entry : sorted_entries) {
    tree->record_hashes_.push_back(Sha256::Digest(entry.record));
    tree->keys_.push_back(std::move(entry.key));
    tree->records_.push_back(std::move(entry.record));
  }

  const std::vector<std::vector<Hash256>> levels =
      LevelHashes(tree->record_hashes_, fanout);
  std::vector<std::unique_ptr<Node>> level;
  for (size_t j = 0; j < levels[0].size(); j++) {
    auto leaf = std::make_unique<Node>();
    leaf->leaf = true;
    leaf->start = j * fanout;
    leaf->count = n == 0 ? 0 : std::min(fanout, n - leaf->start);
    leaf->hash = levels[0][j];
    level.push_back(std::move(leaf));
  }
  for (size_t l = 1; l < levels.size(); l++) {
    std::vector<std::unique_ptr<Node>> up;
    for (size_t j = 0; j < levels[l].size(); j++) {
      auto internal = std::make_unique<Node>();
      const size_t first = j * fanout;
      const size_t take = std::min(fanout, level.size() - first);
      internal->start = level[first]->start;
      for (size_t c = 0; c < take; c++) {
        internal->count += level[first + c]->count;
        internal->children.push_back(std::move(level[first + c]));
      }
      internal->hash = levels[l][j];
      up.push_back(std::move(internal));
    }
    level = std::move(up);
  }
  tree->height_ = static_cast<int>(levels.size());
  tree->root_ = std::move(level[0]);
  tree->root_hash_ = tree->root_->hash;
  return tree;
}

Hash256 MbTree::ComputeRoot(const std::vector<Hash256>& sorted_record_hashes,
                            const Options& options) {
  return LevelHashes(sorted_record_hashes,
                     std::max<size_t>(2, options.fanout))
      .back()[0];
}

void MbTree::Range(const Value* lo, const Value* hi,
                   std::vector<size_t>* indices) const {
  auto cmp = [](const Value& a, const Value& b) {
    return a.CompareTotal(b) < 0;
  };
  size_t a = lo == nullptr
                 ? 0
                 : std::lower_bound(keys_.begin(), keys_.end(), *lo, cmp) -
                       keys_.begin();
  size_t b_end = hi == nullptr
                     ? keys_.size()
                     : std::upper_bound(keys_.begin(), keys_.end(), *hi, cmp) -
                           keys_.begin();
  for (size_t i = a; i < b_end; i++) indices->push_back(i);
}

VerificationObject::Node MbTree::ProveNode(const Node& node,
                                           size_t expose_start,
                                           size_t expose_end) const {
  VerificationObject::Node out;
  size_t node_end = node.start + node.count;
  bool overlaps = node.count > 0 && node.start <= expose_end &&
                  expose_start < node_end;
  if (!overlaps && !(node.count == 0 && keys_.empty())) {
    out.kind = VerificationObject::Kind::kPruned;
    out.hash = node.hash;
    return out;
  }
  if (node.leaf) {
    out.kind = VerificationObject::Kind::kLeaf;
    out.entries.reserve(node.count);
    for (size_t i = node.start; i < node_end; i++) {
      VerificationObject::LeafEntry entry;
      if (i >= expose_start && i <= expose_end) {
        entry.full = true;
        entry.record = records_[i];
      } else {
        entry.hash = record_hashes_[i];
      }
      out.entries.push_back(std::move(entry));
    }
    return out;
  }
  out.kind = VerificationObject::Kind::kInternal;
  out.children.reserve(node.children.size());
  for (const auto& child : node.children) {
    out.children.push_back(ProveNode(*child, expose_start, expose_end));
  }
  return out;
}

Status MbTree::ProveRange(const Value* lo, const Value* hi,
                          VerificationObject* vo) const {
  const size_t n = keys_.size();
  if (n == 0) {
    // Whole (empty) tree is the proof of emptiness.
    vo->root = ProveNode(*root_, 0, 0);
    return Status::OK();
  }
  auto cmp = [](const Value& a, const Value& b) {
    return a.CompareTotal(b) < 0;
  };
  size_t a = lo == nullptr
                 ? 0
                 : std::lower_bound(keys_.begin(), keys_.end(), *lo, cmp) -
                       keys_.begin();
  size_t b_end = hi == nullptr
                     ? n
                     : std::upper_bound(keys_.begin(), keys_.end(), *hi, cmp) -
                           keys_.begin();
  size_t expose_start, expose_end;
  if (a >= b_end) {
    // Empty result: expose the two entries straddling the gap.
    expose_start = a > 0 ? a - 1 : 0;
    expose_end = std::min(a, n - 1);
  } else {
    expose_start = a > 0 ? a - 1 : 0;
    expose_end = b_end < n ? b_end : n - 1;  // b_end == index after last hit
  }
  vo->root = ProveNode(*root_, expose_start, expose_end);
  return Status::OK();
}

namespace {

struct SequenceItem {
  bool full = false;
  Value key;            // when full
  std::string record;   // when full
};

Status RebuildHash(const VerificationObject::Node& node,
                   const RecordKeyFn& key_of,
                   std::vector<SequenceItem>* sequence, Hash256* hash,
                   int depth) {
  if (depth > 64) return Status::VerificationFailed("VO nesting too deep");
  switch (node.kind) {
    case VerificationObject::Kind::kPruned:
      sequence->emplace_back();  // opaque
      *hash = node.hash;
      return Status::OK();
    case VerificationObject::Kind::kLeaf: {
      Sha256 ctx;
      ctx.Update(&kLeafDomain, 1);
      for (const auto& entry : node.entries) {
        Hash256 rh;
        if (entry.full) {
          rh = Sha256::Digest(entry.record);
          SequenceItem item;
          item.full = true;
          Status s = key_of(entry.record, &item.key);
          if (!s.ok()) {
            return Status::VerificationFailed("cannot derive key: " +
                                              s.ToString());
          }
          item.record = entry.record;
          sequence->push_back(std::move(item));
        } else {
          rh = entry.hash;
          sequence->push_back(SequenceItem{});
        }
        ctx.Update(rh.bytes.data(), 32);
      }
      *hash = ctx.Finish();
      return Status::OK();
    }
    case VerificationObject::Kind::kInternal: {
      if (node.children.empty()) {
        return Status::VerificationFailed("internal VO node without children");
      }
      Sha256 ctx;
      ctx.Update(&kInternalDomain, 1);
      for (const auto& child : node.children) {
        Hash256 child_hash;
        Status s = RebuildHash(child, key_of, sequence, &child_hash, depth + 1);
        if (!s.ok()) return s;
        ctx.Update(child_hash.bytes.data(), 32);
      }
      *hash = ctx.Finish();
      return Status::OK();
    }
  }
  return Status::VerificationFailed("unknown VO node kind");
}

}  // namespace

Status MbTree::VerifyRange(const Hash256& trusted_root,
                           const VerificationObject& vo, const Value* lo,
                           const Value* hi, const RecordKeyFn& key_of,
                           std::vector<std::string>* records) {
  Hash256 root;
  Status s = ReconstructRoot(vo, lo, hi, key_of, records, &root);
  if (!s.ok()) return s;
  if (root != trusted_root) {
    return Status::VerificationFailed("VO root hash mismatch");
  }
  return Status::OK();
}

Status MbTree::ReconstructRoot(const VerificationObject& vo, const Value* lo,
                               const Value* hi, const RecordKeyFn& key_of,
                               std::vector<std::string>* records,
                               Hash256* root) {
  std::vector<SequenceItem> sequence;
  Status s = RebuildHash(vo.root, key_of, &sequence, root, 0);
  if (!s.ok()) return s;

  // Keys of full records must be non-decreasing.
  const Value* prev = nullptr;
  for (const auto& item : sequence) {
    if (!item.full) continue;
    if (prev != nullptr && prev->CompareTotal(item.key) > 0) {
      return Status::VerificationFailed("VO records out of order");
    }
    prev = &item.key;
  }

  // Completeness: no opaque item may be able to hide an in-range key. An
  // opaque item's keys are bounded by its nearest full neighbours; it is
  // safe only if its upper neighbour is strictly below lo or its lower
  // neighbour strictly above hi.
  for (size_t i = 0; i < sequence.size(); i++) {
    if (sequence[i].full) continue;
    const Value* k1 = nullptr;  // nearest full key before
    for (size_t j = i; j-- > 0;) {
      if (sequence[j].full) {
        k1 = &sequence[j].key;
        break;
      }
    }
    const Value* k2 = nullptr;  // nearest full key after
    for (size_t j = i + 1; j < sequence.size(); j++) {
      if (sequence[j].full) {
        k2 = &sequence[j].key;
        break;
      }
    }
    bool safe_low = lo != nullptr && k2 != nullptr && k2->CompareTotal(*lo) < 0;
    bool safe_high =
        hi != nullptr && k1 != nullptr && k1->CompareTotal(*hi) > 0;
    if (!safe_low && !safe_high) {
      return Status::VerificationFailed(
          "VO incomplete: pruned region may hide results");
    }
  }

  records->clear();
  for (auto& item : sequence) {
    if (!item.full) continue;
    bool ge_lo = lo == nullptr || item.key.CompareTotal(*lo) >= 0;
    bool le_hi = hi == nullptr || item.key.CompareTotal(*hi) <= 0;
    if (ge_lo && le_hi) records->push_back(std::move(item.record));
  }
  return Status::OK();
}

}  // namespace sebdb
