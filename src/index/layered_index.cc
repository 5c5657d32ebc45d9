#include "index/layered_index.h"

#include <algorithm>

#include "common/coding.h"

namespace sebdb {

Status LayeredIndex::SetHistogram(EqualDepthHistogram histogram) {
  if (options_.discrete) {
    return Status::InvalidArgument("discrete index takes no histogram");
  }
  if (num_blocks_ > 0) {
    return Status::InvalidArgument("histogram must be set before indexing");
  }
  if (histogram.num_buckets() == 0) {
    return Status::InvalidArgument("histogram not built");
  }
  histogram_ = std::move(histogram);
  histogram_set_ = true;
  return Status::OK();
}

Status LayeredIndex::AddBlock(const Block& block) {
  // Gather (value, position) pairs for transactions this index covers.
  std::vector<std::pair<Value, uint32_t>> entries;
  const auto& txns = block.transactions();
  for (uint32_t i = 0; i < txns.size(); i++) {
    Value v;
    if (extractor_(txns[i], &v)) entries.emplace_back(std::move(v), i);
  }
  return MergeTxnDeltas(block.height(), std::move(entries));
}

Status LayeredIndex::MergeTxnDeltas(
    uint64_t height, std::vector<std::pair<Value, uint32_t>> entries) {
  if (height != num_blocks_) {
    return Status::InvalidArgument("layered index blocks must arrive in order");
  }

  // An index created on an empty chain has no history to sample; bootstrap
  // the equal-depth histogram from the first block that carries entries.
  if (!options_.discrete && !histogram_set_ && !entries.empty()) {
    std::vector<Value> sample;
    sample.reserve(entries.size());
    for (const auto& [v, pos] : entries) sample.push_back(v);
    EqualDepthHistogram histogram;
    Status s = EqualDepthHistogram::Build(std::move(sample),
                                          options_.histogram_buckets,
                                          &histogram);
    if (!s.ok()) return s;
    histogram_ = std::move(histogram);
    histogram_set_ = true;
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              int c = a.first.CompareTotal(b.first);
              return c != 0 ? c < 0 : a.second < b.second;
            });

  // First level.
  if (options_.discrete) {
    for (const auto& [v, pos] : entries) {
      value_blocks_[v].SetGrow(height);
    }
  } else {
    Bitmap buckets(histogram_.num_buckets());
    for (const auto& [v, pos] : entries) {
      buckets.Set(histogram_.BucketOf(v));
    }
    block_buckets_.push_back(std::move(buckets));
  }

  // Second level: the sorted run, kept as is until the next checkpoint
  // streams it into pages.
  total_entries_ += entries.size();
  tail_.push_back(entries.empty() ? nullptr
                                  : std::make_shared<const SortedRun>(
                                        std::move(entries)));
  num_blocks_++;
  return Status::OK();
}

Bitmap LayeredIndex::CandidateBlocks(const Value* lo, const Value* hi) const {
  Bitmap result(num_blocks_);
  if (options_.discrete) {
    if (lo != nullptr && hi != nullptr && lo->CompareTotal(*hi) == 0) {
      return BlocksWithValue(*lo);
    }
    // Range over a discrete attribute: union of all values in the range.
    for (const auto& [v, blocks] : value_blocks_) {
      if (lo != nullptr && v.CompareTotal(*lo) < 0) continue;
      if (hi != nullptr && v.CompareTotal(*hi) > 0) break;
      result.Or(blocks);
    }
    return result;
  }
  Bitmap query_buckets = histogram_.BucketsOverlapping(lo, hi);
  for (uint64_t bid = 0; bid < block_buckets_.size(); bid++) {
    if (block_buckets_[bid].Intersects(query_buckets)) result.Set(bid);
  }
  return result;
}

Bitmap LayeredIndex::BlocksWithEntries() const {
  Bitmap result(num_blocks_);
  for (uint64_t bid = 0; bid < frozen_.size(); bid++) {
    if (frozen_[bid].file_ordinal != FrozenTreeRef::kNoTree) result.Set(bid);
  }
  for (uint64_t i = 0; i < tail_.size(); i++) {
    if (tail_[i] != nullptr) result.Set(frozen_.size() + i);
  }
  return result;
}

void LayeredIndex::Cursor::Settle() {
  if (disk_.Valid()) {
    yielded_++;
    return;
  }
  status_ = disk_.status();
  if (status_.ok() && from_start_ && yielded_ != expected_) {
    status_ = Status::Corruption(
        "frozen tree of block " + std::to_string(bid_) + " has " +
        std::to_string(yielded_) + " entries, expected " +
        std::to_string(expected_));
  }
}

LayeredIndex::Cursor LayeredIndex::Seek(BlockId bid, const Value* lo) const {
  Cursor c;
  if (bid >= num_blocks_) {
    c.status_ = Status::InvalidArgument("block not indexed yet");
    return c;
  }
  if (bid >= frozen_.size()) {
    c.run_ = tail_[bid - frozen_.size()];
    if (c.run_ != nullptr && lo != nullptr) {
      c.pos_ = std::lower_bound(c.run_->begin(), c.run_->end(), *lo,
                                [](const auto& entry, const Value& v) {
                                  return entry.first.CompareTotal(v) < 0;
                                }) -
               c.run_->begin();
    }
    return c;
  }
  const FrozenTreeRef& ref = frozen_[bid];
  if (ref.file_ordinal == FrozenTreeRef::kNoTree) return c;
  DiskTree tree(pool_,
                {tree_files_[ref.file_ordinal], ref.root, ref.entries});
  c.disk_ = lo != nullptr ? tree.SeekGE(*lo) : tree.Begin();
  c.bid_ = bid;
  c.from_start_ = lo == nullptr;
  c.expected_ = ref.entries;
  c.Settle();
  return c;
}

Status LayeredIndex::SearchBlock(BlockId bid, const Value* lo, const Value* hi,
                                 std::vector<uint32_t>* out) const {
  Cursor it = Seek(bid, lo);
  for (; it.Valid(); it.Next()) {
    if (hi != nullptr && it.key().CompareTotal(*hi) > 0) break;
    out->push_back(it.value());
  }
  return it.status();
}

const Bitmap* LayeredIndex::BlockBuckets(BlockId bid) const {
  if (options_.discrete || bid >= block_buckets_.size()) return nullptr;
  return &block_buckets_[bid];
}

Bitmap LayeredIndex::BlocksWithValue(const Value& v) const {
  Bitmap result(num_blocks_);
  auto it = value_blocks_.find(v);
  if (it != value_blocks_.end()) result.Or(it->second);
  return result;
}

Status LayeredIndex::WriteFrozenDelta(BufferManager* pool,
                                      BufferManager::FileId file,
                                      uint64_t up_to,
                                      std::vector<FrozenTreeRef>* refs) {
  refs->clear();
  if (up_to > num_blocks_) {
    return Status::InvalidArgument("cannot freeze unindexed blocks");
  }
  const uint32_t ordinal = static_cast<uint32_t>(tree_files_.size());
  for (uint64_t bid = frozen_.size(); bid < up_to; bid++) {
    const SortedRun* run = tail_[bid - frozen_.size()].get();
    FrozenTreeRef ref;
    if (run != nullptr) {
      DiskBpTreeBuilder<Value, uint32_t, ValuePosCodec, ValueCmp> builder(
          pool, file);
      for (const auto& [v, pos] : *run) {
        Status s = builder.Add(v, pos);
        if (!s.ok()) return s;
      }
      typename DiskTree::Ref built;
      Status s = builder.Finish(&built);
      if (!s.ok()) return s;
      ref.file_ordinal = ordinal;
      ref.root = built.root;
      ref.entries = built.entries;
    }
    refs->push_back(ref);
  }
  return Status::OK();
}

void LayeredIndex::AdoptFrozen(BufferManager* pool,
                               BufferManager::FileId file,
                               const std::vector<FrozenTreeRef>& refs) {
  pool_ = pool;
  tree_files_.push_back(file);
  frozen_.insert(frozen_.end(), refs.begin(), refs.end());
  // The refs cover the oldest refs.size() tail blocks: drop their in-memory
  // runs (this is where a long-running node's memory stops growing).
  tail_.erase(tail_.begin(), tail_.begin() + refs.size());
}

void LayeredIndex::EncodeFirstLevel(std::string* dst) const {
  PutVarint64(dst, total_entries_);
  dst->push_back(histogram_set_ ? 1 : 0);
  if (options_.discrete) {
    PutVarint32(dst, static_cast<uint32_t>(value_blocks_.size()));
    for (const auto& [v, blocks] : value_blocks_) {
      v.EncodeTo(dst);
      blocks.EncodeTo(dst);
    }
  } else {
    histogram_.EncodeTo(dst);
    PutVarint64(dst, block_buckets_.size());
    for (const Bitmap& b : block_buckets_) b.EncodeTo(dst);
  }
}

Status LayeredIndex::DecodeFirstLevel(Slice* in) {
  uint64_t total;
  if (!GetVarint64(in, &total) || in->empty()) {
    return Status::Corruption("truncated index first level");
  }
  total_entries_ = total;
  histogram_set_ = (*in)[0] != 0;
  in->remove_prefix(1);
  if (options_.discrete) {
    uint32_t nvalues;
    if (!GetVarint32(in, &nvalues)) {
      return Status::Corruption("truncated discrete first level");
    }
    for (uint32_t i = 0; i < nvalues; i++) {
      Value v;
      Bitmap blocks;
      if (!Value::DecodeFrom(in, &v) || !Bitmap::DecodeFrom(in, &blocks)) {
        return Status::Corruption("truncated discrete first level");
      }
      value_blocks_[std::move(v)] = std::move(blocks);
    }
  } else {
    if (!EqualDepthHistogram::DecodeFrom(in, &histogram_)) {
      return Status::Corruption("truncated histogram");
    }
    uint64_t nbuckets;
    if (!GetVarint64(in, &nbuckets) || nbuckets > in->size()) {
      return Status::Corruption("truncated bucket bitmaps");
    }
    block_buckets_.reserve(nbuckets);
    for (uint64_t i = 0; i < nbuckets; i++) {
      Bitmap b;
      if (!Bitmap::DecodeFrom(in, &b)) {
        return Status::Corruption("truncated bucket bitmap");
      }
      block_buckets_.push_back(std::move(b));
    }
  }
  return Status::OK();
}

void LayeredIndex::EncodeCheckpointState(
    const std::vector<FrozenTreeRef>& pending, std::string* dst) const {
  EncodeFirstLevel(dst);
  PutVarint64(dst, frozen_.size() + pending.size());
  auto put_ref = [dst](const FrozenTreeRef& ref) {
    if (ref.file_ordinal == FrozenTreeRef::kNoTree) {
      PutVarint32(dst, 0);
      return;
    }
    PutVarint32(dst, ref.file_ordinal + 1);
    PutVarint32(dst, ref.root);
    PutVarint64(dst, ref.entries);
  };
  for (const FrozenTreeRef& ref : frozen_) put_ref(ref);
  for (const FrozenTreeRef& ref : pending) put_ref(ref);
}

Status LayeredIndex::RestoreCheckpoint(BufferManager* pool,
                                       std::vector<BufferManager::FileId> files,
                                       Slice state) {
  if (num_blocks_ != 0) {
    return Status::InvalidArgument("restore requires a fresh index");
  }
  Slice in = state;
  Status s = DecodeFirstLevel(&in);
  if (!s.ok()) return s;
  uint64_t nrefs = 0;
  if (!GetVarint64(&in, &nrefs) || nrefs > in.size()) {
    return Status::Corruption("truncated frozen tree refs");
  }
  frozen_.clear();
  frozen_.reserve(nrefs);
  for (uint64_t i = 0; i < nrefs; i++) {
    uint32_t tag;
    if (!GetVarint32(&in, &tag)) {
      return Status::Corruption("truncated frozen tree ref");
    }
    FrozenTreeRef ref;
    if (tag != 0) {
      uint32_t root;
      uint64_t entries;
      if (!GetVarint32(&in, &root) || !GetVarint64(&in, &entries)) {
        return Status::Corruption("truncated frozen tree ref");
      }
      ref.file_ordinal = tag - 1;
      if (ref.file_ordinal >= files.size()) {
        return Status::Corruption("frozen tree ref past the delta file list");
      }
      ref.root = root;
      ref.entries = entries;
    }
    frozen_.push_back(ref);
  }
  if (!options_.discrete && block_buckets_.size() != nrefs) {
    return Status::Corruption("first level covers the wrong block count");
  }
  pool_ = pool;
  tree_files_ = std::move(files);
  num_blocks_ = nrefs;
  return Status::OK();
}

}  // namespace sebdb
