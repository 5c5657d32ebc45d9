// Disk-resident, immutable, bulk-loaded B+-tree stored as pages in a
// BufferManager file — the persistent counterpart of index/bptree.h. Blocks
// are immutable once chained, so checkpointed trees are built once, bottom
// up, leaves packed full, and never rebalanced: a builder streams sorted
// entries into leaf pages (chained by sequential page ids, since nothing
// interleaves between leaves of one tree), then writes the internal levels.
// Several trees can share one file (per-block trees of a layered index); a
// tree is identified by {file, root page, entry count}.
//
// Read paths mirror BpTree: Begin / SeekGE / SeekFirstTrue (monotone
// predicate descent — the co-monotone block-index trick works unchanged on
// disk) / RangeScan, with a linked-leaf Iterator. Every page fault goes
// through the buffer pool (CRC-validated, LRU-evicted). Pages are parsed in
// place, the block-iterator idiom of LevelDB/RocksDB: a descent decodes
// separators one at a time until the predicate holds and reads that child
// id straight out of the page, and an iterator keeps its current leaf
// pinned and decodes one entry per Next() into a reused key/value. A
// PageRef owns an immutable frame, so holding one is safe across eviction;
// an iterator pins at most one page and releases it at the end. I/O and
// decode errors surface through Iterator::status() — a truncated entry
// when the cursor reaches it.
//
// Codec supplies the key/value serialization:
//   static void EncodeKey(std::string*, const Key&);
//   static bool DecodeKey(Slice*, Key*);
//   static void EncodeVal(std::string*, const Val&);
//   static bool DecodeVal(Slice*, Val*);
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"

namespace sebdb {

template <typename Key, typename Val, typename Codec,
          typename Cmp = std::less<Key>>
class DiskBpTree {
 public:
  struct Ref {
    BufferManager::FileId file = BufferManager::kInvalidFileId;
    PageId root = kInvalidPageId;  // kInvalidPageId = empty tree (no pages)
    uint64_t entries = 0;
  };

  DiskBpTree() = default;
  DiskBpTree(BufferManager* pool, Ref ref, Cmp cmp = Cmp())
      : pool_(pool), ref_(ref), cmp_(std::move(cmp)) {}

  uint64_t size() const { return ref_.entries; }
  bool empty() const { return ref_.entries == 0; }
  const Ref& ref() const { return ref_; }

  // Page payloads, parsed in place (also by the page-decode fuzzer — a
  // payload crosses the same trust boundary as its page image):
  //   leaf:     fixed32 next leaf | varint32 count | count x (key, value)
  //   internal: varint32 nkeys | (nkeys + 1) x fixed32 child id |
  //             nkeys x separator key (the first key of children 1..nkeys)

  /// Reads a leaf header, leaving *in at the first entry.
  static bool ParseLeafHeader(Slice* in, PageId* next, uint32_t* count) {
    return GetFixed32(in, next) && GetVarint32(in, count);
  }

  /// One descent step: the child of internal payload `in` left of its first
  /// separator where pred holds (the last child if none does). Separators
  /// are decoded one at a time into *sep, and the child id is read straight
  /// out of the child array.
  template <typename Pred>
  static Status ChildOf(Slice in, const Pred& pred, Key* sep, PageId* child) {
    uint32_t nkeys;
    if (!GetVarint32(&in, &nkeys)) {
      return Status::Corruption("truncated internal page header");
    }
    if (in.size() / 4 <= nkeys) {
      return Status::Corruption("truncated child pointer");
    }
    const char* children = in.data();
    in.remove_prefix((size_t{nkeys} + 1) * 4);
    uint32_t i = 0;
    for (; i < nkeys; i++) {
      if (!Codec::DecodeKey(&in, sep)) {
        return Status::Corruption("truncated separator key");
      }
      if (pred(*sep)) break;
    }
    *child = DecodeFixed32(children + 4 * size_t{i});
    return Status::OK();
  }

  class Iterator {
   public:
    Iterator() = default;
    bool Valid() const { return valid_; }
    const Key& key() const { return key_; }
    const Val& value() const { return val_; }
    /// OK while iterating and at a clean end; an I/O or decode error
    /// invalidates the iterator and is reported here.
    const Status& status() const { return status_; }

    void Next() {
      if (valid_) Advance();
    }

   private:
    friend class DiskBpTree;
    Iterator(BufferManager* pool, BufferManager::FileId file)
        : pool_(pool), file_(file) {}

    // Makes `page` the current leaf, with the cursor before its first entry.
    Status EnterLeaf(BufferManager::PageRef page) {
      if (page.type() != PageType::kBTreeLeaf) {
        return Status::Corruption("expected a leaf page");
      }
      cursor_ = page.payload();
      if (!ParseLeafHeader(&cursor_, &next_, &left_)) {
        return Status::Corruption("truncated leaf page header");
      }
      page_ = std::move(page);
      return Status::OK();
    }

    // Decodes the entry under the cursor, following the leaf chain (and
    // skipping empty leaves) once the current leaf is used up.
    void Advance() {
      while (left_ == 0) {
        if (next_ == kInvalidPageId) return Stop(Status::OK());
        page_.Release();
        BufferManager::PageRef page;
        Status s = pool_->Pin(file_, next_, &page);
        if (s.ok()) s = EnterLeaf(std::move(page));
        if (!s.ok()) return Stop(std::move(s));
      }
      if (!Codec::DecodeKey(&cursor_, &key_) ||
          !Codec::DecodeVal(&cursor_, &val_)) {
        return Stop(Status::Corruption("truncated leaf entry"));
      }
      left_--;
      valid_ = true;
    }

    // Ends the iteration with `s` and drops the pin.
    void Stop(Status s) {
      valid_ = false;
      left_ = 0;
      next_ = kInvalidPageId;
      page_.Release();
      status_ = std::move(s);
    }

    BufferManager* pool_ = nullptr;
    BufferManager::FileId file_ = BufferManager::kInvalidFileId;
    BufferManager::PageRef page_;  // current leaf; cursor_ points into it
    Slice cursor_;
    uint32_t left_ = 0;  // entries of the current leaf not yet decoded
    PageId next_ = kInvalidPageId;
    Key key_{};
    Val val_{};
    bool valid_ = false;
    Status status_;
  };

  Iterator Begin() const {
    return SeekFirstTrue([](const Key&) { return true; });
  }

  Iterator SeekGE(const Key& target) const {
    return SeekFirstTrue([&](const Key& k) { return !cmp_(k, target); });
  }

  Iterator SeekGT(const Key& target) const {
    return SeekFirstTrue([&](const Key& k) { return cmp_(target, k); });
  }

  /// First entry where pred(key) is true; pred must be monotone (false
  /// prefix, then true) over the key order.
  template <typename Pred>
  Iterator SeekFirstTrue(const Pred& pred) const {
    Iterator it(pool_, ref_.file);
    if (ref_.root == kInvalidPageId) return it;
    Key sep{};
    Status s;
    for (PageId pid = ref_.root; s.ok();) {
      BufferManager::PageRef page;
      s = pool_->Pin(ref_.file, pid, &page);
      if (!s.ok()) break;
      if (page.type() == PageType::kBTreeLeaf) {
        s = it.EnterLeaf(std::move(page));
        if (!s.ok()) break;
        // The first true key is in this leaf or, for a monotone pred,
        // starts the next one.
        for (it.Advance(); it.Valid() && !pred(it.key()); it.Advance()) {
        }
        return it;
      }
      s = page.type() == PageType::kBTreeInternal
              ? ChildOf(page.payload(), pred, &sep, &pid)
              : Status::Corruption("unexpected page type in tree");
    }
    it.Stop(std::move(s));
    return it;
  }

  /// Collects values for keys in [lo, hi] into *out; returns the count.
  /// I/O errors are reported through *status when non-null.
  size_t RangeScan(const Key& lo, const Key& hi, std::vector<Val>* out,
                   Status* status = nullptr) const {
    size_t n = 0;
    Iterator it = SeekGE(lo);
    for (; it.Valid() && !cmp_(hi, it.key()); it.Next()) {
      out->push_back(it.value());
      n++;
    }
    if (status != nullptr) *status = it.status();
    return n;
  }

 private:
  BufferManager* pool_ = nullptr;
  Ref ref_;
  Cmp cmp_{};
};

/// Streams sorted entries into a new tree appended to `file`. Usage:
///   DiskBpTreeBuilder<...> b(pool, file);
///   for (...) b.Add(key, val);        // keys non-decreasing
///   b.Finish(&ref);                    // writes pending pages
/// The caller flushes the file (BufferManager::Flush) once all trees sharing
/// it are built.
template <typename Key, typename Val, typename Codec,
          typename Cmp = std::less<Key>>
class DiskBpTreeBuilder {
 public:
  using Tree = DiskBpTree<Key, Val, Codec, Cmp>;

  DiskBpTreeBuilder(BufferManager* pool, BufferManager::FileId file)
      : pool_(pool), file_(file) {}

  Status Add(const Key& key, const Val& val) {
    std::string enc;
    Codec::EncodeKey(&enc, key);
    Codec::EncodeVal(&enc, val);
    // 4 bytes next pointer + up to 5 bytes count prefix.
    if (enc.size() + 9 > kMaxPagePayload) {
      return Status::InvalidArgument("index entry too large for a page");
    }
    if (leaf_buf_.size() + enc.size() + 9 > kMaxPagePayload) {
      Status s = FlushLeaf(/*has_next=*/true);
      if (!s.ok()) return s;
    }
    if (leaf_count_ == 0) leaf_first_key_ = key;
    leaf_buf_.append(enc);
    leaf_count_++;
    entries_++;
    return Status::OK();
  }

  /// Writes the last leaf and the internal levels; fills *out.
  Status Finish(typename Tree::Ref* out) {
    out->file = file_;
    out->entries = entries_;
    out->root = kInvalidPageId;
    if (entries_ == 0) return Status::OK();
    Status s = FlushLeaf(/*has_next=*/false);
    if (!s.ok()) return s;

    // Build internal levels bottom-up from (first key, child pid) pairs.
    std::vector<std::pair<std::string, PageId>> level =
        std::move(level_entries_);
    while (level.size() > 1) {
      std::vector<std::pair<std::string, PageId>> up;
      size_t i = 0;
      while (i < level.size()) {
        // Pack children while the payload fits: varint nkeys + (n+1) pids +
        // n separator keys (first keys of children 1..n).
        std::string pids, keys;
        size_t take = 0;
        while (i + take < level.size()) {
          const auto& child = level[i + take];
          size_t added = 4 + (take > 0 ? child.first.size() : 0);
          if (take >= 2 && 5 + pids.size() + keys.size() + added + 4 >
                               kMaxPagePayload) {
            break;
          }
          PutFixed32(&pids, child.second);
          if (take > 0) keys.append(child.first);
          take++;
        }
        std::string payload;
        PutVarint32(&payload, static_cast<uint32_t>(take - 1));
        payload.append(pids);
        payload.append(keys);
        PageId pid;
        s = pool_->AppendPage(file_, PageType::kBTreeInternal, payload, &pid);
        if (!s.ok()) return s;
        up.emplace_back(level[i].first, pid);
        i += take;
      }
      level = std::move(up);
    }
    out->root = level[0].second;
    return Status::OK();
  }

 private:
  Status FlushLeaf(bool has_next) {
    std::string payload;
    // The next leaf, if any, is the very next page appended: internal pages
    // are only written at Finish, after every leaf.
    PageId pid = static_cast<PageId>(pool_->file_pages(file_));
    PutFixed32(&payload, has_next ? pid + 1 : kInvalidPageId);
    PutVarint32(&payload, leaf_count_);
    payload.append(leaf_buf_);
    PageId got;
    Status s = pool_->AppendPage(file_, PageType::kBTreeLeaf, payload, &got);
    if (!s.ok()) return s;
    if (got != pid) {
      return Status::IOError("concurrent append to index file");
    }
    std::string first_key;
    Codec::EncodeKey(&first_key, leaf_first_key_);
    level_entries_.emplace_back(std::move(first_key), pid);
    leaf_buf_.clear();
    leaf_count_ = 0;
    return Status::OK();
  }

  BufferManager* pool_;
  BufferManager::FileId file_;
  std::string leaf_buf_;
  uint32_t leaf_count_ = 0;
  Key leaf_first_key_{};
  uint64_t entries_ = 0;
  // (encoded first key, pid) per leaf, consumed by Finish.
  std::vector<std::pair<std::string, PageId>> level_entries_;
};

}  // namespace sebdb
