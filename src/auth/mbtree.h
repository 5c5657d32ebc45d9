// Merkle B-tree (paper §VI, after Li et al. SIGMOD'06): a B+-tree whose
// leaves hash the records they hold and whose internal nodes hash the
// concatenation of their children's hashes. A range query produces a
// verification object (VO) from which an untrusting client recomputes the
// root hash and checks both soundness (every returned record hashes into the
// root) and completeness (boundary records prove nothing in the range was
// withheld).
//
// Our MB-trees are immutable: one per block, bulk-loaded from the block's
// transactions when a query first needs it (the ALI's second level; apply
// keeps only the root), so no insert/rebalance machinery exists.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/sha256.h"
#include "common/slice.h"
#include "common/status.h"
#include "types/value.h"

namespace sebdb {

/// Pruned-tree verification object for one MB-tree range query.
struct VerificationObject {
  enum class Kind : uint8_t {
    kPruned = 0,    // subtree outside the exposed range: hash only
    kLeaf = 1,      // expanded leaf: per-entry record or record hash
    kInternal = 2,  // expanded internal node: child VOs
  };

  struct LeafEntry {
    bool full = false;    // full record included (result or boundary)
    Hash256 hash;         // record hash when !full
    std::string record;   // record bytes when full
  };

  struct Node {
    Kind kind = Kind::kPruned;
    Hash256 hash;                  // kPruned
    std::vector<LeafEntry> entries;  // kLeaf
    std::vector<Node> children;    // kInternal
  };

  Node root;

  /// Serialized size — the paper's "VO size" metric (Fig. 17).
  size_t ByteSize() const;
  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, VerificationObject* out);
};

/// Extracts the index key from a record's bytes (the client re-derives keys
/// from returned records during verification).
using RecordKeyFn = std::function<Status(const Slice& record, Value* key)>;

class MbTree {
 public:
  struct Options {
    /// Max entries per leaf / children per internal node. The paper uses
    /// 4 KB pages with ~300 B transactions, i.e. roughly this many.
    size_t fanout = 16;
  };

  struct Entry {
    Value key;
    std::string record;
  };

  /// Builds the tree from entries sorted by key (duplicates allowed).
  static std::unique_ptr<MbTree> Build(std::vector<Entry> sorted_entries,
                                       const Options& options);
  static std::unique_ptr<MbTree> Build(std::vector<Entry> sorted_entries);

  /// Root hash of the tree Build would produce over records whose SHA-256
  /// hashes are `sorted_record_hashes` (same order), without materializing
  /// it: the same leaf/internal hashing, no keys or records kept. Block
  /// apply records only this root; the tree is rebuilt when a query needs it.
  static Hash256 ComputeRoot(const std::vector<Hash256>& sorted_record_hashes,
                             const Options& options);

  const Hash256& root_hash() const { return root_hash_; }
  size_t size() const { return keys_.size(); }
  int height() const { return height_; }

  /// Plain (unauthenticated) range lookup; appends record indices.
  void Range(const Value* lo, const Value* hi,
             std::vector<size_t>* indices) const;
  const std::string& record(size_t i) const { return records_[i]; }
  const Value& key(size_t i) const { return keys_[i]; }

  /// Builds the VO for range [lo, hi] (null = unbounded): result records plus
  /// one boundary record on each side, everything else pruned to hashes.
  Status ProveRange(const Value* lo, const Value* hi,
                    VerificationObject* vo) const;

  /// Client-side check. Recomputes the root from `vo`, compares with
  /// `trusted_root`, verifies ordering/contiguity/boundaries, and on success
  /// fills *records with exactly the in-range records.
  static Status VerifyRange(const Hash256& trusted_root,
                            const VerificationObject& vo, const Value* lo,
                            const Value* hi, const RecordKeyFn& key_of,
                            std::vector<std::string>* records);

  /// Like VerifyRange but returns the reconstructed root instead of comparing
  /// it — the two-phase protocol checks roots in aggregate, via the digest
  /// from auxiliary nodes (paper §VI).
  static Status ReconstructRoot(const VerificationObject& vo, const Value* lo,
                                const Value* hi, const RecordKeyFn& key_of,
                                std::vector<std::string>* records,
                                Hash256* root);

 private:
  struct Node {
    bool leaf = false;
    Hash256 hash;
    size_t start = 0;  // first covered entry index
    size_t count = 0;  // covered entries
    std::vector<std::unique_ptr<Node>> children;
  };

  MbTree() = default;

  VerificationObject::Node ProveNode(const Node& node, size_t expose_start,
                                     size_t expose_end) const;

  std::vector<Value> keys_;
  std::vector<std::string> records_;
  std::vector<Hash256> record_hashes_;
  std::unique_ptr<Node> root_;
  Hash256 root_hash_;
  int height_ = 0;
  Options options_;
};

}  // namespace sebdb
