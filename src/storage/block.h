// Block layout (paper §IV-A, Fig. 3): a header carrying prevHash,
// blockHeight, timestamp, transRoot, signature and blockHash, plus a body of
// transactions. The serialized body carries a per-transaction offset table so
// a single tuple can be read without decoding the whole block (the layered
// index's random-read path).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/sha256.h"
#include "common/slice.h"
#include "common/status.h"
#include "types/transaction.h"

namespace sebdb {

using BlockId = uint64_t;

struct BlockHeader {
  Hash256 prev_hash;
  BlockId height = 0;
  Timestamp timestamp = 0;
  Hash256 trans_root;
  std::string signature;  // packager's signature over the fields above
  Hash256 block_hash;     // hash over all fields above
  uint32_t num_transactions = 0;
  TransactionId first_tid = 0;  // tid of the first transaction in the body

  /// Bytes covered by block_hash and by the packager signature.
  std::string HashPayload() const;
  /// Recomputes block_hash from the other fields.
  Hash256 ComputeHash() const;

  void EncodeTo(std::string* dst) const;
  /// Exactly the number of bytes EncodeTo appends.
  size_t EncodedSize() const;
  static Status DecodeFrom(Slice* input, BlockHeader* out);

  bool operator==(const BlockHeader&) const = default;
};

class Block {
 public:
  Block() = default;
  Block(BlockHeader header, std::vector<Transaction> transactions)
      : header_(std::move(header)), transactions_(std::move(transactions)) {}

  const BlockHeader& header() const { return header_; }
  BlockHeader* mutable_header() { return &header_; }
  const std::vector<Transaction>& transactions() const {
    return transactions_;
  }
  BlockId height() const { return header_.height; }

  /// Leaf hashes of the body, in order.
  std::vector<Hash256> TransactionHashes() const;
  /// Merkle root over TransactionHashes().
  Hash256 ComputeMerkleRoot() const;

  /// Serialized record: header, then an offset table, then the encoded
  /// transactions. Self-contained (decodable from the byte range alone).
  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, Block* out);

  /// Decodes only transaction `index` from a serialized block record,
  /// without materializing the others.
  static Status DecodeOneTransaction(const Slice& record, uint32_t index,
                                     Transaction* out);
  /// Decodes only the header from a serialized block record.
  static Status DecodeHeader(const Slice& record, BlockHeader* out);

  /// Integrity check: recomputed merkle root and block hash match header.
  Status Validate() const;

  size_t ByteSize() const;

 private:
  BlockHeader header_;
  std::vector<Transaction> transactions_;
};

/// Assembles a block from ordered transactions: assigns consecutive tids
/// starting at first_tid, fills the header (prev hash, height, timestamp,
/// merkle root) and computes the block hash. The packager signature is set
/// by the caller (consensus layer) via SignWith.
class BlockBuilder {
 public:
  BlockBuilder& SetPrevHash(const Hash256& h) {
    prev_hash_ = h;
    return *this;
  }
  BlockBuilder& SetHeight(BlockId h) {
    height_ = h;
    return *this;
  }
  BlockBuilder& SetTimestamp(Timestamp ts) {
    timestamp_ = ts;
    return *this;
  }
  BlockBuilder& SetFirstTid(TransactionId tid) {
    first_tid_ = tid;
    return *this;
  }
  BlockBuilder& AddTransaction(Transaction txn) {
    transactions_.push_back(std::move(txn));
    return *this;
  }

  /// Builds the block; `signature` is the packager's signature (may be
  /// filled in later through mutable_header()).
  Block Build(std::string signature = "") &&;

 private:
  Hash256 prev_hash_;
  BlockId height_ = 0;
  Timestamp timestamp_ = 0;
  TransactionId first_tid_ = 1;
  std::vector<Transaction> transactions_;
};

}  // namespace sebdb
