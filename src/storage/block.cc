#include "storage/block.h"

#include "common/coding.h"
#include "storage/merkle_tree.h"

namespace sebdb {

std::string BlockHeader::HashPayload() const {
  std::string payload;
  payload.append(reinterpret_cast<const char*>(prev_hash.bytes.data()),
                 prev_hash.bytes.size());
  PutVarint64(&payload, height);
  PutVarSigned64(&payload, timestamp);
  payload.append(reinterpret_cast<const char*>(trans_root.bytes.data()),
                 trans_root.bytes.size());
  PutVarint32(&payload, num_transactions);
  PutVarint64(&payload, first_tid);
  return payload;
}

Hash256 BlockHeader::ComputeHash() const { return Sha256::Digest(HashPayload()); }

void BlockHeader::EncodeTo(std::string* dst) const {
  dst->append(reinterpret_cast<const char*>(prev_hash.bytes.data()), 32);
  PutVarint64(dst, height);
  PutVarSigned64(dst, timestamp);
  dst->append(reinterpret_cast<const char*>(trans_root.bytes.data()), 32);
  PutLengthPrefixed(dst, signature);
  dst->append(reinterpret_cast<const char*>(block_hash.bytes.data()), 32);
  PutVarint32(dst, num_transactions);
  PutVarint64(dst, first_tid);
}

size_t BlockHeader::EncodedSize() const {
  return 3 * 32 + VarintLength(height) +
         VarintLength(ZigZagEncode(timestamp)) +
         VarintLength(signature.size()) + signature.size() +
         VarintLength(num_transactions) + VarintLength(first_tid);
}

namespace {

bool GetHash256(Slice* input, Hash256* out) {
  if (input->size() < 32) return false;
  memcpy(out->bytes.data(), input->data(), 32);
  input->remove_prefix(32);
  return true;
}

}  // namespace

Status BlockHeader::DecodeFrom(Slice* input, BlockHeader* out) {
  Slice sig;
  uint64_t height, first_tid;
  int64_t ts;
  uint32_t num_txns;
  if (!GetHash256(input, &out->prev_hash) || !GetVarint64(input, &height) ||
      !GetVarSigned64(input, &ts) || !GetHash256(input, &out->trans_root) ||
      !GetLengthPrefixed(input, &sig) || !GetHash256(input, &out->block_hash) ||
      !GetVarint32(input, &num_txns) || !GetVarint64(input, &first_tid)) {
    return Status::Corruption("truncated block header");
  }
  out->height = height;
  out->timestamp = ts;
  out->signature = sig.ToString();
  out->num_transactions = num_txns;
  out->first_tid = first_tid;
  return Status::OK();
}

std::vector<Hash256> Block::TransactionHashes() const {
  std::vector<Hash256> hashes;
  hashes.reserve(transactions_.size());
  for (const auto& txn : transactions_) hashes.push_back(txn.Hash());
  return hashes;
}

Hash256 Block::ComputeMerkleRoot() const {
  return MerkleTree::ComputeRoot(TransactionHashes());
}

void Block::EncodeTo(std::string* dst) const {
  std::string header;
  header_.EncodeTo(&header);
  PutFixed32(dst, static_cast<uint32_t>(header.size()));
  dst->append(header);

  const auto n = static_cast<uint32_t>(transactions_.size());
  PutFixed32(dst, n);

  std::string body;
  std::vector<uint32_t> offsets;
  offsets.reserve(n);
  for (const auto& txn : transactions_) {
    offsets.push_back(static_cast<uint32_t>(body.size()));
    txn.EncodeTo(&body);
  }
  for (uint32_t off : offsets) PutFixed32(dst, off);
  dst->append(body);
}

Status Block::DecodeFrom(Slice* input, Block* out) {
  uint32_t header_len;
  if (!GetFixed32(input, &header_len) || input->size() < header_len) {
    return Status::Corruption("truncated block record");
  }
  Slice header_slice(input->data(), header_len);
  input->remove_prefix(header_len);
  Status s = BlockHeader::DecodeFrom(&header_slice, &out->header_);
  if (!s.ok()) return s;

  uint32_t n;
  if (!GetFixed32(input, &n)) return Status::Corruption("truncated block body");
  if (input->size() < static_cast<size_t>(n) * 4) {
    return Status::Corruption("truncated block offset table");
  }
  input->remove_prefix(static_cast<size_t>(n) * 4);  // offsets not needed here

  out->transactions_.clear();
  out->transactions_.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    Transaction txn;
    s = Transaction::DecodeFrom(input, &txn);
    if (!s.ok()) return s;
    out->transactions_.push_back(std::move(txn));
  }
  return Status::OK();
}

Status Block::DecodeOneTransaction(const Slice& record, uint32_t index,
                                   Transaction* out) {
  Slice input = record;
  uint32_t header_len;
  if (!GetFixed32(&input, &header_len) || input.size() < header_len) {
    return Status::Corruption("truncated block record");
  }
  input.remove_prefix(header_len);
  uint32_t n;
  if (!GetFixed32(&input, &n)) return Status::Corruption("truncated block body");
  if (index >= n) return Status::InvalidArgument("transaction index out of range");
  if (input.size() < static_cast<size_t>(n) * 4) {
    return Status::Corruption("truncated block offset table");
  }
  uint32_t off = DecodeFixed32(input.data() + static_cast<size_t>(index) * 4);
  Slice body(input.data() + static_cast<size_t>(n) * 4,
             input.size() - static_cast<size_t>(n) * 4);
  if (off > body.size()) return Status::Corruption("bad transaction offset");
  Slice txn_slice(body.data() + off, body.size() - off);
  return Transaction::DecodeFrom(&txn_slice, out);
}

Status Block::DecodeHeader(const Slice& record, BlockHeader* out) {
  Slice input = record;
  uint32_t header_len;
  if (!GetFixed32(&input, &header_len) || input.size() < header_len) {
    return Status::Corruption("truncated block record");
  }
  Slice header_slice(input.data(), header_len);
  return BlockHeader::DecodeFrom(&header_slice, out);
}

Status Block::Validate() const {
  if (header_.num_transactions != transactions_.size()) {
    return Status::Corruption("header transaction count mismatch");
  }
  if (ComputeMerkleRoot() != header_.trans_root) {
    return Status::Corruption("merkle root mismatch");
  }
  if (header_.ComputeHash() != header_.block_hash) {
    return Status::Corruption("block hash mismatch");
  }
  if (!transactions_.empty() &&
      transactions_[0].tid() != header_.first_tid) {
    return Status::Corruption("first tid mismatch");
  }
  return Status::OK();
}

size_t Block::ByteSize() const {
  size_t n = sizeof(Block) + header_.signature.capacity();
  for (const auto& txn : transactions_) n += txn.ByteSize();
  return n;
}

Block BlockBuilder::Build(std::string signature) && {
  TransactionId tid = first_tid_;
  for (auto& txn : transactions_) txn.set_tid(tid++);

  BlockHeader header;
  header.prev_hash = prev_hash_;
  header.height = height_;
  header.timestamp = timestamp_;
  header.num_transactions = static_cast<uint32_t>(transactions_.size());
  header.first_tid = first_tid_;

  Block block(std::move(header), std::move(transactions_));
  block.mutable_header()->trans_root = block.ComputeMerkleRoot();
  block.mutable_header()->signature = std::move(signature);
  block.mutable_header()->block_hash = block.header().ComputeHash();
  return block;
}

}  // namespace sebdb
