// Transaction: one on-chain tuple (paper §IV-A). Carries the five
// system-level attributes (Tid, Ts, Sig, SenID, Tname) plus the
// application-level attribute values declared by the table's schema.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/sha256.h"
#include "common/slice.h"
#include "common/status.h"
#include "types/schema.h"
#include "types/value.h"

namespace sebdb {

/// Global transaction id: position in the chain's total order, assigned at
/// block packaging time (monotone across blocks, per the block-level index
/// invariant in §IV-B).
using TransactionId = uint64_t;

class Transaction {
 public:
  Transaction() = default;
  Transaction(std::string tname, std::vector<Value> values)
      : tname_(std::move(tname)), values_(std::move(values)) {}

  TransactionId tid() const { return tid_; }
  Timestamp ts() const { return ts_; }
  const std::string& sender() const { return sender_; }
  const std::string& tname() const { return tname_; }
  const std::string& signature() const { return signature_; }
  const std::vector<Value>& values() const { return values_; }

  void set_tid(TransactionId tid) { tid_ = tid; }
  void set_ts(Timestamp ts) { ts_ = ts; }
  void set_sender(std::string sender) { sender_ = std::move(sender); }
  void set_tname(std::string tname) { tname_ = std::move(tname); }
  void set_signature(std::string sig) { signature_ = std::move(sig); }
  void set_values(std::vector<Value> values) { values_ = std::move(values); }

  /// Returns the value at a schema column index; indexes 0..4 synthesize the
  /// system columns, the rest read the application attributes.
  Value GetColumn(int index) const;
  /// Column lookup by name against the given schema; NotFound if absent.
  Status GetColumnByName(const Schema& schema, std::string_view name,
                         Value* out) const;

  /// Bytes covered by the signature: everything except tid and signature
  /// (tid is assigned after signing, by the orderer).
  std::string SigningPayload() const;

  /// Full binary encoding (appended to block bodies and gossip messages).
  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice* input, Transaction* out);
  /// GetColumn(index) of the transaction encoded in `record`, decoding only
  /// up to that column: system columns never touch the values, and an
  /// application column skips the ones before it. Corruption if the record
  /// ends before the column.
  static Status DecodeColumn(const Slice& record, int index, Value* out);

  /// SHA-256 over the full encoding; leaf hash of the block Merkle tree.
  Hash256 Hash() const;

  /// Approximate in-memory footprint, used by the transaction cache.
  size_t ByteSize() const;

  std::string ToString() const;

  bool operator==(const Transaction& o) const;

 private:
  TransactionId tid_ = 0;
  Timestamp ts_ = 0;
  std::string sender_;
  std::string tname_;
  std::string signature_;
  std::vector<Value> values_;
};

}  // namespace sebdb
