#include "core/thin_client.h"

#include "common/clock.h"

#include <chrono>
#include <set>

namespace sebdb {

namespace {

int64_t NowMicros() { return SteadyNowMicros(); }

RecordKeyFn ColumnKeyFn(int column_index) {
  return [column_index](const Slice& record, Value* key) -> Status {
    return Transaction::DecodeColumn(record, column_index, key);
  };
}

Status DecodeRecords(const std::vector<std::string>& records,
                     std::vector<Transaction>* out) {
  for (const auto& record : records) {
    Transaction txn;
    Slice input(record);
    Status s = Transaction::DecodeFrom(&input, &txn);
    if (!s.ok()) return s;
    out->push_back(std::move(txn));
  }
  return Status::OK();
}

}  // namespace

ThinClient::ThinClient(std::vector<SebdbNode*> full_nodes, uint64_t seed)
    : ThinClient(std::make_unique<DirectTransport>(full_nodes), seed) {}

ThinClient::ThinClient(std::unique_ptr<ThinClientTransport> transport,
                       uint64_t seed)
    : transport_(std::move(transport)),
      node_ids_(transport_->Nodes()),
      rng_(seed) {}

const std::string& ThinClient::PickNode() {
  return node_ids_[rng_.Uniform(node_ids_.size())];
}

Status ThinClient::SyncHeaders() {
  const std::string& node = PickNode();
  std::vector<BlockHeader> fresh;
  Status s = transport_->GetHeaders(node, headers_.size(), &fresh);
  if (!s.ok()) return s;
  for (auto& header : fresh) {
    // Chain continuity check before adopting a header.
    if (!headers_.empty() &&
        header.prev_hash != headers_.back().block_hash) {
      return Status::VerificationFailed("header chain broken at height " +
                                        std::to_string(header.height));
    }
    if (header.ComputeHash() != header.block_hash) {
      return Status::VerificationFailed("header hash mismatch at height " +
                                        std::to_string(header.height));
    }
    headers_.push_back(std::move(header));
  }
  return Status::OK();
}

Status ThinClient::AuthRangeQuery(const std::string& table,
                                  const std::string& column, int column_index,
                                  const Value* lo, const Value* hi,
                                  size_t num_auxiliary,
                                  size_t required_matching,
                                  std::vector<Transaction>* out,
                                  AuthQueryStats* stats) {
  *stats = AuthQueryStats{};

  // Phase 1: VO from a random full node.
  int64_t t0 = NowMicros();
  AuthQueryResponse response;
  Status s =
      transport_->ProveRange(PickNode(), table, column, lo, hi, &response);
  if (!s.ok()) return s;
  stats->server_micros = NowMicros() - t0;
  stats->vo_bytes = response.ByteSize();

  // Phase 2: digests from auxiliary nodes at the pinned height.
  std::vector<Hash256> digests;
  int64_t t1 = NowMicros();
  for (size_t i = 0; i < num_auxiliary; i++) {
    Hash256 digest;
    s = transport_->DigestRange(PickNode(), table, column, lo, hi,
                                response.chain_height, &digest);
    if (!s.ok()) return s;
    digests.push_back(digest);
  }
  stats->aux_micros = NowMicros() - t1;

  // Client: reconstruct roots, compare digests, check completeness.
  int64_t t2 = NowMicros();
  std::vector<std::string> records;
  s = AuthenticatedLayeredIndex::VerifyResponse(
      response, lo, hi, ColumnKeyFn(column_index), digests, required_matching,
      &records);
  if (!s.ok()) return s;
  s = DecodeRecords(records, out);
  if (!s.ok()) return s;
  stats->client_micros = NowMicros() - t2;
  stats->result_count = out->size();
  return Status::OK();
}

Status ThinClient::AuthTraceQuery(bool by_sender, const std::string& key,
                                  size_t num_auxiliary,
                                  size_t required_matching,
                                  std::vector<Transaction>* out,
                                  AuthQueryStats* stats,
                                  const Timestamp* window_start,
                                  const Timestamp* window_end) {
  *stats = AuthQueryStats{};
  Value v = Value::Str(key);
  // SenID is schema column 3, Tname column 4.
  int column_index = by_sender ? 3 : 4;

  int64_t t0 = NowMicros();
  AuthQueryResponse response;
  Status s = transport_->ProveTrace(PickNode(), by_sender, key, window_start,
                                    window_end, &response);
  if (!s.ok()) return s;
  stats->server_micros = NowMicros() - t0;
  stats->vo_bytes = response.ByteSize();

  std::vector<Hash256> digests;
  int64_t t1 = NowMicros();
  for (size_t i = 0; i < num_auxiliary; i++) {
    Hash256 digest;
    s = transport_->DigestTrace(PickNode(), by_sender, key,
                                response.chain_height, window_start,
                                window_end, &digest);
    if (!s.ok()) return s;
    digests.push_back(digest);
  }
  stats->aux_micros = NowMicros() - t1;

  int64_t t2 = NowMicros();
  std::vector<std::string> records;
  s = AuthenticatedLayeredIndex::VerifyResponse(
      response, &v, &v, ColumnKeyFn(column_index), digests, required_matching,
      &records);
  if (!s.ok()) return s;
  s = DecodeRecords(records, out);
  if (!s.ok()) return s;
  stats->client_micros = NowMicros() - t2;
  stats->result_count = out->size();
  return Status::OK();
}

Status ThinClient::AuthTraceTwoDimQuery(const std::string& operator_id,
                                        const std::string& operation,
                                        size_t num_auxiliary,
                                        size_t required_matching,
                                        std::vector<Transaction>* out,
                                        AuthQueryStats* stats) {
  *stats = AuthQueryStats{};

  // Phase 1: one full node answers both dimensions; retry until both
  // responses pin the same height (they almost always do — the indexes are
  // updated atomically per block).
  const std::string& full_node = PickNode();
  AuthQueryResponse sender_response, tname_response;
  int64_t t0 = NowMicros();
  for (int attempt = 0;; attempt++) {
    Status s = transport_->ProveTrace(full_node, /*by_sender=*/true,
                                      operator_id, nullptr, nullptr,
                                      &sender_response);
    if (!s.ok()) return s;
    s = transport_->ProveTrace(full_node, /*by_sender=*/false, operation,
                               nullptr, nullptr, &tname_response);
    if (!s.ok()) return s;
    if (sender_response.chain_height == tname_response.chain_height) break;
    if (attempt >= 3) {
      return Status::Busy("full node height moved between dimensions");
    }
  }
  uint64_t height = sender_response.chain_height;
  stats->server_micros = NowMicros() - t0;
  stats->vo_bytes = sender_response.ByteSize() + tname_response.ByteSize();

  // Phase 2: per auxiliary node, digests for both dimensions at the pinned
  // height.
  std::vector<Hash256> sender_digests, tname_digests;
  int64_t t1 = NowMicros();
  for (size_t i = 0; i < num_auxiliary; i++) {
    const std::string& aux = PickNode();
    Hash256 digest;
    Status s = transport_->DigestTrace(aux, true, operator_id, height,
                                       nullptr, nullptr, &digest);
    if (!s.ok()) return s;
    sender_digests.push_back(digest);
    s = transport_->DigestTrace(aux, false, operation, height, nullptr,
                                nullptr, &digest);
    if (!s.ok()) return s;
    tname_digests.push_back(digest);
  }
  stats->aux_micros = NowMicros() - t1;

  // Client: verify each dimension, then intersect by transaction id.
  int64_t t2 = NowMicros();
  Value op_key = Value::Str(operator_id);
  std::vector<std::string> sender_records;
  Status s = AuthenticatedLayeredIndex::VerifyResponse(
      sender_response, &op_key, &op_key, ColumnKeyFn(3), sender_digests,
      required_matching, &sender_records);
  if (!s.ok()) return s;
  Value tname_key = Value::Str(operation);
  std::vector<std::string> tname_records;
  s = AuthenticatedLayeredIndex::VerifyResponse(
      tname_response, &tname_key, &tname_key, ColumnKeyFn(4), tname_digests,
      required_matching, &tname_records);
  if (!s.ok()) return s;

  std::vector<Transaction> sender_txns, tname_txns;
  s = DecodeRecords(sender_records, &sender_txns);
  if (!s.ok()) return s;
  s = DecodeRecords(tname_records, &tname_txns);
  if (!s.ok()) return s;
  std::set<TransactionId> by_type;
  for (const auto& txn : tname_txns) by_type.insert(txn.tid());
  for (auto& txn : sender_txns) {
    if (by_type.contains(txn.tid())) out->push_back(std::move(txn));
  }
  stats->client_micros = NowMicros() - t2;
  stats->result_count = out->size();
  return Status::OK();
}

Status ThinClient::BasicScan(
    const std::function<bool(const Transaction&)>& keep,
    std::vector<Transaction>* out, AuthQueryStats* stats) {
  *stats = AuthQueryStats{};
  Status s = SyncHeaders();
  if (!s.ok()) return s;

  // "Server": transfer every block; the transferred bytes play the role of
  // the VO in the basic approach.
  int64_t t0 = NowMicros();
  std::vector<std::string> records;
  records.reserve(headers_.size());
  const std::string& node = PickNode();
  for (const auto& header : headers_) {
    std::string record;
    s = transport_->GetRawBlock(node, header.height, &record);
    if (!s.ok()) return s;
    stats->vo_bytes += record.size();
    records.push_back(std::move(record));
  }
  stats->server_micros = NowMicros() - t0;

  // Client: recompute each block's transaction Merkle root against the
  // stored header, then filter.
  int64_t t1 = NowMicros();
  for (size_t h = 0; h < records.size(); h++) {
    Block block;
    Slice input(records[h]);
    s = Block::DecodeFrom(&input, &block);
    if (!s.ok()) return s;
    if (block.ComputeMerkleRoot() != headers_[h].trans_root) {
      return Status::VerificationFailed("merkle root mismatch at height " +
                                        std::to_string(h));
    }
    for (const auto& txn : block.transactions()) {
      if (keep(txn)) out->push_back(txn);
    }
  }
  stats->client_micros = NowMicros() - t1;
  stats->result_count = out->size();
  return Status::OK();
}

Status ThinClient::BasicRangeQuery(const std::string& table, int column_index,
                                   const Value* lo, const Value* hi,
                                   std::vector<Transaction>* out,
                                   AuthQueryStats* stats) {
  return BasicScan(
      [&](const Transaction& txn) {
        if (txn.tname() != table) return false;
        Value v = txn.GetColumn(column_index);
        if (lo != nullptr && v.CompareTotal(*lo) < 0) return false;
        if (hi != nullptr && v.CompareTotal(*hi) > 0) return false;
        return true;
      },
      out, stats);
}

Status ThinClient::BasicTraceQuery(bool by_sender, const std::string& key,
                                   std::vector<Transaction>* out,
                                   AuthQueryStats* stats) {
  return BasicScan(
      [&](const Transaction& txn) {
        return by_sender ? txn.sender() == key : txn.tname() == key;
      },
      out, stats);
}

}  // namespace sebdb
