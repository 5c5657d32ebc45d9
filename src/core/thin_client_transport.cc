#include "core/thin_client_transport.h"

#include <cstring>

#include "common/coding.h"
#include "core/node.h"

namespace sebdb {

namespace thin_rpc {

namespace {

void PutOptionalValue(std::string* dst, bool present, const Value& v) {
  dst->push_back(present ? 1 : 0);
  if (present) v.EncodeTo(dst);
}

Status GetOptionalValue(Slice* input, bool* present, Value* v) {
  if (input->empty()) return Status::Corruption("truncated optional value");
  *present = (*input)[0] != 0;
  input->remove_prefix(1);
  if (*present && !Value::DecodeFrom(input, v)) {
    return Status::Corruption("truncated value");
  }
  return Status::OK();
}

}  // namespace

void RangeRequest::EncodeTo(std::string* dst) const {
  PutLengthPrefixed(dst, table);
  PutLengthPrefixed(dst, column);
  PutOptionalValue(dst, has_lo, lo);
  PutOptionalValue(dst, has_hi, hi);
  PutVarint64(dst, height);
}

Status RangeRequest::DecodeFrom(Slice* input, RangeRequest* out) {
  Slice table, column;
  if (!GetLengthPrefixed(input, &table) ||
      !GetLengthPrefixed(input, &column)) {
    return Status::Corruption("truncated range request");
  }
  out->table = table.ToString();
  out->column = column.ToString();
  Status s = GetOptionalValue(input, &out->has_lo, &out->lo);
  if (!s.ok()) return s;
  s = GetOptionalValue(input, &out->has_hi, &out->hi);
  if (!s.ok()) return s;
  if (!GetVarint64(input, &out->height)) {
    return Status::Corruption("truncated range request height");
  }
  return Status::OK();
}

void TraceRequest::EncodeTo(std::string* dst) const {
  dst->push_back(by_sender ? 1 : 0);
  PutLengthPrefixed(dst, key);
  dst->push_back(has_window ? 1 : 0);
  if (has_window) {
    PutVarSigned64(dst, window_start);
    PutVarSigned64(dst, window_end);
  }
  PutVarint64(dst, height);
}

Status TraceRequest::DecodeFrom(Slice* input, TraceRequest* out) {
  if (input->empty()) return Status::Corruption("truncated trace request");
  out->by_sender = (*input)[0] != 0;
  input->remove_prefix(1);
  Slice key;
  if (!GetLengthPrefixed(input, &key) || input->empty()) {
    return Status::Corruption("truncated trace request");
  }
  out->key = key.ToString();
  out->has_window = (*input)[0] != 0;
  input->remove_prefix(1);
  if (out->has_window) {
    if (!GetVarSigned64(input, &out->window_start) ||
        !GetVarSigned64(input, &out->window_end)) {
      return Status::Corruption("truncated trace window");
    }
  }
  if (!GetVarint64(input, &out->height)) {
    return Status::Corruption("truncated trace request height");
  }
  return Status::OK();
}

void EncodeHeaders(const std::vector<BlockHeader>& headers,
                   std::string* dst) {
  size_t size = VarintLength(headers.size());
  for (const auto& header : headers) size += header.EncodedSize();
  dst->reserve(dst->size() + size);
  PutVarint32(dst, static_cast<uint32_t>(headers.size()));
  for (const auto& header : headers) header.EncodeTo(dst);
}

Status DecodeHeaders(Slice* input, std::vector<BlockHeader>* out) {
  uint32_t n;
  if (!GetVarint32(input, &n)) return Status::Corruption("truncated headers");
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    BlockHeader header;
    Status s = BlockHeader::DecodeFrom(input, &header);
    if (!s.ok()) return s;
    out->push_back(std::move(header));
  }
  return Status::OK();
}

}  // namespace thin_rpc

// ---- DirectTransport ----

DirectTransport::DirectTransport(const std::vector<SebdbNode*>& nodes) {
  for (SebdbNode* node : nodes) nodes_[node->node_id()] = node;
}

std::vector<std::string> DirectTransport::Nodes() {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) out.push_back(id);
  return out;
}

Status DirectTransport::Find(const std::string& node, SebdbNode** out) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return Status::NotFound("unknown node " + node);
  *out = it->second;
  return Status::OK();
}

Status DirectTransport::GetHeaders(const std::string& node, BlockId from,
                                   std::vector<BlockHeader>* out) {
  SebdbNode* target;
  Status s = Find(node, &target);
  if (!s.ok()) return s;
  return target->GetHeaders(from, out);
}

Status DirectTransport::GetRawBlock(const std::string& node, BlockId height,
                                    std::string* record) {
  SebdbNode* target;
  Status s = Find(node, &target);
  if (!s.ok()) return s;
  return target->GetRawBlock(height, record);
}

Status DirectTransport::ProveRange(const std::string& node,
                                   const std::string& table,
                                   const std::string& column, const Value* lo,
                                   const Value* hi, AuthQueryResponse* out) {
  SebdbNode* target;
  Status s = Find(node, &target);
  if (!s.ok()) return s;
  return target->AuthProveRange(table, column, lo, hi, out);
}

Status DirectTransport::DigestRange(const std::string& node,
                                    const std::string& table,
                                    const std::string& column,
                                    const Value* lo, const Value* hi,
                                    uint64_t height, Hash256* digest) {
  SebdbNode* target;
  Status s = Find(node, &target);
  if (!s.ok()) return s;
  return target->AuthDigestRange(table, column, lo, hi, height, digest);
}

Status DirectTransport::ProveTrace(const std::string& node, bool by_sender,
                                   const std::string& key,
                                   const Timestamp* window_start,
                                   const Timestamp* window_end,
                                   AuthQueryResponse* out) {
  SebdbNode* target;
  Status s = Find(node, &target);
  if (!s.ok()) return s;
  return target->AuthProveTrace(by_sender, key, out, window_start,
                                window_end);
}

Status DirectTransport::DigestTrace(const std::string& node, bool by_sender,
                                    const std::string& key, uint64_t height,
                                    const Timestamp* window_start,
                                    const Timestamp* window_end,
                                    Hash256* digest) {
  SebdbNode* target;
  Status s = Find(node, &target);
  if (!s.ok()) return s;
  return target->AuthDigestTrace(by_sender, key, height, digest,
                                 window_start, window_end);
}

// ---- RpcThinTransport ----

RpcThinTransport::RpcThinTransport(std::string client_id, Network* network,
                                   std::vector<std::string> nodes,
                                   int64_t call_timeout_millis)
    : client_(std::move(client_id), network), nodes_(std::move(nodes)) {
  policy_.max_attempts = 1;
  policy_.attempt_timeout_millis = call_timeout_millis;
}

RpcThinTransport::RpcThinTransport(std::string client_id, Network* network,
                                   std::vector<std::string> nodes,
                                   const RetryPolicy& policy)
    : client_(std::move(client_id), network),
      nodes_(std::move(nodes)),
      policy_(policy) {}

Status RpcThinTransport::DoCall(const std::string& node, const char* method,
                                const std::string& request,
                                std::string* response) {
  return client_.Call(node, method, request, response, policy_);
}

Status RpcThinTransport::Submit(const std::string& node,
                                const Transaction& txn, uint64_t* height) {
  std::string request;
  txn.EncodeTo(&request);
  std::string response;
  Status s = DoCall(node, thin_rpc::kSubmit, request, &response);
  if (!s.ok()) return s;
  if (height != nullptr) {
    Slice input(response);
    if (!GetVarint64(&input, height)) {
      return Status::Corruption("bad submit response");
    }
  }
  return Status::OK();
}

Status RpcThinTransport::GetNodeStats(const std::string& node,
                                      NodeStats* out) {
  std::string response;
  Status s = DoCall(node, thin_rpc::kStats, "", &response);
  if (!s.ok()) return s;
  Slice input(response);
  if (!GetVarint64(&input, &out->height) || input.size() < 32) {
    return Status::Corruption("bad stats response");
  }
  std::memcpy(out->tip_hash.bytes.data(), input.data(), 32);
  input.remove_prefix(32);
  if (!GetVarint64(&input, &out->frames_rejected) ||
      !GetVarint64(&input, &out->overflow_drops)) {
    return Status::Corruption("bad stats response");
  }
  return Status::OK();
}

Status RpcThinTransport::GetHeaders(const std::string& node, BlockId from,
                                    std::vector<BlockHeader>* out) {
  std::string request;
  PutVarint64(&request, from);
  std::string response;
  Status s = DoCall(node, thin_rpc::kGetHeaders, request, &response);
  if (!s.ok()) return s;
  Slice input(response);
  return thin_rpc::DecodeHeaders(&input, out);
}

Status RpcThinTransport::GetRawBlock(const std::string& node, BlockId height,
                                     std::string* record) {
  std::string request;
  PutVarint64(&request, height);
  return DoCall(node, thin_rpc::kGetRawBlock, request, record);
}

Status RpcThinTransport::ProveRange(const std::string& node,
                                    const std::string& table,
                                    const std::string& column,
                                    const Value* lo, const Value* hi,
                                    AuthQueryResponse* out) {
  thin_rpc::RangeRequest request;
  request.table = table;
  request.column = column;
  if (lo != nullptr) {
    request.has_lo = true;
    request.lo = *lo;
  }
  if (hi != nullptr) {
    request.has_hi = true;
    request.hi = *hi;
  }
  std::string body, response;
  request.EncodeTo(&body);
  Status s = DoCall(node, thin_rpc::kProveRange, body, &response);
  if (!s.ok()) return s;
  Slice input(response);
  return AuthQueryResponse::DecodeFrom(&input, out);
}

Status RpcThinTransport::DigestRange(const std::string& node,
                                     const std::string& table,
                                     const std::string& column,
                                     const Value* lo, const Value* hi,
                                     uint64_t height, Hash256* digest) {
  thin_rpc::RangeRequest request;
  request.table = table;
  request.column = column;
  if (lo != nullptr) {
    request.has_lo = true;
    request.lo = *lo;
  }
  if (hi != nullptr) {
    request.has_hi = true;
    request.hi = *hi;
  }
  request.height = height;
  std::string body, response;
  request.EncodeTo(&body);
  Status s = DoCall(node, thin_rpc::kDigestRange, body, &response);
  if (!s.ok()) return s;
  if (response.size() != 32) return Status::Corruption("bad digest size");
  memcpy(digest->bytes.data(), response.data(), 32);
  return Status::OK();
}

Status RpcThinTransport::ProveTrace(const std::string& node, bool by_sender,
                                    const std::string& key,
                                    const Timestamp* window_start,
                                    const Timestamp* window_end,
                                    AuthQueryResponse* out) {
  thin_rpc::TraceRequest request;
  request.by_sender = by_sender;
  request.key = key;
  if (window_start != nullptr && window_end != nullptr) {
    request.has_window = true;
    request.window_start = *window_start;
    request.window_end = *window_end;
  }
  std::string body, response;
  request.EncodeTo(&body);
  Status s = DoCall(node, thin_rpc::kProveTrace, body, &response);
  if (!s.ok()) return s;
  Slice input(response);
  return AuthQueryResponse::DecodeFrom(&input, out);
}

Status RpcThinTransport::DigestTrace(const std::string& node, bool by_sender,
                                     const std::string& key, uint64_t height,
                                     const Timestamp* window_start,
                                     const Timestamp* window_end,
                                     Hash256* digest) {
  thin_rpc::TraceRequest request;
  request.by_sender = by_sender;
  request.key = key;
  if (window_start != nullptr && window_end != nullptr) {
    request.has_window = true;
    request.window_start = *window_start;
    request.window_end = *window_end;
  }
  request.height = height;
  std::string body, response;
  request.EncodeTo(&body);
  Status s = DoCall(node, thin_rpc::kDigestTrace, body, &response);
  if (!s.ok()) return s;
  if (response.size() != 32) return Status::Corruption("bad digest size");
  memcpy(digest->bytes.data(), response.data(), 32);
  return Status::OK();
}

}  // namespace sebdb
