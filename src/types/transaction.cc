#include "types/transaction.h"

#include "common/coding.h"

namespace sebdb {

Value Transaction::GetColumn(int index) const {
  switch (index) {
    case 0:
      return Value::Int(static_cast<int64_t>(tid_));
    case 1:
      return Value::Ts(ts_);
    case 2:
      return Value::Str(signature_);
    case 3:
      return Value::Str(sender_);
    case 4:
      return Value::Str(tname_);
    default: {
      int app = index - Schema::kNumSystemColumns;
      if (app < 0 || app >= static_cast<int>(values_.size())) {
        return Value::Null();
      }
      return values_[app];
    }
  }
}

Status Transaction::GetColumnByName(const Schema& schema,
                                    std::string_view name, Value* out) const {
  int idx = schema.ColumnIndex(name);
  if (idx < 0) {
    return Status::NotFound("no column named " + std::string(name));
  }
  *out = GetColumn(idx);
  return Status::OK();
}

std::string Transaction::SigningPayload() const {
  std::string payload;
  PutVarSigned64(&payload, ts_);
  PutLengthPrefixed(&payload, sender_);
  PutLengthPrefixed(&payload, tname_);
  PutVarint32(&payload, static_cast<uint32_t>(values_.size()));
  for (const auto& v : values_) v.EncodeTo(&payload);
  return payload;
}

void Transaction::EncodeTo(std::string* dst) const {
  PutVarint64(dst, tid_);
  PutVarSigned64(dst, ts_);
  PutLengthPrefixed(dst, signature_);
  PutLengthPrefixed(dst, sender_);
  PutLengthPrefixed(dst, tname_);
  PutVarint32(dst, static_cast<uint32_t>(values_.size()));
  for (const auto& v : values_) v.EncodeTo(dst);
}

Status Transaction::DecodeFrom(Slice* input, Transaction* out) {
  uint64_t tid;
  int64_t ts;
  Slice sig, sender, tname;
  uint32_t n;
  if (!GetVarint64(input, &tid) || !GetVarSigned64(input, &ts) ||
      !GetLengthPrefixed(input, &sig) || !GetLengthPrefixed(input, &sender) ||
      !GetLengthPrefixed(input, &tname) || !GetVarint32(input, &n)) {
    return Status::Corruption("truncated transaction");
  }
  std::vector<Value> values;
  values.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    Value v;
    if (!Value::DecodeFrom(input, &v)) {
      return Status::Corruption("truncated transaction value");
    }
    values.push_back(std::move(v));
  }
  out->tid_ = tid;
  out->ts_ = ts;
  out->signature_ = sig.ToString();
  out->sender_ = sender.ToString();
  out->tname_ = tname.ToString();
  out->values_ = std::move(values);
  return Status::OK();
}

Status Transaction::DecodeColumn(const Slice& record, int index, Value* out) {
  Slice input = record;
  uint64_t tid;
  if (!GetVarint64(&input, &tid)) {
    return Status::Corruption("truncated transaction");
  }
  if (index == 0) {
    *out = Value::Int(static_cast<int64_t>(tid));
    return Status::OK();
  }
  int64_t ts;
  if (!GetVarSigned64(&input, &ts)) {
    return Status::Corruption("truncated transaction");
  }
  if (index == 1) {
    *out = Value::Ts(ts);
    return Status::OK();
  }
  // Columns 2..4 (signature, sender, tname) follow in encoding order.
  for (int column = 2; column < Schema::kNumSystemColumns; column++) {
    Slice field;
    if (!GetLengthPrefixed(&input, &field)) {
      return Status::Corruption("truncated transaction");
    }
    if (column == index) {
      *out = Value::Str(field.ToString());
      return Status::OK();
    }
  }
  uint32_t n;
  if (!GetVarint32(&input, &n)) {
    return Status::Corruption("truncated transaction");
  }
  const int app = index - Schema::kNumSystemColumns;
  for (uint32_t i = 0; i < n; i++) {
    Value v;
    if (!Value::DecodeFrom(&input, &v)) {
      return Status::Corruption("truncated transaction value");
    }
    if (static_cast<int>(i) == app) {
      *out = std::move(v);
      return Status::OK();
    }
  }
  *out = Value::Null();
  return Status::OK();
}

Hash256 Transaction::Hash() const {
  std::string enc;
  EncodeTo(&enc);
  return Sha256::Digest(enc);
}

size_t Transaction::ByteSize() const {
  size_t n = sizeof(Transaction) + sender_.capacity() + tname_.capacity() +
             signature_.capacity();
  for (const auto& v : values_) n += v.ByteSize();
  return n;
}

std::string Transaction::ToString() const {
  std::string out = tname_ + "[tid=" + std::to_string(tid_) +
                    ", ts=" + std::to_string(ts_) + ", sender=" + sender_ +
                    "](";
  for (size_t i = 0; i < values_.size(); i++) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

bool Transaction::operator==(const Transaction& o) const {
  return tid_ == o.tid_ && ts_ == o.ts_ && sender_ == o.sender_ &&
         tname_ == o.tname_ && signature_ == o.signature_ &&
         values_ == o.values_;
}

}  // namespace sebdb
