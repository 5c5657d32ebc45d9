#include "sql/catalog.h"

#include "common/coding.h"

namespace sebdb {

Status Catalog::RegisterSchema(Schema schema) {
  MutexLock lock(&mu_);
  auto it = schemas_.find(schema.table_name());
  if (it != schemas_.end()) {
    if (it->second == schema) return Status::OK();  // idempotent replay
    return Status::InvalidArgument("table already exists with a different "
                                   "schema: " +
                                   schema.table_name());
  }
  schemas_[schema.table_name()] = std::move(schema);
  return Status::OK();
}

Status Catalog::GetSchema(const std::string& table, Schema* out) const {
  MutexLock lock(&mu_);
  auto it = schemas_.find(table);
  if (it == schemas_.end()) {
    return Status::NotFound("no on-chain table named " + table);
  }
  *out = it->second;
  return Status::OK();
}

bool Catalog::HasTable(const std::string& table) const {
  MutexLock lock(&mu_);
  return schemas_.contains(table);
}

std::vector<std::string> Catalog::TableNames() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(schemas_.size());
  for (const auto& [name, schema] : schemas_) names.push_back(name);
  return names;
}

Transaction Catalog::MakeSchemaTransaction(const Schema& schema) {
  std::string encoded;
  schema.EncodeTo(&encoded);
  return Transaction(kSchemaTable, {Value::Str(std::move(encoded))});
}

namespace {

// True when `txn` is a well-formed schema-sync transaction; decodes the
// carried schema into *out without applying it.
bool DecodeSchemaTransaction(const Transaction& txn, Schema* out) {
  if (txn.tname() != Catalog::kSchemaTable || txn.values().size() != 1 ||
      txn.values()[0].type() != ValueType::kString) {
    return false;
  }
  Slice input(txn.values()[0].AsString());
  return Schema::DecodeFrom(&input, out).ok();
}

}  // namespace

bool Catalog::MaybeApplySchemaTransaction(const Transaction& txn) {
  Schema schema;
  if (!DecodeSchemaTransaction(txn, &schema)) return false;
  RegisterSchema(std::move(schema)).ok();
  return true;
}

void Catalog::EncodeTo(std::string* dst) const {
  MutexLock lock(&mu_);
  PutVarint32(dst, static_cast<uint32_t>(schemas_.size()));
  for (const auto& [name, schema] : schemas_) {  // std::map: already sorted
    schema.EncodeTo(dst);
  }
}

Status Catalog::RestoreFrom(Slice* in) {
  uint32_t n;
  if (!GetVarint32(in, &n) || n > in->size()) {
    return Status::Corruption("truncated catalog");
  }
  MutexLock lock(&mu_);
  schemas_.clear();
  for (uint32_t i = 0; i < n; i++) {
    Schema schema;
    Status s = Schema::DecodeFrom(in, &schema);
    if (!s.ok()) return s;
    std::string name = schema.table_name();
    schemas_[std::move(name)] = std::move(schema);
  }
  return Status::OK();
}

void Catalog::Clear() {
  MutexLock lock(&mu_);
  schemas_.clear();
}

}  // namespace sebdb
