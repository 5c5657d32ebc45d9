// Catalog of on-chain table schemas. Schemas are created by CREATE
// statements, shipped between nodes as special "__schema" system
// transactions (paper §IV-A: "the system sends a special transaction to
// synchronize schema among nodes"), and replayed from the chain on recovery.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "types/schema.h"
#include "types/transaction.h"

namespace sebdb {

class Catalog {
 public:
  /// Table name of the schema-sync system transactions.
  static constexpr const char* kSchemaTable = "__schema";

  Status RegisterSchema(Schema schema);
  Status GetSchema(const std::string& table, Schema* out) const;
  bool HasTable(const std::string& table) const;
  std::vector<std::string> TableNames() const;

  /// Builds the schema-sync transaction carrying `schema` (sender/signature
  /// are filled by the submitting node).
  static Transaction MakeSchemaTransaction(const Schema& schema);

  /// If `txn` is a schema-sync transaction, registers the schema it carries
  /// and returns true (idempotent re-registration is OK — every node replays
  /// the chain).
  bool MaybeApplySchemaTransaction(const Transaction& txn);

  /// Checkpoint codec: all schemas in table-name order (deterministic bytes).
  void EncodeTo(std::string* dst) const;
  Status RestoreFrom(Slice* in);

  /// Drops every schema (checkpoint-restore fallback to full replay).
  void Clear();

 private:
  mutable Mutex mu_;
  std::map<std::string, Schema> schemas_ GUARDED_BY(mu_);
};

}  // namespace sebdb
