// Seeded BChainBench inputs for the end-to-end benchmark: the donation
// schema, the preloaded chains the read_write and sql_query workloads open,
// and the ground truth every query result is checked against. Chains are
// written through the public ChainManager API with the node's default chain
// options, so the bytes on disk are exactly what a node would have written.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/signer.h"
#include "types/transaction.h"

namespace sebdb {
namespace e2e {

/// Identity that signs schema blocks (a cluster node, so every server's
/// dev keystore can verify it).
inline constexpr const char* kSchemaSigner = "node1";

/// Every identity a chain or a writer signs with, registered with
/// DevSecret() (the servers derive the same directory).
void AddDevIdentities(const std::vector<std::string>& ids, KeyStore* keys);

/// User bytes of a transaction: its encoded, signed form.
size_t EncodedSize(const Transaction& txn);

/// Signed schema transactions of the on-chain donation tables.
std::vector<Transaction> DonationSchemaTxns(const KeyStore& keys,
                                            Timestamp ts);

// ---------------------------------------------------------------- read_write

/// A chain small enough to sit in the node caches: donate rows whose sender
/// is one of `kRwReaders` client identities. The thin client traces those
/// senders; writers use the remaining client identities so the traced
/// counts never change during a run.
inline constexpr int kRwReaders = 24;
inline constexpr int kClientPool = 32;  // sebdb_server's client-0..31

struct RwChain {
  int blocks = 200;
  int txns_per_block = 100;
  uint64_t seed = 1;
};

/// Writes the read_write chain into `dir` (must be empty); fills
/// `per_reader` with the number of rows each reader identity sent.
Status WriteRwChain(const RwChain& spec, const std::string& dir,
                    std::vector<int64_t>* per_reader);

/// Writes the schema-only chain the ingest cluster starts from.
Status WriteSchemaChain(const std::string& dir);

// ---------------------------------------------------------------- sql_query

/// The Q2-Q7 chain. It is a fixed function of its spec (not of the run
/// seed), so one copy on disk serves every run; queries draw their
/// parameters from the run seed.
struct SqlChain {
  int blocks = 6000;
  int txns_per_block = 200;
  int senders = 2000;        // org<i>: Q2/Q3 operators
  int organizations = 400;   // o<i>: the Q5 join key
  int donees = 2000;         // e<i>: the Q6 join key
  int offchain_donees = 1000;  // donorinfo holds e0..e<offchain_donees-1>
  uint64_t seed = 0x5ebdb;
};

/// Height of data block `d` (genesis is 0, the schema block 1).
inline uint64_t SqlDataHeight(int d) { return static_cast<uint64_t>(d) + 2; }

/// Timestamp of the first and last transaction of data block `d`; a
/// WINDOW [first(d1), last(d2)] selects exactly data blocks d1..d2.
Timestamp SqlFirstTs(const SqlChain& spec, int d);
Timestamp SqlLastTs(const SqlChain& spec, int d);

/// One generated row, as the generator and the ground truth see it.
struct SqlRow {
  int block = 0;   // data block index
  int kind = 0;    // 0 donate, 1 transfer, 2 distribute
  int sender = 0;  // org index
  int org = 0;     // transfer/distribute organization
  int donee = 0;   // distribute donee
  int64_t amount = 0;
};

/// Visits every row of the chain in chain order (deterministic in spec).
void ForEachSqlRow(const SqlChain& spec,
                   const std::function<void(const SqlRow&)>& visit);
/// The transaction a row becomes on chain (unsigned).
Transaction SqlRowTxn(const SqlChain& spec, const SqlRow& row, int64_t index);

/// Writes the chain plus the Q4-Q6 indexes into `dir`; returns the number
/// of user bytes (encoded transactions) written.
Status WriteSqlChain(const SqlChain& spec, const std::string& dir,
                     uint64_t* user_bytes);

/// Counts derived from the generator, for checking Q2-Q7 row counts.
class SqlTruth {
 public:
  explicit SqlTruth(const SqlChain& spec);

  int64_t SenderRows(int sender) const;
  /// Data blocks holding at least one row of `sender`.
  int64_t SenderBlocks(int sender) const;
  int64_t SenderTransfers(int sender, int d1, int d2) const;
  int64_t DonateAmountRows(int64_t lo, int64_t hi) const;
  int64_t DonateAmountBlocks(int64_t lo, int64_t hi) const;
  int64_t OrgJoinRows(int d1, int d2) const;
  int64_t DoneeJoinRows(int d1, int d2) const;
  int64_t TxnsInBlock(uint64_t height) const;

 private:
  static int64_t CountIn(const std::vector<int>& blocks, int d1, int d2);

  SqlChain spec_;
  std::vector<std::vector<int>> sender_blocks_;    // per sender, sorted
  std::vector<std::vector<int>> sender_transfer_;  // per sender, sorted
  std::vector<std::pair<int64_t, int>> amounts_;   // (amount, block), sorted
  std::vector<std::vector<int>> org_transfer_;     // per organization
  std::vector<std::vector<int>> org_distribute_;
  std::vector<int> offchain_distribute_;  // distribute rows joining donorinfo
};

}  // namespace e2e
}  // namespace sebdb
