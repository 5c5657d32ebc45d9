#include "chain_gen.h"

#include <algorithm>

#include "common/random.h"
#include "core/chain_manager.h"
#include "core/cluster_config.h"
#include "core/node.h"
#include "sql/catalog.h"
#include "sql/executor.h"

namespace sebdb {
namespace e2e {
namespace {

constexpr Timestamp kRwBaseTs = 1'000'000;
constexpr Timestamp kSqlBaseTs = 1'000'000'000;
constexpr int64_t kAmountRange = 1'000'000;

// Opens `dir` with the options every node uses, so checkpoints, caches and
// index manifests land on disk as a node would leave them.
Status OpenChain(const std::string& dir, ChainManager* chain) {
  return chain->Open(DefaultNodeChainOptions(), dir);
}

Status AppendSigned(ChainManager* chain, std::vector<Transaction> txns,
                    Timestamp ts, const KeyStore& keys) {
  std::string batch;
  EncodeBatch(txns, &batch);
  std::string packager_signature;
  Status s = keys.Sign(kSchemaSigner, BatchDigest(batch).AsSlice(),
                       &packager_signature);
  if (!s.ok()) return s;
  return chain->AppendBatch(chain->height() - 1, std::move(txns), ts,
                            packager_signature);
}

Status WriteSchemaBlock(ChainManager* chain, const KeyStore& keys,
                        Timestamp ts) {
  return AppendSigned(chain, DonationSchemaTxns(keys, ts), ts, keys);
}

}  // namespace

size_t EncodedSize(const Transaction& txn) {
  std::string buf;
  txn.EncodeTo(&buf);
  return buf.size();
}

void AddDevIdentities(const std::vector<std::string>& ids, KeyStore* keys) {
  for (const auto& id : ids) (void)keys->AddIdentity(id, DevSecret(id));
}

std::vector<Transaction> DonationSchemaTxns(const KeyStore& keys,
                                            Timestamp ts) {
  const std::vector<std::pair<std::string, std::vector<ColumnDef>>> tables = {
      {"donate",
       {{"donor", ValueType::kString},
        {"project", ValueType::kString},
        {"amount", ValueType::kInt64}}},
      {"transfer",
       {{"project", ValueType::kString},
        {"donor", ValueType::kString},
        {"organization", ValueType::kString},
        {"amount", ValueType::kInt64}}},
      {"distribute",
       {{"project", ValueType::kString},
        {"organization", ValueType::kString},
        {"donee", ValueType::kString},
        {"amount", ValueType::kInt64}}},
  };
  std::vector<Transaction> txns;
  for (const auto& [name, columns] : tables) {
    Schema schema;
    if (!Schema::Create(name, columns, &schema).ok()) continue;
    Transaction txn = Catalog::MakeSchemaTransaction(schema);
    txn.set_ts(ts);
    (void)keys.SignTransaction(kSchemaSigner, &txn);
    txns.push_back(std::move(txn));
  }
  return txns;
}

Status WriteSchemaChain(const std::string& dir) {
  KeyStore keys;
  AddDevIdentities({kSchemaSigner}, &keys);
  ChainManager chain(kSchemaSigner, nullptr);
  Status s = OpenChain(dir, &chain);
  if (!s.ok()) return s;
  s = WriteSchemaBlock(&chain, keys, kRwBaseTs);
  Status c = chain.Close();
  return s.ok() ? c : s;
}

Status WriteRwChain(const RwChain& spec, const std::string& dir,
                    std::vector<int64_t>* per_reader) {
  KeyStore keys;
  std::vector<std::string> ids = {kSchemaSigner};
  for (int i = 0; i < kRwReaders; i++) ids.push_back("client-" + std::to_string(i));
  AddDevIdentities(ids, &keys);

  ChainManager chain(kSchemaSigner, nullptr);
  Status s = OpenChain(dir, &chain);
  if (!s.ok()) return s;
  Timestamp ts = kRwBaseTs;
  s = WriteSchemaBlock(&chain, keys, ts);
  per_reader->assign(kRwReaders, 0);
  Random rng(spec.seed * 0x9e3779b97f4a7c15ULL + 17);
  for (int b = 0; s.ok() && b < spec.blocks; b++) {
    std::vector<Transaction> txns;
    txns.reserve(spec.txns_per_block);
    for (int i = 0; i < spec.txns_per_block; i++) {
      const int reader = static_cast<int>(rng.Uniform(kRwReaders));
      (*per_reader)[reader]++;
      Transaction txn(
          "donate",
          {Value::Str("donor-" + std::to_string(rng.Uniform(5000))),
           Value::Str("project-" + std::to_string(rng.Uniform(100))),
           Value::Int(static_cast<int64_t>(rng.Uniform(kAmountRange)))});
      txn.set_ts(++ts);
      s = keys.SignTransaction("client-" + std::to_string(reader), &txn);
      if (!s.ok()) break;
      txns.push_back(std::move(txn));
    }
    if (s.ok()) s = AppendSigned(&chain, std::move(txns), ts, keys);
  }
  Status c = chain.Close();
  return s.ok() ? c : s;
}

Timestamp SqlFirstTs(const SqlChain& spec, int d) {
  return kSqlBaseTs + static_cast<Timestamp>(d) * spec.txns_per_block * 10 + 10;
}

Timestamp SqlLastTs(const SqlChain& spec, int d) {
  return kSqlBaseTs + static_cast<Timestamp>(d + 1) * spec.txns_per_block * 10;
}

void ForEachSqlRow(const SqlChain& spec,
                   const std::function<void(const SqlRow&)>& visit) {
  Random rng(spec.seed);
  SqlRow row;
  for (int d = 0; d < spec.blocks; d++) {
    row.block = d;
    for (int i = 0; i < spec.txns_per_block; i++) {
      // Table II mix: three donations for every transfer and distribution.
      const uint64_t r = rng.Uniform(5);
      row.kind = r < 3 ? 0 : static_cast<int>(r) - 2;
      row.sender = static_cast<int>(rng.Uniform(spec.senders));
      row.org = static_cast<int>(rng.Uniform(spec.organizations));
      row.donee = static_cast<int>(rng.Uniform(spec.donees));
      row.amount = static_cast<int64_t>(rng.Uniform(kAmountRange));
      visit(row);
    }
  }
}

Transaction SqlRowTxn(const SqlChain& spec, const SqlRow& row,
                      int64_t index) {
  const std::string project = "project-" + std::to_string(index % 97);
  const std::string donor = "donor-" + std::to_string(index % 4999);
  std::vector<Value> values;
  const char* table = "donate";
  switch (row.kind) {
    case 0:
      values = {Value::Str(donor), Value::Str(project),
                Value::Int(row.amount)};
      break;
    case 1:
      table = "transfer";
      values = {Value::Str(project), Value::Str(donor),
                Value::Str("o" + std::to_string(row.org)),
                Value::Int(row.amount)};
      break;
    default:
      table = "distribute";
      values = {Value::Str(project),
                Value::Str("o" + std::to_string(row.org)),
                Value::Str("e" + std::to_string(row.donee)),
                Value::Int(row.amount)};
      break;
  }
  Transaction txn(table, std::move(values));
  txn.set_ts(SqlFirstTs(spec, row.block) +
             (index % spec.txns_per_block) * 10);
  return txn;
}

Status WriteSqlChain(const SqlChain& spec, const std::string& dir,
                     uint64_t* user_bytes) {
  KeyStore keys;
  std::vector<std::string> ids = {kSchemaSigner};
  for (int i = 0; i < spec.senders; i++) ids.push_back("org" + std::to_string(i));
  AddDevIdentities(ids, &keys);

  ChainManager chain(kSchemaSigner, nullptr);
  Status s = OpenChain(dir, &chain);
  if (!s.ok()) return s;
  s = WriteSchemaBlock(&chain, keys, kSqlBaseTs);
  if (s.ok()) {
    // The indexes Q4 (amount), Q5 (organization) and Q6 (donee) use; made
    // before the data so they are built as blocks arrive, like a live node.
    Executor ddl(chain.store(), chain.indexes(), chain.catalog(), nullptr);
    for (const char* sql : {"CREATE INDEX ON donate(amount)",
                            "CREATE INDEX ON transfer(organization)",
                            "CREATE INDEX ON distribute(organization)",
                            "CREATE INDEX ON distribute(donee)"}) {
      ResultSet rs;
      s = ddl.ExecuteSql(sql, ExecOptions(), &rs);
      if (!s.ok()) break;
    }
  }
  *user_bytes = 0;
  std::vector<Transaction> txns;
  int64_t index = 0;
  ForEachSqlRow(spec, [&](const SqlRow& row) {
    if (!s.ok()) return;
    Transaction txn = SqlRowTxn(spec, row, index++);
    s = keys.SignTransaction("org" + std::to_string(row.sender), &txn);
    *user_bytes += EncodedSize(txn);
    txns.push_back(std::move(txn));
    if (s.ok() && static_cast<int>(txns.size()) == spec.txns_per_block) {
      s = AppendSigned(&chain, std::move(txns), SqlLastTs(spec, row.block),
                       keys);
      txns.clear();
    }
  });
  Status c = chain.Close();
  return s.ok() ? c : s;
}

SqlTruth::SqlTruth(const SqlChain& spec)
    : spec_(spec),
      sender_blocks_(spec.senders),
      sender_transfer_(spec.senders),
      org_transfer_(spec.organizations),
      org_distribute_(spec.organizations) {
  ForEachSqlRow(spec, [this](const SqlRow& row) {
    sender_blocks_[row.sender].push_back(row.block);
    switch (row.kind) {
      case 0:
        amounts_.emplace_back(row.amount, row.block);
        break;
      case 1:
        sender_transfer_[row.sender].push_back(row.block);
        org_transfer_[row.org].push_back(row.block);
        break;
      default:
        org_distribute_[row.org].push_back(row.block);
        if (row.donee < spec_.offchain_donees) {
          offchain_distribute_.push_back(row.block);
        }
        break;
    }
  });
  std::sort(amounts_.begin(), amounts_.end());
}

int64_t SqlTruth::CountIn(const std::vector<int>& blocks, int d1, int d2) {
  return std::upper_bound(blocks.begin(), blocks.end(), d2) -
         std::lower_bound(blocks.begin(), blocks.end(), d1);
}

int64_t SqlTruth::SenderRows(int sender) const {
  return static_cast<int64_t>(sender_blocks_[sender].size());
}

int64_t SqlTruth::SenderBlocks(int sender) const {
  std::vector<int> blocks = sender_blocks_[sender];  // sorted by generation
  return std::unique(blocks.begin(), blocks.end()) - blocks.begin();
}

int64_t SqlTruth::SenderTransfers(int sender, int d1, int d2) const {
  return CountIn(sender_transfer_[sender], d1, d2);
}

int64_t SqlTruth::DonateAmountRows(int64_t lo, int64_t hi) const {
  auto first = std::lower_bound(amounts_.begin(), amounts_.end(),
                                std::make_pair(lo, -1));
  auto last = std::upper_bound(amounts_.begin(), amounts_.end(),
                               std::make_pair(hi, spec_.blocks));
  return last - first;
}

int64_t SqlTruth::DonateAmountBlocks(int64_t lo, int64_t hi) const {
  auto first = std::lower_bound(amounts_.begin(), amounts_.end(),
                                std::make_pair(lo, -1));
  auto last = std::upper_bound(amounts_.begin(), amounts_.end(),
                               std::make_pair(hi, spec_.blocks));
  std::vector<int> blocks;
  for (auto it = first; it != last; ++it) blocks.push_back(it->second);
  std::sort(blocks.begin(), blocks.end());
  return std::unique(blocks.begin(), blocks.end()) - blocks.begin();
}

int64_t SqlTruth::OrgJoinRows(int d1, int d2) const {
  int64_t rows = 0;
  for (int o = 0; o < spec_.organizations; o++) {
    rows += CountIn(org_transfer_[o], d1, d2) *
            CountIn(org_distribute_[o], d1, d2);
  }
  return rows;
}

int64_t SqlTruth::DoneeJoinRows(int d1, int d2) const {
  return CountIn(offchain_distribute_, d1, d2);
}

int64_t SqlTruth::TxnsInBlock(uint64_t height) const {
  if (height == 0) return 0;
  if (height == 1) return 3;  // the schema block
  return spec_.txns_per_block;
}

}  // namespace e2e
}  // namespace sebdb
