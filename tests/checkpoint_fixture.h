// The chain behind the checked-in data directory tests/data/ckpt_v1: a few
// blocks of one table, a continuous user index created mid-chain (so its
// histogram is sampled from history), and one checkpoint published at the
// tip on close. checkpoint_fixture_writer writes it; checkpoint_format_test
// reopens the checked-in copy and compares Describe() with the text the
// writer printed (tests/data/ckpt_v1.expected). The directory was written
// with index checkpoint meta version 1 (DESIGN.md §11), so reopening it
// exercises the versioned decode. The writing build returned a layered
// SELECT's rows in indexed-value order within a block; the executor now
// returns every path's rows in position order, and the .expected SELECT
// rows were reordered to match (the rows themselves are unchanged).
#pragma once

#include <string>
#include <vector>

#include "common/sha256.h"
#include "core/chain_manager.h"
#include "sql/executor.h"

namespace sebdb {
namespace checkpoint_fixture {

inline ChainOptions FixtureOptions(bool checkpoint_on_close) {
  ChainOptions options;
  options.verify_signatures = false;
  options.checkpoint.checkpoint_on_close = checkpoint_on_close;
  return options;
}

inline Transaction DonateTxn(const std::string& sender, Timestamp ts,
                             const std::string& donor, int64_t amount) {
  Transaction txn("donate", {Value::Str(donor), Value::Int(amount)});
  txn.set_sender(sender);
  txn.set_ts(ts);
  txn.set_signature("fixture-sig");
  return txn;
}

/// Query rows, candidate blocks, ALI digests and proof hashes of `chain`,
/// one per line.
inline std::string Describe(ChainManager* chain) {
  std::string out = "height " + std::to_string(chain->height()) + "\n";
  Executor executor(chain->store(), chain->indexes(), chain->catalog(),
                    nullptr);
  for (const char* sql :
       {"SELECT * FROM donate WHERE amount >= 100 AND amount <= 300",
        "TRACE OPERATOR = 'org1'", "TRACE OPERATION = 'donate'"}) {
    ResultSet result;
    Status s = executor.ExecuteSql(sql, ExecOptions(), &result);
    out += std::string("query ") + sql + " -> " + s.ToString() + "\n";
    for (const auto& row : result.rows) {
      out += " ";
      for (const Value& v : row) out += " " + v.ToString();
      out += "\n";
    }
  }
  IndexSet* indexes = chain->indexes();
  const uint64_t height = chain->height();
  auto describe_ali = [&](const std::string& name,
                          const AuthenticatedLayeredIndex* ali,
                          const Value& lo, const Value& hi) {
    if (ali == nullptr) {
      out += name + " missing\n";
      return;
    }
    Hash256 digest{};
    Status s = ali->ComputeDigest(&lo, &hi, nullptr, height, &digest);
    out += name + " digest " + s.ToString() + " " + digest.ToHex() + "\n";
    AuthQueryResponse proof;
    s = ali->ProveRange(&lo, &hi, nullptr, height, &proof);
    std::string encoded;
    proof.EncodeTo(&encoded);
    out += name + " proof " + s.ToString() + " " +
           std::to_string(encoded.size()) + " " +
           Sha256::Digest(encoded).ToHex() + "\n";
  };
  const Value lo = Value::Int(100), hi = Value::Int(300);
  if (const LayeredIndex* amount = indexes->GetLayered("donate", "amount")) {
    out += "amount candidates";
    for (size_t bid : amount->CandidateBlocks(&lo, &hi).SetBits()) {
      out += " " + std::to_string(bid);
    }
    out += "\n";
  }
  describe_ali("amount", indexes->GetAli("donate", "amount"), lo, hi);
  const Value org1 = Value::Str("org1"), donate = Value::Str("donate");
  describe_ali("senid", indexes->senid_ali(), org1, org1);
  describe_ali("tname", indexes->tname_ali(), donate, donate);
  return out;
}

/// Builds the fixture chain in the empty directory `dir`, stores its
/// Describe() text in *description, and closes it, which publishes the
/// checkpoint.
inline Status WriteChain(const std::string& dir, std::string* description) {
  ChainManager chain("fixture", nullptr);
  Status s = chain.Open(FixtureOptions(/*checkpoint_on_close=*/true), dir);
  if (!s.ok()) return s;
  Schema donate;
  s = Schema::Create(
      "donate", {{"donor", ValueType::kString}, {"amount", ValueType::kInt64}},
      &donate);
  if (!s.ok()) return s;
  Transaction schema_txn = Catalog::MakeSchemaTransaction(donate);
  schema_txn.set_sender("admin");
  schema_txn.set_ts(10);
  schema_txn.set_signature("fixture-sig");
  std::vector<Transaction> first;
  first.push_back(std::move(schema_txn));
  s = chain.AppendBatch(0, std::move(first), 10, "sig");
  uint64_t state = 12345;
  Timestamp ts = 10;
  for (uint64_t b = 1; s.ok() && b <= 12; b++) {
    if (b == 6) {
      s = chain.indexes()->CreateLayeredIndex(
          "donate", "amount", Schema::kNumSystemColumns + 1,
          /*discrete=*/false);
      if (!s.ok()) break;
    }
    std::vector<Transaction> txns;
    const uint64_t n = 2 + b % 4;
    for (uint64_t i = 0; i < n; i++) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const int64_t amount = static_cast<int64_t>((state >> 33) % 500);
      txns.push_back(DonateTxn("org" + std::to_string((state >> 20) % 4),
                               ts += 5, "d" + std::to_string(i), amount));
    }
    s = chain.AppendBatch(b, std::move(txns), ts, "sig");
  }
  if (s.ok()) *description = Describe(&chain);
  Status closed = chain.Close();
  return s.ok() ? closed : s;
}

}  // namespace checkpoint_fixture
}  // namespace sebdb
