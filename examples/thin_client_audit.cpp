// Thin-client audit (paper §VI): a donor with only block headers verifies
// query results from untrusted full nodes. Shows the two-phase ALI protocol
// (VO + auxiliary digests), the credibility formula for choosing how many
// auxiliary nodes must agree, and what happens when a malicious node forges
// a response.
//
//   build/examples/thin_client_audit
#include <cstdio>

#include "auth/credibility.h"
#include "core/node.h"
#include "core/thin_client.h"
#include "storage/file.h"
#include "network/sim_network.h"

using namespace sebdb;

namespace {

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
    exit(1);
  }
}

bool WaitForHeight(SebdbNode* node, uint64_t height) {
  for (int i = 0; i < 1000; i++) {
    if (node->chain().height() >= height) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

}  // namespace

int main() {
  std::string dir = "/tmp/sebdb_thin_client";
  RemoveDirRecursive(dir);

  SimNetwork net;
  KeyStore keystore;
  std::vector<std::string> ids = {"n0", "n1", "n2", "n3"};
  for (const auto& id : ids) keystore.AddIdentity(id, id + "-secret");
  keystore.AddIdentity("org1", "org1-secret");

  std::vector<std::unique_ptr<SebdbNode>> nodes;
  for (const auto& id : ids) {
    NodeOptions options;
    options.node_id = id;
    options.data_dir = dir + "/" + id;
    options.consensus = ConsensusKind::kTendermint;  // BFT consortium
    options.participants = ids;
    options.consensus_options.max_batch_txns = 10;
    options.consensus_options.batch_timeout_millis = 20;
    options.gossip.interval_millis = 10;
    auto node = std::make_unique<SebdbNode>(options, &keystore, nullptr);
    Check(node->Start(&net), "start node");
    nodes.push_back(std::move(node));
  }

  ResultSet rs;
  Check(nodes[0]->ExecuteSql("CREATE donate (donor string, amount int)", {},
                             &rs),
        "CREATE");
  for (int i = 0; i < 40; i++) {
    Transaction txn;
    Check(nodes[0]->MakeInsertTransaction(
              "org1", "donate",
              {Value::Str("donor" + std::to_string(i % 4)), Value::Int(i)},
              &txn),
          "make txn");
    Check(nodes[0]->SubmitAndWait(std::move(txn)), "submit");
  }
  uint64_t height = nodes[0]->chain().height();
  for (auto& node : nodes) {
    if (!WaitForHeight(node.get(), height)) return 1;
    Check(node->ExecuteSql("CREATE INDEX ON donate(amount)", {}, &rs),
          "index");
  }
  printf("4-node Tendermint consortium at height %llu, 40 donations committed\n",
         static_cast<unsigned long long>(height));

  // How many matching digests does the client need? Suppose up to 1 of the
  // 4 nodes may be Byzantine (Tendermint's f).
  CredibilityParams params;
  params.byzantine_fraction = 0.25;
  params.requests = 3;
  params.max_byzantine = 1;
  for (int m = 1; m <= 2; m++) {
    params.matching = m;
    printf("  m=%d identical digests -> P(wrong) = %.4f\n", m,
           DigestWrongProbability(params));
  }
  printf("  (m=2 exceeds the Byzantine bound, so 2 matching digests are "
         "conclusive)\n\n");

  // The thin client holds headers only and talks to the full nodes over
  // the network (every call below is an RPC round trip).
  ThinClient client(
      std::make_unique<RpcThinTransport>("donor-phone", &net, ids));
  Check(client.SyncHeaders(), "sync headers");
  printf("thin client synced %zu block headers over the network\n",
         client.num_headers());

  // Authenticated range query: donations with amount in [10, 19].
  Schema schema;
  Check(nodes[0]->chain().catalog()->GetSchema("donate", &schema), "schema");
  int column_index = schema.ColumnIndex("amount");
  Value lo = Value::Int(10), hi = Value::Int(19);
  std::vector<Transaction> results;
  AuthQueryStats stats;
  Check(client.AuthRangeQuery("donate", "amount", column_index, &lo, &hi,
                              /*num_auxiliary=*/3, /*required_matching=*/2,
                              &results, &stats),
        "auth range query");
  printf("\nauthenticated range [10,19]: %zu results, VO %zu bytes, "
         "server %.2f ms, client verify %.2f ms\n",
         results.size(), stats.vo_bytes, stats.server_micros / 1000.0,
         stats.client_micros / 1000.0);

  // Authenticated tracking: all of org1's transactions.
  results.clear();
  Check(client.AuthTraceQuery(/*by_sender=*/true, "org1", 3, 2, &results,
                              &stats),
        "auth trace");
  printf("authenticated TRACE OPERATOR='org1': %zu results verified\n",
         results.size());

  // Compare with the basic approach: every block is shipped and re-hashed.
  std::vector<Transaction> basic;
  AuthQueryStats basic_stats;
  Check(client.BasicRangeQuery("donate", column_index, &lo, &hi, &basic,
                               &basic_stats),
        "basic range");
  printf("basic approach: same %zu results but %zu bytes transferred "
         "(%.1fx the ALI VO)\n",
         basic.size(), basic_stats.vo_bytes,
         static_cast<double>(basic_stats.vo_bytes) / stats.vo_bytes);

  // A forged response is caught: tamper with the VO before verification.
  AuthQueryResponse response;
  Check(nodes[1]->AuthProveRange("donate", "amount", &lo, &hi, &response),
        "prove");
  if (!response.proofs.empty()) {
    response.proofs.pop_back();  // malicious node drops a visited block
  }
  Hash256 digest;
  Check(nodes[2]->AuthDigestRange("donate", "amount", &lo, &hi,
                                  response.chain_height, &digest),
        "digest");
  std::vector<std::string> records;
  Status forged = AuthenticatedLayeredIndex::VerifyResponse(
      response, &lo, &hi,
      [column_index](const Slice& record, Value* key) -> Status {
        Transaction txn;
        Slice input = record;
        Status s = Transaction::DecodeFrom(&input, &txn);
        if (!s.ok()) return s;
        *key = txn.GetColumn(column_index);
        return Status::OK();
      },
      {digest}, 1, &records);
  printf("\nforged response (block withheld) -> %s\n",
         forged.ToString().c_str());

  for (auto& node : nodes) node->Stop();
  RemoveDirRecursive(dir);
  printf("\nthin_client_audit finished OK\n");
  return 0;
}
