// Figure 7 (paper §VII-B): write performance (Q1) under the two consensus
// components — the Kafka-style orderer and the Tendermint-style engine — on
// a 4-node cluster with a growing number of closed-loop clients. Each client
// sends a transaction, waits for the commit response, then sends the next.
// Block cutting: 200 transactions or 200 ms, the paper's settings.
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bchainbench/bench_chain.h"
#include "core/node.h"
#include "network/sim_network.h"

namespace sebdb {
namespace bench {
namespace {

struct RunResult {
  double throughput_tps;
  double mean_latency_ms;
};

RunResult RunCluster(ConsensusKind kind, int num_clients, int txns_per_client,
                     const std::string& tag) {
  SimNetwork net;
  KeyStore keystore;
  std::vector<std::string> ids = {"n0", "n1", "n2", "n3"};
  for (const auto& id : ids) keystore.AddIdentity(id, "secret-" + id);
  keystore.AddIdentity("client", "secret-client");

  static std::atomic<uint64_t> run_counter{0};
  std::string dir = "/tmp/sebdb_bench_write_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(run_counter.fetch_add(1));

  std::vector<std::unique_ptr<SebdbNode>> nodes;
  for (const auto& id : ids) {
    NodeOptions options;
    options.node_id = id;
    options.data_dir = dir + "/" + id;
    options.consensus = kind;
    options.participants = ids;
    options.consensus_options.max_batch_txns = 200;   // paper setting
    options.consensus_options.batch_timeout_millis = 200;
    options.enable_gossip = false;  // consensus already replicates
    auto node = std::make_unique<SebdbNode>(options, &keystore, nullptr);
    if (!node->Start(&net).ok()) abort();
    nodes.push_back(std::move(node));
  }
  ResultSet rs;
  if (!nodes[0]->ExecuteSql("CREATE donate (donor string, amount int)",
                            ExecOptions(), &rs)
           .ok()) {
    abort();
  }

  // CREATE returns once n0 has applied it; the other nodes apply the same
  // block on their own delivery threads. A client that reaches a node still
  // behind would find no table, so wait for every node first.
  const uint64_t created = nodes[0]->chain().height();
  for (auto& node : nodes) {
    while (node->chain().height() < created) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::atomic<int64_t> total_latency_micros{0};
  std::atomic<int> completed{0};
  WallTimer timer;
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; c++) {
    clients.emplace_back([&, c] {
      SebdbNode* node = nodes[c % nodes.size()].get();
      for (int i = 0; i < txns_per_client; i++) {
        Transaction txn;
        if (!node->MakeInsertTransaction(
                    "client", "donate",
                    {Value::Str("donor" + std::to_string(c)),
                     Value::Int(c * 100000 + i)},
                    &txn)
                 .ok()) {
          abort();
        }
        WallTimer request;
        if (!node->SubmitAndWait(std::move(txn)).ok()) return;
        total_latency_micros.fetch_add(request.ElapsedMicros());
        completed.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  double elapsed_s = timer.ElapsedMicros() / 1e6;
  int done = completed.load();

  RunResult result;
  result.throughput_tps = done / elapsed_s;
  result.mean_latency_ms =
      done > 0 ? total_latency_micros.load() / 1000.0 / done : 0;

  for (auto& node : nodes) node->Stop();
  RemoveDirRecursive(dir);
  return result;
}

void Main() {
  int scale = BenchScale();
  int txns_per_client = 10 * scale;
  ReportHeader("Fig7", "write throughput and response time vs clients "
                       "(Kafka vs Tendermint, 4 nodes, 200 txns / 200 ms "
                       "blocks)");
  for (int clients : {4, 8, 16, 32, 64}) {
    RunResult kafka = RunCluster(ConsensusKind::kKafka, clients,
                                 txns_per_client, "kafka");
    ReportPoint("Fig7", "kafka", std::to_string(clients), "throughput_tps",
                kafka.throughput_tps);
    ReportPoint("Fig7", "kafka", std::to_string(clients), "latency_ms",
                kafka.mean_latency_ms);
    RunResult tm = RunCluster(ConsensusKind::kTendermint, clients,
                              txns_per_client, "tm");
    ReportPoint("Fig7", "tendermint", std::to_string(clients),
                "throughput_tps", tm.throughput_tps);
    ReportPoint("Fig7", "tendermint", std::to_string(clients), "latency_ms",
                tm.mean_latency_ms);
  }
}

}  // namespace
}  // namespace bench
}  // namespace sebdb

int main() {
  sebdb::bench::Main();
  return 0;
}
