// sebdb_server: one full node of a multi-process SEBDB cluster, speaking
// the TCP transport (network/tcp_network.h). Typical 3-node deployment:
//
//   cat > cluster.conf <<EOF
//   node node1 127.0.0.1 7101
//   node node2 127.0.0.1 7102
//   node node3 127.0.0.1 7103
//   EOF
//   sebdb_server --id=node1 --config=cluster.conf --data=/tmp/n1
//       --init-sql="CREATE donate (...)" &   # one line in a real shell
//   sebdb_server --id=node2 --config=cluster.conf --data=/tmp/n2 &
//   sebdb_server --id=node3 --config=cluster.conf --data=/tmp/n3 &
//
// scripts/cluster.sh automates this (plus client traffic and chaos).
// The process prints "READY <id> <host>:<port> height=<h>" on stdout once
// serving, and exits cleanly on SIGINT/SIGTERM (final checkpoint written).
// kill -9 is an explicitly supported way to go down: the next start replays
// the tail and gossip/repair refetch whatever the crash lost.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster_config.h"
#include "core/node.h"
#include "network/tcp_network.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct Flags {
  std::string id;
  std::string config;
  std::string data;
  std::string consensus = "kafka";
  std::string init_sql;
  int64_t gossip_interval_ms = 50;
  int64_t heartbeat_ms = 100;
  int64_t peer_down_ms = 600;
  int64_t batch_timeout_ms = 20;
  int64_t max_batch_txns = 64;
  int64_t status_interval_ms = 0;  // 0 = no periodic status lines
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

bool ParseFlag(const char* arg, const char* name, int64_t* out) {
  std::string value;
  if (!ParseFlag(arg, name, &value)) return false;
  *out = std::strtoll(value.c_str(), nullptr, 10);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --id=<node-id> --config=<cluster.conf> --data=<dir>\n"
      "          [--consensus=kafka|tendermint] [--init-sql=<stmt>]\n"
      "          [--gossip-interval-ms=N] [--heartbeat-ms=N]\n"
      "          [--peer-down-ms=N] [--batch-timeout-ms=N]\n"
      "          [--max-batch-txns=N] [--status-interval-ms=N]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sebdb;

  Flags flags;
  for (int i = 1; i < argc; i++) {
    if (ParseFlag(argv[i], "id", &flags.id) ||
        ParseFlag(argv[i], "config", &flags.config) ||
        ParseFlag(argv[i], "data", &flags.data) ||
        ParseFlag(argv[i], "consensus", &flags.consensus) ||
        ParseFlag(argv[i], "init-sql", &flags.init_sql) ||
        ParseFlag(argv[i], "gossip-interval-ms", &flags.gossip_interval_ms) ||
        ParseFlag(argv[i], "heartbeat-ms", &flags.heartbeat_ms) ||
        ParseFlag(argv[i], "peer-down-ms", &flags.peer_down_ms) ||
        ParseFlag(argv[i], "batch-timeout-ms", &flags.batch_timeout_ms) ||
        ParseFlag(argv[i], "max-batch-txns", &flags.max_batch_txns) ||
        ParseFlag(argv[i], "status-interval-ms", &flags.status_interval_ms)) {
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
    return Usage(argv[0]);
  }
  if (flags.id.empty() || flags.config.empty() || flags.data.empty()) {
    return Usage(argv[0]);
  }

  ClusterConfig config;
  Status s = LoadClusterConfig(Env::Default(), flags.config, &config);
  if (!s.ok()) {
    std::fprintf(stderr, "config: %s\n", s.ToString().c_str());
    return 1;
  }
  const ClusterNodeSpec* self = config.Find(flags.id);
  if (self == nullptr) {
    std::fprintf(stderr, "node id '%s' not in %s\n", flags.id.c_str(),
                 flags.config.c_str());
    return 1;
  }

  // Shared dev identity directory: every node and a pool of client
  // identities derive the same secrets (see DevSecret).
  KeyStore keystore;
  std::vector<std::string> clients;
  for (int i = 0; i < 32; i++) clients.push_back("client-" + std::to_string(i));
  s = SeedDevKeyStore(config, clients, &keystore);
  if (!s.ok()) {
    std::fprintf(stderr, "keystore: %s\n", s.ToString().c_str());
    return 1;
  }

  TcpNetworkOptions net_options = MakeClusterTcpOptions(config, flags.id);
  net_options.heartbeat_interval_millis = flags.heartbeat_ms;
  net_options.peer_down_after_millis = flags.peer_down_ms;
  TcpNetwork network(std::move(net_options));
  s = network.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "network: %s\n", s.ToString().c_str());
    return 1;
  }

  NodeOptions options;
  options.node_id = flags.id;
  options.data_dir = flags.data;
  options.participants = config.NodeIds();
  if (flags.consensus == "kafka") {
    options.consensus = ConsensusKind::kKafka;
  } else if (flags.consensus == "tendermint") {
    options.consensus = ConsensusKind::kTendermint;
  } else {
    std::fprintf(stderr, "unknown consensus '%s'\n", flags.consensus.c_str());
    return Usage(argv[0]);
  }
  options.consensus_options.max_batch_txns =
      static_cast<uint32_t>(flags.max_batch_txns);
  options.consensus_options.batch_timeout_millis = flags.batch_timeout_ms;
  options.gossip.interval_millis = flags.gossip_interval_ms;
  // Remote thin clients are the normal load here: dispatch on a small
  // bounded worker pool so a flood sheds instead of wedging the transport's
  // delivery thread.
  options.rpc_server.workers = 4;
  options.rpc_server.max_queue = 256;

  SebdbNode node(options, &keystore, /*offchain=*/nullptr);
  s = node.Start(&network);
  if (!s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }

  if (!flags.init_sql.empty()) {
    ResultSet rs;
    s = node.ExecuteSql(flags.init_sql, {}, &rs);
    if (!s.ok() && !s.IsInvalidArgument()) {  // "table exists" is fine
      std::fprintf(stderr, "init-sql: %s\n", s.ToString().c_str());
      node.Stop();
      return 1;
    }
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("READY %s %s:%u height=%llu\n", flags.id.c_str(),
              self->host.c_str(), static_cast<unsigned>(network.listen_port()),
              static_cast<unsigned long long>(node.chain().height()));
  std::fflush(stdout);

  int64_t since_status = 0;
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    since_status += 50;
    if (flags.status_interval_ms > 0 &&
        since_status >= flags.status_interval_ms) {
      since_status = 0;
      const NetworkStats net = network.stats();
      const TcpTransportStats tcp = network.tcp_stats();
      std::printf("STATUS %s height=%llu sent=%llu delivered=%llu "
                  "dropped=%llu rejected=%llu reconnects=%llu "
                  "peer_down=%llu\n",
                  flags.id.c_str(),
                  static_cast<unsigned long long>(node.chain().height()),
                  static_cast<unsigned long long>(net.messages_sent),
                  static_cast<unsigned long long>(net.messages_delivered),
                  static_cast<unsigned long long>(net.messages_dropped),
                  static_cast<unsigned long long>(net.frames_rejected),
                  static_cast<unsigned long long>(tcp.connects_ok),
                  static_cast<unsigned long long>(tcp.peer_down_events));
      std::fflush(stdout);
    }
  }

  std::printf("STOPPING %s height=%llu\n", flags.id.c_str(),
              static_cast<unsigned long long>(node.chain().height()));
  std::fflush(stdout);
  node.Stop();
  network.Shutdown();
  return 0;
}
