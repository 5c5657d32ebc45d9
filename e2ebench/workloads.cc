#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "async_rpc.h"
#include "chain_gen.h"
#include "common/clock.h"
#include "common/random.h"
#include "core/cluster_config.h"
#include "core/node.h"
#include "core/thin_client.h"
#include "core/thin_client_transport.h"
#include "network/sim_network.h"
#include "network/tcp_network.h"
#include "sql/parser.h"
#include "stage_replay.h"
#include "storage/block.h"
#include "trace.h"

namespace sebdb {
namespace e2e {
namespace {

// Workload constants. The rates are fixed, not searched per run: a knee
// search would move the offered load along with the code under test.
constexpr double kLightTps = 200;     // about 1/3 of the ~550 tps knee
constexpr double kOverloadTps = 2000; // about 4x the knee
constexpr int64_t kWriteLimitMs = 250;  // goodput latency limit
// The remaining-time budget each write carries: the limit less the batch
// window, so a request the server starts still has time to commit in it.
constexpr int64_t kWriteBudgetMs = 200;
constexpr int64_t kWriteTimeoutMs = 3000;
constexpr int kReadRetries = 5;
constexpr int64_t kWarmupMicros = 1'000'000;
// Set-ups per sql_query run; setup_s is their median. run.py's SETUPS is
// the same count for the cluster workloads.
constexpr int kSetups = 9;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// A closed loop's typical throughput: the median count of operations that
/// finished in each whole second of [start_us, end_us). Unlike the mean
/// rate, one stalled second does not move it.
double MedianPerSecond(const std::vector<int64_t>& done_us, int64_t start_us,
                       int64_t end_us) {
  std::vector<double> counts(std::max<int64_t>(1, (end_us - start_us) / 1'000'000), 0);
  for (int64_t t : done_us) {
    const int64_t w = (t - start_us) / 1'000'000;
    if (t >= start_us && w < static_cast<int64_t>(counts.size())) counts[w]++;
  }
  return Percentile(counts, 0.5);
}

double VmHwmMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

void SleepUntilMicros(int64_t due) {
  for (;;) {
    const int64_t now = NowMicros();
    if (now >= due) return;
    if (due - now > 300) {
      std::this_thread::sleep_for(std::chrono::microseconds(due - now - 200));
    } else {
      std::this_thread::yield();
    }
  }
}

std::vector<std::string> ClientIds(int from, int to) {
  std::vector<std::string> ids;
  for (int i = from; i < to; i++) ids.push_back("client-" + std::to_string(i));
  return ids;
}

// ------------------------------------------------------------ cluster side

/// A generator process's view of the cluster: one TcpNetwork (so at most
/// one connection per node), the async write sender, and a blocking
/// RpcThinTransport for thin.stats samples and the final audit.
class ClusterClient {
 public:
  Status Open(const std::string& config_path) {
    Status s = LoadClusterConfig(Env::Default(), config_path, &config_);
    if (!s.ok()) return s;
    nodes_ = config_.NodeIds();
    net_ = std::make_unique<TcpNetwork>(
        MakeClusterTcpOptions(config_, "e2e-gen"));
    s = net_->Start();
    if (!s.ok()) return s;
    rpc_ = std::make_unique<AsyncRpc>("e2e-writer", net_.get());
    s = rpc_->Start();
    if (!s.ok()) return s;
    stats_ = std::make_unique<RpcThinTransport>("e2e-stats", net_.get(),
                                                nodes_, 2000);
    // Wait until every node answers, so no phase starts on a half-connected
    // transport.
    for (int attempt = 0; attempt < 100; attempt++) {
      bool all = true;
      for (const auto& node : nodes_) {
        RpcThinTransport::NodeStats st;
        if (!stats_->GetNodeStats(node, &st).ok()) all = false;
      }
      if (all) return Status::OK();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return Status::Unavailable("cluster did not answer thin.stats");
  }

  void Close() {
    stats_.reset();
    rpc_.reset();
    if (net_ != nullptr) net_->Shutdown();
  }

  const std::vector<std::string>& nodes() const { return nodes_; }
  TcpNetwork* net() { return net_.get(); }

  /// Frame bytes this endpoint has sent and received so far.
  struct WireBytes {
    double sent = 0;
    double received = 0;
  };
  WireBytes wire_bytes() const {
    return {static_cast<double>(net_->stats().bytes_sent),
            static_cast<double>(net_->tcp_stats().bytes_received)};
  }
  AsyncRpc* rpc() { return rpc_.get(); }
  RpcThinTransport* stats() { return stats_.get(); }

  /// Timed thin.stats round trip.
  Status Sample(const std::string& node, RpcThinTransport::NodeStats* st,
                double* rtt_us) {
    ScopedSpan span("rpc.stats");
    const int64_t t0 = NowMicros();
    Status s = stats_->GetNodeStats(node, st);
    *rtt_us = static_cast<double>(NowMicros() - t0);
    return s;
  }

  /// Waits until every node reports the same height and tip for two polls
  /// in a row.
  Status WaitConverged(RpcThinTransport::NodeStats* tip) {
    std::string last;
    for (int attempt = 0; attempt < 200; attempt++) {
      std::string key;
      bool agree = true;
      RpcThinTransport::NodeStats first;
      for (size_t i = 0; i < nodes_.size(); i++) {
        RpcThinTransport::NodeStats st;
        double rtt;
        Status s = Sample(nodes_[i], &st, &rtt);
        if (!s.ok()) return s;
        if (i == 0) first = st;
        if (st.height != first.height || st.tip_hash != first.tip_hash) {
          agree = false;
        }
        key += std::to_string(st.height) + "/";
      }
      if (agree && key == last) {
        *tip = first;
        return Status::OK();
      }
      last = agree ? key : "";
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return Status::TimedOut("nodes did not converge on one height");
  }

 private:
  ClusterConfig config_;
  std::vector<std::string> nodes_;
  std::unique_ptr<TcpNetwork> net_;
  std::unique_ptr<AsyncRpc> rpc_;
  std::unique_ptr<RpcThinTransport> stats_;
};

/// Samples thin.stats round trips on a background thread.
class RttSampler {
 public:
  explicit RttSampler(ClusterClient* cluster) : cluster_(cluster) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~RttSampler() { Stop(); }
  RttSampler(const RttSampler&) = delete;
  RttSampler& operator=(const RttSampler&) = delete;

  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  std::vector<double> rtt_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rtt_us_;
  }
  /// The cluster totals: each node's latest cumulative counters, summed.
  uint64_t frames_rejected() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& [node, st] : latest_) total += st.frames_rejected;
    return total;
  }
  uint64_t overflow_drops() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& [node, st] : latest_) total += st.overflow_drops;
    return total;
  }

 private:
  void Loop() {
    size_t i = 0;
    while (!stop_) {
      const std::string& node = cluster_->nodes()[i++ % cluster_->nodes().size()];
      RpcThinTransport::NodeStats st;
      double rtt;
      if (cluster_->Sample(node, &st, &rtt).ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        rtt_us_.push_back(rtt);
        latest_[node] = st;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  ClusterClient* cluster_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<double> rtt_us_;
  std::map<std::string, RpcThinTransport::NodeStats> latest_;
  std::thread thread_;  // last: started after every member it reads
};

/// Result of one fixed-rate open-loop write phase.
struct PhaseResult {
  double seconds = 0;
  int64_t attempted = 0;
  int64_t acked = 0;
  int64_t within_limit = 0;
  int64_t refused = 0;
  int64_t timed_out = 0;
  int64_t unanswered = 0;
  int64_t errored = 0;
  std::string first_error;
  std::vector<double> latency_ms;  // acked writes, from their due time
  std::vector<double> untraced_ms;  // the acked writes sent with spans off
  std::vector<double> traced_ms;    // ... and with spans on
  std::vector<double> lag_ms;      // how late each send left
  std::vector<std::string> acked_keys;
  std::vector<Transaction> acked_txns;
};

/// Open-loop writer: signed donate INSERTs, spread round-robin over the
/// nodes, each timed from the instant it was due, not when it left.
class WriteStream {
 public:
  WriteStream(ClusterClient* cluster, std::vector<std::string> writers,
              std::string key_prefix, uint64_t seed)
      : cluster_(cluster),
        writers_(std::move(writers)),
        key_prefix_(std::move(key_prefix) + "-"),
        rng_(seed) {
    AddDevIdentities(writers_, &keys_);
    AddDevIdentities({kSchemaSigner}, &keys_);
  }

  const KeyStore& keys() const { return keys_; }
  const std::string& key_prefix() const { return key_prefix_; }

  /// Runs one phase on the calling thread and returns once every request
  /// of it has completed.
  void Run(double rate, double seconds, PhaseResult* out) {
    const int64_t n = std::max<int64_t>(1, std::llround(rate * seconds));
    const int64_t start_wall = SystemClock::Default()->NowMicros();
    std::vector<Transaction> txns(n);
    std::vector<std::string> bodies(n);
    std::vector<std::string> keys(n);
    for (int64_t i = 0; i < n; i++) {
      keys[i] = key_prefix_ + std::to_string(phase_) + "-" + std::to_string(i);
      Transaction txn(
          "donate",
          {Value::Str(keys[i]),
           Value::Str("project-" + std::to_string(rng_.Uniform(100))),
           Value::Int(static_cast<int64_t>(rng_.Uniform(1'000'000)))});
      txn.set_ts(start_wall + static_cast<int64_t>(1e6 * i / rate));
      (void)keys_.SignTransaction(writers_[i % writers_.size()], &txn);
      txn.EncodeTo(&bodies[i]);
      txns[i] = std::move(txn);
    }
    phase_++;

    // Callbacks run on the network's delivery thread (or in ExpireOverdue)
    // and touch this frame's locals, so the phase ends only once every one
    // of them has counted itself done under `mu`.
    struct Shared {
      std::mutex mu;
      PhaseResult* out;
      int64_t done = 0;
    } shared{{}, out};
    out->seconds = seconds;
    out->attempted = n;
    const auto& nodes = cluster_->nodes();
    const int64_t start = NowMicros() + 2000;
    int64_t last_expire = 0;
    for (int64_t i = 0; i < n; i++) {
      const int64_t due = start + static_cast<int64_t>(1e6 * i / rate);
      SleepUntilMicros(due);
      const int64_t now = NowMicros();
      out->lag_ms.push_back(static_cast<double>(now - due) / 1000.0);
      const bool traced = Tracer::Get().Tracing(due);
      cluster_->rpc()->Send(
          nodes[i % nodes.size()], thin_rpc::kSubmit, bodies[i],
          kWriteBudgetMs, kWriteTimeoutMs,
          [&shared, &txns, &keys, i, due, traced](const RpcReply& reply) {
            const int64_t end = NowMicros();
            const double ms = static_cast<double>(end - due) / 1000.0;
            if (traced) Tracer::Get().Record("rpc.submit", due, end, 0, i + 1);
            std::lock_guard<std::mutex> lock(shared.mu);
            shared.done++;
            PhaseResult* r = shared.out;
            switch (reply.code) {
              case Status::Code::kOk:
                r->acked++;
                if (ms <= kWriteLimitMs) r->within_limit++;
                r->latency_ms.push_back(ms);
                (traced ? r->traced_ms : r->untraced_ms).push_back(ms);
                r->acked_keys.push_back(keys[i]);
                r->acked_txns.push_back(txns[i]);
                break;
              case Status::Code::kResourceExhausted:
                r->refused++;
                break;
              case Status::Code::kTimedOut:
                r->timed_out++;
                if (reply.client_timeout) r->unanswered++;
                break;
              default:
                r->errored++;
                if (r->first_error.empty()) r->first_error = reply.message;
                break;
            }
          });
      if (now - last_expire > 10'000) {
        cluster_->rpc()->ExpireOverdue(NowMillis());
        last_expire = now;
      }
    }
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(shared.mu);
        if (shared.done == n) break;
      }
      cluster_->rpc()->ExpireOverdue(NowMillis());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

 private:
  ClusterClient* cluster_;
  std::vector<std::string> writers_;
  std::string key_prefix_;
  Random rng_;
  KeyStore keys_;
  int phase_ = 0;
};

void AddPhase(const PhaseResult& p, Report* report) {
  report->attempted += p.attempted;
  report->acked += p.acked;
  report->refused += p.refused;
  report->timed_out += p.timed_out;
  report->unanswered += p.unanswered;
  report->errored += p.errored;
  if (p.errored > 0) report->Fail("write errored: " + p.first_error);
}

/// An open-loop generator that runs as late as the writes it times
/// measures itself, not the system: such a run fails.
void CheckLag(double lag_p99_ms, double write_p50_ms, Report* report) {
  report->Set("gen.lag_p99_ms", lag_p99_ms);
  if (lag_p99_ms > write_p50_ms) {
    report->Fail("generator lag p99 " + std::to_string(lag_p99_ms) +
                 " ms rivals write p50 " + std::to_string(write_p50_ms) + " ms");
  }
}

/// Network and rpc metrics every cluster workload reports. `b0`/`b1`
/// bracket the traffic phase, so set-up, convergence and audit calls are
/// not charged to the `ops` it ran.
void ReportClusterLayers(ClusterClient* cluster, const RttSampler& sampler,
                         const ClusterClient::WireBytes& b0,
                         const ClusterClient::WireBytes& b1, double ops,
                         Report* report) {
  const NetworkStats net = cluster->net()->stats();
  const std::vector<double> rtt = sampler.rtt_us();
  report->Set("network.rtt_us", Percentile(rtt, 0.5));
  report->Set("network.bytes_sent_per_op", Ratio(b1.sent - b0.sent, ops));
  report->Set("network.bytes_received_per_op",
              Ratio(b1.received - b0.received, ops));
  report->Set("network.dropped", static_cast<double>(net.messages_dropped));
  report->Set("network.frames_rejected",
              static_cast<double>(net.frames_rejected + sampler.frames_rejected()));
  report->Set("network.overflow_drops",
              static_cast<double>(net.overflow_drops + sampler.overflow_drops()));
  report->Set("rpc.refused", static_cast<double>(report->refused));
  report->Set("rpc.timed_out", static_cast<double>(report->timed_out));
}

/// Replays the run's own transactions through the write-path stages;
/// `keys` holds their senders and kSchemaSigner.
void ReportStages(const std::vector<Transaction>& txns, int batch,
                  const KeyStore& keys, const std::string& scratch,
                  Report* report) {
  StageCosts costs;
  Status s = ReplayStages(txns, batch, keys, scratch, &costs);
  if (!s.ok()) {
    report->Fail("stage replay: " + s.ToString());
    return;
  }
  report->Set("core.verify_sig_us_per_txn", costs.verify_sig_us_per_txn);
  report->Set("core.append_batch_us_per_block", costs.append_batch_us_per_block);
  report->Set("core.apply_record_us_per_block", costs.apply_record_us_per_block);
  report->Set("storage.merkle_us_per_block", costs.merkle_us_per_block);
  report->Set("storage.append_us_per_block", costs.store_append_us_per_block);
}

/// Every acked key is on chain exactly once. The nodes already agree on
/// height and tip hash, so one node's chain stands for all of them.
void AuditWrites(ClusterClient* cluster, uint64_t height,
                 const std::string& prefix,
                 const std::vector<std::string>& acked, Report* report) {
  int64_t duplicates = 0;
  std::map<std::string, int> on_chain;
  double user_bytes = 0;
  const std::string node = cluster->nodes().front();
  for (uint64_t h = 1; h < height; h++) {
    std::string record;
    Status s = cluster->stats()->GetRawBlock(node, h, &record);
    Block block;
    Slice input(record);
    if (s.ok()) s = Block::DecodeFrom(&input, &block);
    if (!s.ok()) {
      report->Fail("audit: block " + std::to_string(h) + ": " + s.ToString());
      return;
    }
    for (const auto& txn : block.transactions()) {
      if (txn.tname() != "donate" || txn.values().empty() ||
          txn.values()[0].type() != ValueType::kString ||
          txn.values()[0].AsString().rfind(prefix, 0) != 0) {
        continue;  // not written by this run
      }
      if (++on_chain[txn.values()[0].AsString()] == 2) duplicates++;
      user_bytes += EncodedSize(txn);
    }
  }
  int64_t missing = 0;
  for (const auto& key : acked) {
    if (on_chain.find(key) == on_chain.end()) missing++;
  }
  if (missing > 0) {
    report->Fail("audit: " + std::to_string(missing) + " acked keys missing");
  }
  if (duplicates > 0) {
    report->Fail("audit: " + std::to_string(duplicates) + " keys on chain twice");
  }
  report->Set("chain_user_bytes", user_bytes);
}

/// Block/transaction cache and checkpoint buffer pool rates between two
/// snapshots of one node.
void ReportCacheRates(const BlockStore::CacheStats& c0,
                      const BlockStore::CacheStats& c1,
                      const BufferManager::Stats& b0,
                      const BufferManager::Stats& b1, Report* report) {
  const double block_hits = static_cast<double>(c1.block_hits - c0.block_hits);
  const double txn_hits = static_cast<double>(c1.txn_hits - c0.txn_hits);
  const double pool_hits = static_cast<double>(b1.hits - b0.hits);
  report->Set("storage.block_cache_hit_rate",
              Ratio(block_hits, block_hits + (c1.block_misses - c0.block_misses)));
  report->Set("storage.txn_cache_hit_rate",
              Ratio(txn_hits, txn_hits + (c1.txn_misses - c0.txn_misses)));
  report->Set("storage.cache_evictions",
              static_cast<double>((c1.block_evictions - c0.block_evictions) +
                                  (c1.txn_evictions - c0.txn_evictions)));
  report->Set("storage.buffer_hit_rate",
              Ratio(pool_hits, pool_hits + (b1.misses - b0.misses)));
}

std::string ScratchDir(const Args& args) {
  return args.Get("scratch", ".bench_build/run/scratch");
}

}  // namespace

// ------------------------------------------------------------------- Args

std::string Args::Get(const std::string& key, const std::string& def) const {
  auto it = values.find(key);
  return it == values.end() ? def : it->second;
}

int64_t Args::GetInt(const std::string& key, int64_t def) const {
  auto it = values.find(key);
  return it == values.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
}

void Report::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"acked\": " << acked
      << ", \"refused\": " << refused << ", \"timed_out\": " << timed_out
      << ", \"unanswered\": " << unanswered << ", \"errored\": " << errored
      << ", \"errors\": [";
  for (size_t i = 0; i < errors.size() && i < 20; i++) {
    out << (i ? ", " : "") << '"' << JsonEscape(errors[i]) << '"';
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!std::isfinite(value)) continue;
    out << (first ? "" : ", ") << '"' << name << "\": " << value;
    first = false;
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------- preload

int Preload(const Args& args) {
  const std::string kind = args.Get("kind");
  const std::string dir = args.Get("dir");
  if (dir.empty()) {
    std::fprintf(stderr, "preload: --dir is required\n");
    return 2;
  }
  Status s;
  std::ostringstream out;
  if (kind == "schema") {
    s = WriteSchemaChain(dir);
    out << "{\"kind\": \"schema\"}";
  } else if (kind == "rw") {
    RwChain spec;
    spec.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
    spec.blocks = static_cast<int>(args.GetInt("blocks", spec.blocks));
    std::vector<int64_t> per_reader;
    s = WriteRwChain(spec, dir, &per_reader);
    out << "{\"kind\": \"rw\", \"reader_counts\": \"";
    for (size_t i = 0; i < per_reader.size(); i++) {
      out << (i ? "," : "") << per_reader[i];
    }
    out << "\"}";
  } else if (kind == "sql") {
    SqlChain spec;
    spec.blocks = static_cast<int>(args.GetInt("blocks", spec.blocks));
    uint64_t user_bytes = 0;
    s = WriteSqlChain(spec, dir, &user_bytes);
    out << "{\"kind\": \"sql\", \"user_bytes\": " << user_bytes << "}";
  } else {
    std::fprintf(stderr, "preload: unknown --kind=%s\n", kind.c_str());
    return 2;
  }
  if (!s.ok()) {
    std::fprintf(stderr, "preload %s: %s\n", kind.c_str(), s.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// ----------------------------------------------------------------- ingest

void RunIngest(const Args& args, Report* report) {
  const double seconds = static_cast<double>(args.GetInt("seconds", 10));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  ClusterClient cluster;
  Status s = cluster.Open(args.Get("config"));
  if (!s.ok()) {
    report->Fail("connect: " + s.ToString());
    cluster.Close();
    return;
  }
  WriteStream writes(&cluster, ClientIds(0, kClientPool),
                     "k" + std::to_string(seed), seed);
  const ClusterClient::WireBytes bytes0 = cluster.wire_bytes();
  RttSampler sampler(&cluster);

  // Light phase: latency at a rate well under the knee, given most of the
  // run so its tail rests on enough samples. In the traced run its first
  // half runs untraced, which prices the tracing itself.
  const double light_s = seconds * 0.7;
  if (Tracer::Get().enabled()) {
    Tracer::Get().Enable(NowMicros() + static_cast<int64_t>(light_s * 5e5));
  }
  PhaseResult light;
  writes.Run(kLightTps, light_s, &light);

  // Overload phase: 4x the knee; goodput counts acks inside the limit.
  RpcThinTransport::NodeStats before, after;
  double rtt;
  s = cluster.Sample(cluster.nodes().front(), &before, &rtt);
  const int64_t t0 = NowMicros();
  PhaseResult over;
  writes.Run(kOverloadTps, seconds * 0.3, &over);
  const double over_s = static_cast<double>(NowMicros() - t0) / 1e6;
  if (s.ok()) s = cluster.Sample(cluster.nodes().front(), &after, &rtt);
  sampler.Stop();
  const ClusterClient::WireBytes bytes1 = cluster.wire_bytes();

  AddPhase(light, report);
  AddPhase(over, report);
  if (light.acked == 0) report->Fail("no write acked at the light rate");

  RpcThinTransport::NodeStats tip;
  if (s.ok()) s = cluster.WaitConverged(&tip);
  if (!s.ok()) {
    report->Fail("convergence: " + s.ToString());
  } else {
    std::vector<std::string> acked = light.acked_keys;
    acked.insert(acked.end(), over.acked_keys.begin(), over.acked_keys.end());
    AuditWrites(&cluster, tip.height, writes.key_prefix(), acked, report);
  }

  const double write_p50 = Percentile(light.latency_ms, 0.5);
  report->Set("write_p50_ms", write_p50);
  report->Set("write_p99_ms", Percentile(light.latency_ms, 0.99));
  report->Set("write_samples", static_cast<double>(light.latency_ms.size()));
  report->Set("write_goodput_tps",
              static_cast<double>(over.within_limit) / over.seconds);
  report->Set("overload_acked_tps", static_cast<double>(over.acked) / over.seconds);
  report->Set("overload_refused", static_cast<double>(over.refused));
  report->Set("overload_timed_out", static_cast<double>(over.timed_out));
  // The check compares like with like: the light phase's lag against its
  // own median. Overload lag is printed; it shows the sender's limit.
  CheckLag(Percentile(light.lag_ms, 0.99), write_p50, report);
  report->Set("gen.overload_lag_p99_ms", Percentile(over.lag_ms, 0.99));

  ReportClusterLayers(&cluster, sampler, bytes0, bytes1,
                      static_cast<double>(report->attempted), report);
  const double blocks = static_cast<double>(after.height - before.height);
  const double txns_per_block = Ratio(static_cast<double>(over.acked), blocks);
  report->Set("consensus.txns_per_block", txns_per_block);
  report->Set("consensus.blocks_per_s", Ratio(blocks, over_s));
  report->Set("consensus.commit_wait_ms",
              write_p50 - Percentile(sampler.rtt_us(), 0.5) / 1000.0);

  if (Tracer::Get().enabled()) {
    const double traced_p50 = Percentile(light.traced_ms, 0.5);
    const double untraced_p50 = Percentile(light.untraced_ms, 0.5);
    report->Set("trace.overhead_pct",
                100.0 * Ratio(traced_p50 - untraced_p50, untraced_p50));
    std::vector<Transaction> replay = light.acked_txns;
    replay.insert(replay.end(), over.acked_txns.begin(), over.acked_txns.end());
    const int batch = std::max(1, static_cast<int>(std::lround(txns_per_block)));
    ReportStages(replay, batch, writes.keys(), ScratchDir(args), report);
    // What the measured stages leave of the light-rate median: mostly the
    // batch window the orderer waits out before cutting a block.
    const double explained =
        Percentile(sampler.rtt_us(), 0.5) / 1000.0 +
        (report->metrics["core.verify_sig_us_per_txn"] * batch +
         report->metrics["core.append_batch_us_per_block"] +
         report->metrics["core.apply_record_us_per_block"]) /
            1000.0;
    report->Set("trace.unexplained_write_p50_ms", write_p50 - explained);
  }
  report->Set("gen_peak_rss_mb", VmHwmMb());
  cluster.Close();
}

// ------------------------------------------------------------- read_write

namespace {

/// Forwards to the RPC transport and times the calls the verified read
/// makes, as spans and as plain samples.
class TimedTransport : public ThinClientTransport {
 public:
  explicit TimedTransport(std::unique_ptr<RpcThinTransport> inner)
      : inner_(std::move(inner)) {}

  std::vector<std::string> Nodes() override { return inner_->Nodes(); }
  Status GetHeaders(const std::string& node, BlockId from,
                    std::vector<BlockHeader>* out) override {
    ScopedSpan span("rpc.get_headers");
    return inner_->GetHeaders(node, from, out);
  }
  Status GetRawBlock(const std::string& node, BlockId height,
                     std::string* record) override {
    return inner_->GetRawBlock(node, height, record);
  }
  Status ProveRange(const std::string& node, const std::string& table,
                    const std::string& column, const Value* lo,
                    const Value* hi, AuthQueryResponse* out) override {
    return inner_->ProveRange(node, table, column, lo, hi, out);
  }
  Status DigestRange(const std::string& node, const std::string& table,
                     const std::string& column, const Value* lo,
                     const Value* hi, uint64_t height,
                     Hash256* digest) override {
    return inner_->DigestRange(node, table, column, lo, hi, height, digest);
  }
  Status ProveTrace(const std::string& node, bool by_sender,
                    const std::string& key, const Timestamp* window_start,
                    const Timestamp* window_end,
                    AuthQueryResponse* out) override {
    ScopedSpan span("rpc.prove_trace");
    const int64_t t0 = NowMicros();
    Status s = inner_->ProveTrace(node, by_sender, key, window_start,
                                  window_end, out);
    prove_us.push_back(static_cast<double>(NowMicros() - t0));
    return s;
  }
  Status DigestTrace(const std::string& node, bool by_sender,
                     const std::string& key, uint64_t height,
                     const Timestamp* window_start,
                     const Timestamp* window_end, Hash256* digest) override {
    ScopedSpan span("rpc.digest_trace");
    const int64_t t0 = NowMicros();
    Status s = inner_->DigestTrace(node, by_sender, key, height, window_start,
                                   window_end, digest);
    digest_us.push_back(static_cast<double>(NowMicros() - t0));
    return s;
  }

  std::vector<double> prove_us;
  std::vector<double> digest_us;

 private:
  std::unique_ptr<RpcThinTransport> inner_;
};

std::vector<int64_t> ParseCounts(const std::string& csv) {
  std::vector<int64_t> counts;
  std::stringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) counts.push_back(std::strtoll(item.c_str(), nullptr, 10));
  return counts;
}

/// auth.prove_local_us and the storage cache rates: the same traces, proved
/// in-process by a node opened on a copy of the same chain.
void ReportLocalProve(const std::string& dir, const std::vector<int>& keys,
                      Report* report) {
  KeyStore keystore;
  AddDevIdentities(ClientIds(0, kClientPool), &keystore);
  AddDevIdentities({kSchemaSigner, "node2", "node3"}, &keystore);
  SimNetwork net;
  NodeOptions options;
  options.node_id = "node1";
  options.data_dir = dir;
  options.participants = {"node1"};
  options.enable_gossip = false;
  options.enable_repair = false;
  SebdbNode node(options, &keystore, nullptr);
  Status s = node.Start(&net);
  if (!s.ok()) {
    report->Fail("local prove node: " + s.ToString());
    return;
  }
  const BlockStore::CacheStats c0 = node.chain().cache_stats();
  const BufferManager::Stats b0 = node.buffer_stats();
  std::vector<double> us;
  for (int k : keys) {
    AuthQueryResponse out;
    ScopedSpan span("auth.prove_local");
    const int64_t t0 = NowMicros();
    s = node.AuthProveTrace(true, "client-" + std::to_string(k), &out);
    us.push_back(static_cast<double>(NowMicros() - t0));
    if (!s.ok()) {
      report->Fail("local prove: " + s.ToString());
      break;
    }
  }
  const BlockStore::CacheStats c1 = node.chain().cache_stats();
  const BufferManager::Stats b1 = node.buffer_stats();
  report->Set("auth.prove_local_us", Percentile(us, 0.5));
  ReportCacheRates(c0, c1, b0, b1, report);
  node.Stop();
  net.Shutdown();
}

}  // namespace

void RunReadWrite(const Args& args, Report* report) {
  const double seconds = static_cast<double>(args.GetInt("seconds", 10));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const std::vector<int64_t> counts = ParseCounts(args.Get("reader-counts"));
  if (static_cast<int>(counts.size()) != kRwReaders) {
    report->Fail("--reader-counts must list " + std::to_string(kRwReaders) + " counts");
    return;
  }
  ClusterClient cluster;
  Status s = cluster.Open(args.Get("config"));
  if (!s.ok()) {
    report->Fail("connect: " + s.ToString());
    cluster.Close();
    return;
  }
  // Writers sign as the client identities no reader traces, so every
  // traced sender keeps its seeded row count while writes land.
  WriteStream writes(&cluster, ClientIds(kRwReaders, kClientPool),
                     "w" + std::to_string(seed), seed);
  const ClusterClient::WireBytes bytes0 = cluster.wire_bytes();
  RttSampler sampler(&cluster);

  RpcThinTransport::NodeStats before, after;
  double rtt;
  (void)cluster.Sample(cluster.nodes().front(), &before, &rtt);
  PhaseResult wr;
  std::thread writer([&] {
    writes.Run(kLightTps, seconds + kWarmupMicros / 1e6, &wr);
  });

  auto timed = std::make_unique<TimedTransport>(std::make_unique<RpcThinTransport>(
      "e2e-reader", cluster.net(), cluster.nodes(), 5000));
  TimedTransport* transport = timed.get();
  ThinClient client(std::move(timed), seed);
  Random rng(seed ^ 0x7eadULL);
  std::vector<double> read_ms, untraced_ms, traced_ms, sync_us, verify_us,
      vo_bytes;
  std::vector<int64_t> read_done_us;
  std::vector<int> prove_keys;  // senders the local prove repeats
  int64_t reads = 0, read_ok = 0, retries = 0, read_errors = 0;
  // The first second warms the thin client (the first sync pulls every
  // header) and the node caches: its reads are checked but not timed.
  const int64_t warm_until = NowMicros() + kWarmupMicros;
  const int64_t start = warm_until;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e6);
  // In the traced run both streams record spans from half-time on; the
  // untraced first half prices the tracing.
  const bool tracing = Tracer::Get().enabled();
  if (tracing) Tracer::Get().Enable(start + static_cast<int64_t>(seconds * 5e5));
  while (NowMicros() < end) {
    const bool warm = NowMicros() >= warm_until;
    const bool traced = Tracer::Get().Tracing(NowMicros());
    const int k = static_cast<int>(rng.Uniform(kRwReaders));
    const std::string key = "client-" + std::to_string(k);
    std::vector<Transaction> rows;
    AuthQueryStats st;
    reads++;
    const int64_t t0 = NowMicros();
    {
      ScopedSpan read("thin.read", static_cast<uint64_t>(reads));
      for (int attempt = 0; attempt < kReadRetries; attempt++) {
        const int64_t h0 = NowMicros();
        {
          ScopedSpan span("thin.sync_headers");
          s = client.SyncHeaders();
        }
        sync_us.push_back(static_cast<double>(NowMicros() - h0));
        if (s.ok()) {
          ScopedSpan span("thin.auth_trace");
          s = client.AuthTraceQuery(/*by_sender=*/true, key, 1, 1, &rows, &st);
        }
        // The auxiliary node may not have applied the pinned height yet.
        if (!s.IsInvalidArgument()) break;
        retries++;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    const double ms = static_cast<double>(NowMicros() - t0) / 1000.0;
    if (!s.ok()) {
      read_errors++;
      report->Fail("read " + key + ": " + s.ToString());
      continue;
    }
    if (static_cast<int64_t>(rows.size()) != counts[k]) {
      read_errors++;
      report->Fail("read " + key + " returned " + std::to_string(rows.size()) +
                   " rows, seeded " + std::to_string(counts[k]));
      continue;
    }
    read_ok++;
    if (!warm) continue;
    read_ms.push_back(ms);
    read_done_us.push_back(NowMicros());
    (traced ? traced_ms : untraced_ms).push_back(ms);
    verify_us.push_back(static_cast<double>(st.client_micros));
    vo_bytes.push_back(static_cast<double>(st.vo_bytes));
    if (prove_keys.size() < 64) prove_keys.push_back(k);
  }
  writer.join();
  sampler.Stop();
  (void)cluster.Sample(cluster.nodes().front(), &after, &rtt);
  const ClusterClient::WireBytes bytes1 = cluster.wire_bytes();
  const double blocks = static_cast<double>(after.height - before.height);
  const double txns_per_block = Ratio(static_cast<double>(wr.acked), blocks);

  AddPhase(wr, report);
  report->attempted += reads;
  report->acked += read_ok;
  report->errored += read_errors;

  RpcThinTransport::NodeStats tip;
  s = cluster.WaitConverged(&tip);
  if (!s.ok()) {
    report->Fail("convergence: " + s.ToString());
  } else {
    AuditWrites(&cluster, tip.height, writes.key_prefix(), wr.acked_keys,
                report);
  }

  report->Set("read_p50_ms", Percentile(read_ms, 0.5));
  report->Set("read_p99_ms", Percentile(read_ms, 0.99));
  report->Set("read_samples", static_cast<double>(read_ms.size()));
  report->Set("reads_per_s", MedianPerSecond(read_done_us, start, end));
  report->Set("write_p50_ms", Percentile(wr.latency_ms, 0.5));
  report->Set("write_p99_ms", Percentile(wr.latency_ms, 0.99));
  CheckLag(Percentile(wr.lag_ms, 0.99), Percentile(wr.latency_ms, 0.5), report);
  ReportClusterLayers(&cluster, sampler, bytes0, bytes1,
                      static_cast<double>(report->attempted), report);
  report->Set("rpc.retries", static_cast<double>(retries));
  report->Set("consensus.txns_per_block", txns_per_block);
  report->Set("consensus.blocks_per_s", Ratio(blocks, seconds));
  report->Set("consensus.commit_wait_ms",
              Percentile(wr.latency_ms, 0.5) -
                  Percentile(sampler.rtt_us(), 0.5) / 1000.0);
  report->Set("core.headers_sync_us", Percentile(sync_us, 0.5));
  report->Set("core.thin_verify_us", Percentile(verify_us, 0.5));
  report->Set("auth.prove_us", Percentile(transport->prove_us, 0.5));
  report->Set("auth.digest_us", Percentile(transport->digest_us, 0.5));
  report->Set("auth.vo_bytes", Percentile(vo_bytes, 0.5));

  if (tracing) {
    const double untraced_p50 = Percentile(untraced_ms, 0.5);
    report->Set("trace.overhead_pct",
                100.0 * Ratio(Percentile(traced_ms, 0.5) - untraced_p50,
                              untraced_p50));
    const std::string local = args.Get("local-chain");
    if (!local.empty()) ReportLocalProve(local, prove_keys, report);
    ReportStages(wr.acked_txns,
                 std::max(1, static_cast<int>(std::lround(txns_per_block))),
                 writes.keys(), ScratchDir(args), report);
  }
  report->Set("gen_peak_rss_mb", VmHwmMb());
  cluster.Close();
}

// -------------------------------------------------------------- sql_query

namespace {

enum QueryType { kQ2, kQ3, kQ4, kQ5, kQ6, kQ7, kNumQueryTypes };
const char* const kQueryNames[] = {"q2", "q3", "q4", "q5", "q6", "q7"};

struct Query {
  QueryType type;
  std::string sql;
  int64_t expected_rows = 0;
  int64_t expected_txns = -1;   // Q7: the block's txn count
  int64_t bearing_blocks = 0;   // Q2/Q4: blocks holding a result
  Value lo, hi;                 // Q2/Q4 index probe bounds
};

/// Draws one query of `type` with seeded parameters; Table II shapes.
Query MakeQuery(QueryType type, const SqlChain& spec, const SqlTruth& truth,
                uint64_t height, Random* rng) {
  Query q;
  q.type = type;
  auto window = [&](int width, int* d1, int* d2) {
    *d1 = static_cast<int>(rng->Uniform(spec.blocks - width + 1));
    *d2 = *d1 + width - 1;
    return "[" + std::to_string(SqlFirstTs(spec, *d1)) + ", " +
           std::to_string(SqlLastTs(spec, *d2)) + "]";
  };
  int d1 = 0, d2 = 0;
  switch (type) {
    case kQ2: {
      const int k = static_cast<int>(rng->Uniform(spec.senders));
      q.sql = "TRACE OPERATOR = 'org" + std::to_string(k) + "'";
      q.expected_rows = truth.SenderRows(k);
      q.bearing_blocks = truth.SenderBlocks(k);
      q.lo = q.hi = Value::Str("org" + std::to_string(k));
      break;
    }
    case kQ3: {
      const int k = static_cast<int>(rng->Uniform(spec.senders));
      const std::string w = window(spec.blocks / 4, &d1, &d2);
      q.sql = "TRACE " + w + " OPERATOR = 'org" + std::to_string(k) +
              "', OPERATION = 'transfer'";
      q.expected_rows = truth.SenderTransfers(k, d1, d2);
      break;
    }
    case kQ4: {
      const int64_t lo = static_cast<int64_t>(rng->Uniform(999'000));
      const int64_t hi = lo + 999;
      q.sql = "SELECT * FROM donate WHERE amount BETWEEN " + std::to_string(lo) +
              " AND " + std::to_string(hi);
      q.expected_rows = truth.DonateAmountRows(lo, hi);
      q.bearing_blocks = truth.DonateAmountBlocks(lo, hi);
      q.lo = Value::Int(lo);
      q.hi = Value::Int(hi);
      break;
    }
    case kQ5: {
      const std::string w = window(20, &d1, &d2);
      q.sql = "SELECT * FROM transfer, distribute ON transfer.organization = "
              "distribute.organization WINDOW " + w;
      q.expected_rows = truth.OrgJoinRows(d1, d2);
      break;
    }
    case kQ6: {
      const std::string w = window(20, &d1, &d2);
      q.sql = "SELECT * FROM onchain.distribute, offchain.donorinfo ON "
              "distribute.donee = donorinfo.donee WINDOW " + w;
      q.expected_rows = truth.DoneeJoinRows(d1, d2);
      break;
    }
    default: {
      const uint64_t id = rng->Uniform(height);
      q.sql = "GET BLOCK ID=" + std::to_string(id);
      q.expected_rows = 1;
      q.expected_txns = truth.TxnsInBlock(id);
      break;
    }
  }
  return q;
}

/// Geometric mean of the per-type medians: one mix-independent figure
/// that every query type moves in proportion to its own change.
double GeomeanOfMedians(const std::vector<std::vector<double>>& per_type) {
  double log_sum = 0;
  int n = 0;
  for (const auto& samples : per_type) {
    if (samples.empty()) continue;
    log_sum += std::log(std::max(Percentile(samples, 0.5), 1e-6));
    n++;
  }
  return n == 0 ? 0 : std::exp(log_sum / n);
}

struct NodeHandle {
  SimNetwork net;
  std::unique_ptr<SebdbNode> node;
};

Status OpenSqlNode(const std::string& dir, OffchainDb* offchain,
                   NodeHandle* handle) {
  NodeOptions options;
  options.node_id = kSchemaSigner;
  options.data_dir = dir;
  options.participants = {kSchemaSigner};
  options.enable_gossip = false;
  options.enable_repair = false;
  handle->node = std::make_unique<SebdbNode>(options, nullptr, offchain);
  return handle->node->Start(&handle->net);
}

}  // namespace

void RunSqlQuery(const Args& args, Report* report) {
  const double seconds = static_cast<double>(args.GetInt("seconds", 10));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const std::string dir = args.Get("chain");
  SqlChain spec;
  spec.blocks = static_cast<int>(args.GetInt("blocks", spec.blocks));
  const SqlTruth truth(spec);

  // Q6's off-chain side: donorinfo rows for the first offchain_donees donees.
  OffchainDb offchain;
  Status s = offchain.CreateTable(
      "donorinfo", {{"donee", ValueType::kString}, {"name", ValueType::kString}});
  for (int e = 0; s.ok() && e < spec.offchain_donees; e++) {
    s = offchain.Insert("donorinfo", {Value::Str("e" + std::to_string(e)),
                                      Value::Str("name-" + std::to_string(e))});
  }
  if (!s.ok()) {
    report->Fail("offchain: " + s.ToString());
    return;
  }

  // Set-up is a node restart over the preloaded chain, done several times;
  // the last node stays up for the measured run.
  std::vector<double> open_s;
  NodeHandle handle;
  for (int i = 0; i < kSetups; i++) {
    if (handle.node != nullptr) {
      handle.node->Stop();
      handle.node.reset();
    }
    const int64_t t0 = NowMicros();
    {
      ScopedSpan span("core.open");
      s = OpenSqlNode(dir, &offchain, &handle);
    }
    open_s.push_back(static_cast<double>(NowMicros() - t0) / 1e6);
    if (!s.ok()) {
      report->Fail("open: " + s.ToString());
      return;
    }
  }
  SebdbNode& node = *handle.node;
  const uint64_t height = node.chain().height();
  if (height != SqlDataHeight(spec.blocks)) {
    report->Fail("chain height " + std::to_string(height) + " != generated " +
                 std::to_string(SqlDataHeight(spec.blocks)));
    return;
  }

  Random rng(seed * 0x2545F4914F6CDD1DULL + 7);
  std::vector<std::vector<double>> ms(kNumQueryTypes);
  std::vector<double> all_ms, parse_us, txns_per_row;
  std::vector<int64_t> done_us;
  std::vector<std::vector<double>> blocks_read(kNumQueryTypes),
      txns_read(kNumQueryTypes), bytes_read(kNumQueryTypes);
  std::vector<double> candidates, precision;
  const BlockStore::CacheStats c0 = node.chain().cache_stats();
  const BufferManager::Stats b0 = node.buffer_stats();
  StorageStats& io = node.chain().store()->stats();
  const bool tracing = Tracer::Get().enabled();

  // In the traced run spans are recorded from half-time on; the untraced
  // first half prices the tracing.
  std::vector<std::vector<double>> half_ms[2] = {
      std::vector<std::vector<double>>(kNumQueryTypes),
      std::vector<std::vector<double>>(kNumQueryTypes)};
  std::vector<QueryType> deck;
  // The first second warms the node's caches after the restart: its
  // queries are checked but not timed.
  const int64_t warm_until = NowMicros() + kWarmupMicros;
  const int64_t start = warm_until;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e6);
  if (tracing) Tracer::Get().Enable(start + static_cast<int64_t>(seconds * 5e5));
  uint64_t request = 0;
  while (NowMicros() < end) {
    const bool warm = NowMicros() >= warm_until;
    const bool traced = Tracer::Get().Tracing(NowMicros());
    if (deck.empty()) {
      for (int t = 0; t < kNumQueryTypes; t++) deck.push_back(static_cast<QueryType>(t));
      for (size_t i = deck.size(); i > 1; i--) std::swap(deck[i - 1], deck[rng.Uniform(i)]);
    }
    const QueryType type = deck.back();
    deck.pop_back();
    Query q = MakeQuery(type, spec, truth, height, &rng);
    request++;
    report->attempted++;
    ExecOptions options;  // access path and join strategy on auto
    ResultSet rs;
    const uint64_t blocks0 = io.blocks_read, txns0 = io.transactions_read,
                   bytes0 = io.bytes_read;
    const int64_t t0 = NowMicros();
    {
      ScopedSpan span("sql.query", request);
      s = node.ExecuteSql(q.sql, options, &rs);
    }
    const double q_ms = static_cast<double>(NowMicros() - t0) / 1000.0;
    if (!s.ok()) {
      report->errored++;
      report->Fail(std::string(kQueryNames[type]) + " " + q.sql + ": " + s.ToString());
      continue;
    }
    bool right = static_cast<int64_t>(rs.num_rows()) == q.expected_rows;
    if (right && q.expected_txns >= 0) {
      right = rs.rows[0].size() > 2 && rs.rows[0][2].AsInt() == q.expected_txns;
    }
    if (!right) {
      report->errored++;
      report->Fail(std::string(kQueryNames[type]) + " " + q.sql + " returned " +
                   std::to_string(rs.num_rows()) + " rows, generator says " +
                   std::to_string(q.expected_rows));
      continue;
    }
    report->acked++;
    if (!warm) continue;
    ms[type].push_back(q_ms);
    all_ms.push_back(q_ms);
    done_us.push_back(NowMicros());
    half_ms[traced ? 1 : 0][type].push_back(q_ms);
    if (!traced) continue;
    // Per-query layer counts; the client is single-threaded, so the
    // store's counter deltas belong to this query alone.
    blocks_read[type].push_back(static_cast<double>(io.blocks_read - blocks0));
    txns_read[type].push_back(static_cast<double>(io.transactions_read - txns0));
    bytes_read[type].push_back(static_cast<double>(io.bytes_read - bytes0));
    txns_per_row.push_back(Ratio(static_cast<double>(io.transactions_read - txns0),
                                 static_cast<double>(std::max<size_t>(1, rs.num_rows()))));
    {
      StatementPtr stmt;
      ScopedSpan span("sql.parse", request);
      const int64_t p0 = NowMicros();
      (void)ParseStatement(q.sql, &stmt);
      parse_us.push_back(static_cast<double>(NowMicros() - p0));
    }
    if (type == kQ2 || type == kQ4) {
      ScopedSpan span("index.candidates", request);
      LayeredIndex* index =
          type == kQ2 ? node.chain().indexes()->senid_index()
                      : node.chain().indexes()->GetLayered("donate", "amount");
      if (index != nullptr) {
        const double n = static_cast<double>(index->CandidateBlocks(&q.lo, &q.hi).Count());
        candidates.push_back(n);
        precision.push_back(Ratio(static_cast<double>(q.bearing_blocks), n));
      }
    }
  }

  for (int t = 0; t < kNumQueryTypes; t++) {
    if (ms[t].empty()) {
      report->Fail(std::string("no successful ") + kQueryNames[t]);
      continue;
    }
    report->Set(std::string(kQueryNames[t]) + "_p50_ms", Percentile(ms[t], 0.5));
    if (tracing) {
      const std::string prefix = std::string("storage.") + kQueryNames[t];
      report->Set(prefix + ".blocks_read", Mean(blocks_read[t]));
      report->Set(prefix + ".txns_read", Mean(txns_read[t]));
      report->Set(prefix + ".bytes_read", Mean(bytes_read[t]));
    }
  }
  report->Set("query_geomean_p50_ms", GeomeanOfMedians(ms));
  report->Set("query_p99_ms", Percentile(all_ms, 0.99));
  report->Set("query_samples", static_cast<double>(all_ms.size()));
  report->Set("queries_per_s", MedianPerSecond(done_us, start, end));
  report->Set("core.open_s", Percentile(open_s, 0.5));
  report->Set("setup_s", Percentile(open_s, 0.5));

  if (tracing) {
    const double untraced = GeomeanOfMedians(half_ms[0]);
    report->Set("trace.overhead_pct",
                100.0 * Ratio(GeomeanOfMedians(half_ms[1]) - untraced, untraced));
    const BlockStore::CacheStats c1 = node.chain().cache_stats();
    const BufferManager::Stats b1 = node.buffer_stats();
    auto all = [&](const std::vector<std::vector<double>>& per) {
      std::vector<double> v;
      for (const auto& x : per) v.insert(v.end(), x.begin(), x.end());
      return Mean(v);
    };
    report->Set("storage.blocks_read_per_query", all(blocks_read));
    report->Set("storage.txns_read_per_query", all(txns_read));
    report->Set("storage.bytes_read_per_query", all(bytes_read));
    ReportCacheRates(c0, c1, b0, b1, report);
    report->Set("index.candidate_blocks_per_query", Mean(candidates));
    report->Set("index.candidate_precision", Mean(precision));
    report->Set("sql.parse_us", Percentile(parse_us, 0.5));
    report->Set("sql.txns_read_per_row", Mean(txns_per_row));

    // Stage replay over the chain's own first blocks, at its batch size.
    KeyStore keys;
    std::vector<std::string> ids = {kSchemaSigner};
    for (int i = 0; i < spec.senders; i++) ids.push_back("org" + std::to_string(i));
    AddDevIdentities(ids, &keys);
    std::vector<Transaction> replay;
    int64_t index = 0;
    const int replay_blocks = 50;
    ForEachSqlRow(spec, [&](const SqlRow& row) {
      if (row.block >= replay_blocks) return;
      Transaction txn = SqlRowTxn(spec, row, index++);
      (void)keys.SignTransaction("org" + std::to_string(row.sender), &txn);
      replay.push_back(std::move(txn));
    });
    ReportStages(replay, spec.txns_per_block, keys, ScratchDir(args), report);
  }
  report->Set("gen_peak_rss_mb", VmHwmMb());
  node.Stop();
  handle.net.Shutdown();
}

}  // namespace e2e
}  // namespace sebdb
