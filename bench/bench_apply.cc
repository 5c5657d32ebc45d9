// Block-apply cost benchmark (DESIGN.md §13): times IndexSet::ApplyBlock —
// the one path every block takes into the indexes — on BChainBench donate
// blocks at pool sizes {none, 1, 2, 4}. The set holds the system SenID/Tname
// layered indexes plus a continuous (amount) and a discrete (project) user
// layered index, each with an ALI over it, so every transaction is
// extracted for four targets and encoded + SHA-256 hashed once for the
// ALIs. The merge runs one task per layered index plus one per ALI, which
// only computes the block's MB-tree root from those shared hashes (an ALI
// keeps no layered index of its own). No simulated work: the figure is
// real extract + merge cost, with
// block building and storage left out (blocks are built once in memory).
// Each configuration runs `kTrials` fresh index sets; the median is
// reported. Writes a JSON summary to $SEBDB_BENCH_JSON (default
// BENCH_apply.json).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bchainbench/bench_chain.h"
#include "common/thread_pool.h"

namespace sebdb {
namespace bench {
namespace {

constexpr int kTxnsPerBlock = 100;  // BChainBench's default block size
constexpr int kTrials = 5;

// BChainBench donate blocks: 50 senders, 1000 donors, 20 projects, amounts
// drawn uniformly — the shape the paper's query figures index.
std::vector<Block> MakeDonateBlocks(int blocks) {
  Random rng(42);
  std::vector<Block> out;
  Timestamp ts = 0;
  for (int b = 0; b < blocks; b++) {
    BlockBuilder builder;
    builder.SetHeight(b).SetTimestamp(ts).SetFirstTid(
        1 + static_cast<TransactionId>(b) * kTxnsPerBlock);
    for (int i = 0; i < kTxnsPerBlock; i++) {
      Transaction txn = MakeBenchTxn(
          "donate", "user" + std::to_string(rng.Uniform(50)),
          {Value::Str("d" + std::to_string(rng.Uniform(1000))),
           Value::Str("proj" + std::to_string(rng.Uniform(20))),
           Value::Int(static_cast<int64_t>(rng.Uniform(100000)))});
      txn.set_ts(ts += 10);
      builder.AddTransaction(std::move(txn));
    }
    out.push_back(std::move(builder).Build("sig"));
  }
  return out;
}

// One fresh index set (system indexes + ALIs, two user indexes + ALIs)
// taking every block through ApplyBlock; returns the apply wall time.
double ApplyMillis(const std::vector<Block>& blocks, ThreadPool* pool) {
  IndexSet indexes(/*store=*/nullptr);
  if (!indexes
           .CreateLayeredIndex("donate", "amount",
                               Schema::kNumSystemColumns + 2,
                               /*discrete=*/false)
           .ok() ||
      !indexes
           .CreateLayeredIndex("donate", "project",
                               Schema::kNumSystemColumns + 1,
                               /*discrete=*/true)
           .ok()) {
    abort();
  }
  WallTimer timer;
  for (const Block& block : blocks) {
    if (!indexes.ApplyBlock(block, pool).ok()) abort();
  }
  return timer.ElapsedMicros() / 1000.0;
}

struct Config {
  const char* name;
  int pool_threads;  // 0: no pool
};

void Main() {
  const int scale = BenchScale();
  const int num_blocks = 200 * scale;
  const char* json_path_env = std::getenv("SEBDB_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_apply.json";

  ReportHeader("apply",
               "IndexSet::ApplyBlock on BChainBench donate blocks, pools "
               "{none,1,2,4}; system + 2 user layered indexes, all with ALI");
  const std::vector<Block> blocks = MakeDonateBlocks(num_blocks);
  const uint64_t txns = static_cast<uint64_t>(num_blocks) * kTxnsPerBlock;

  const Config configs[] = {
      {"nopool", 0}, {"pool1", 1}, {"pool2", 2}, {"pool4", 4}};

  std::string json = "{\n  \"bench\": \"apply\",\n  \"scale\": " +
                     std::to_string(scale) + ",\n  \"txns_per_block\": " +
                     std::to_string(kTxnsPerBlock) + ",\n  \"blocks\": " +
                     std::to_string(num_blocks) + ",\n  \"trials\": " +
                     std::to_string(kTrials) + ",\n  \"runs\": [\n";
  double nopool_ms = 0, pool4_ms = 0;
  bool first = true;
  for (const Config& config : configs) {
    std::unique_ptr<ThreadPool> pool;
    if (config.pool_threads > 0) {
      pool = std::make_unique<ThreadPool>(config.pool_threads);
    }
    std::vector<double> trials;
    for (int t = 0; t < kTrials; t++) {
      trials.push_back(ApplyMillis(blocks, pool.get()));
    }
    std::sort(trials.begin(), trials.end());
    const double apply_ms = trials[trials.size() / 2];
    const double per_block_us = apply_ms * 1000.0 / num_blocks;
    const double txns_per_sec = apply_ms > 0 ? txns / (apply_ms / 1000.0) : 0;
    ReportPoint("apply", "donate", config.name, "txns_per_sec", txns_per_sec);
    ReportPoint("apply", "donate", config.name, "per_block_us", per_block_us);

    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    {\"config\": \"%s\", \"pool_threads\": %d, "
                  "\"txns\": %llu, \"apply_ms\": %.3f, "
                  "\"apply_ms_min\": %.3f, \"apply_ms_max\": %.3f, "
                  "\"per_block_apply_us\": %.1f, \"txns_per_sec\": %.1f}",
                  config.name, config.pool_threads,
                  static_cast<unsigned long long>(txns), apply_ms,
                  trials.front(), trials.back(), per_block_us, txns_per_sec);
    json += first ? "" : ",\n";
    json += buf;
    first = false;
    if (config.pool_threads == 0) nopool_ms = apply_ms;
    if (config.pool_threads == 4) pool4_ms = apply_ms;
  }

  const double speedup = pool4_ms > 0 ? nopool_ms / pool4_ms : 0;
  ReportPoint("apply", "headline", "pool4", "speedup_vs_nopool_x", speedup);
  char tail[96];
  std::snprintf(tail, sizeof(tail),
                "\n  ],\n  \"speedup_pool4_vs_nopool_x\": %.2f\n}\n", speedup);
  json += tail;

  std::ofstream out(json_path);
  out << json;
  printf("\nwrote %s\n", json_path.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace sebdb

int main() {
  sebdb::bench::Main();
  return 0;
}
