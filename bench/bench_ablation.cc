// Ablation studies for the design choices DESIGN.md calls out:
//   A1 — histogram bucket count ("height of the histogram is configurable
//        for different precisions", paper §IV-B): candidate-block false
//        positives and range-query latency vs bucket count.
//   A2 — MB-tree fanout (paper uses 4 KB pages): VO size and verify time
//        vs fanout.
//   A3 — block size (transactions per block): trade-off between scan and
//        layered random reads.
#include <cstdio>

#include "auth/mbtree.h"
#include "bchainbench/bench_chain.h"
#include "index/histogram.h"
#include "index/layered_index.h"

namespace sebdb {
namespace bench {
namespace {

constexpr int64_t kRangeLo = 100000;

// ---- A1: histogram buckets ----

void HistogramAblation(int scale) {
  ReportHeader("A1", "layered-index precision vs histogram bucket count");
  for (int buckets : {4, 16, 64, 100, 256}) {
    BenchChain::Options options;
    options.num_blocks = 200 * scale;
    options.txns_per_block = 100;
    BenchChain chain("ablation_hist", options);
    if (!chain.CreateDonationSchema().ok()) abort();

    // Results concentrated in a few blocks (Gaussian): a precise histogram
    // prunes the other blocks, a coarse one lumps the query range into a
    // bucket that filler values also occupy, so every block qualifies.
    int result = 1000;
    std::vector<Transaction> special;
    for (int i = 0; i < result; i++) {
      special.push_back(MakeBenchTxn(
          "donate", "u", {Value::Str("d"), Value::Str("p"),
                          Value::Int(kRangeLo + i)}));
    }
    Random rng(5);
    Placement placement;
    placement.gaussian = true;
    placement.stddev = 10.0;
    if (!chain
             .Fill(std::move(special), placement,
                   [&rng](int, int) {
                     return MakeBenchTxn(
                         "donate", "u",
                         {Value::Str("d"), Value::Str("p"),
                          Value::Int(static_cast<int64_t>(
                              rng.Uniform(kRangeLo)))});
                   })
             .ok()) {
      abort();
    }

    // Build a layered index with this bucket count directly.
    LayeredIndexOptions layered_options;
    layered_options.histogram_buckets = buckets;
    LayeredIndex index("ablation", layered_options,
                       [](const Transaction& txn, Value* out) {
                         if (txn.tname() != "donate" ||
                             txn.values().size() < 3) {
                           return false;
                         }
                         *out = txn.values()[2];
                         return true;
                       });
    // Histogram from a representative whole-domain sample (as the paper's
    // index creation samples historical transactions).
    {
      std::vector<Value> sample;
      for (int i = 0; i < 9000; i++) {
        sample.push_back(
            Value::Int(static_cast<int64_t>(rng.Uniform(kRangeLo))));
      }
      for (int i = 0; i < 1000; i++) {
        sample.push_back(Value::Int(kRangeLo + rng.Uniform(result)));
      }
      EqualDepthHistogram histogram;
      if (!EqualDepthHistogram::Build(std::move(sample), buckets, &histogram)
               .ok() ||
          !index.SetHistogram(std::move(histogram)).ok()) {
        abort();
      }
    }
    for (uint64_t h = 0; h < chain.chain().height(); h++) {
      std::shared_ptr<const Block> block;
      if (!chain.chain().store()->ReadBlock(h, &block).ok()) abort();
      if (!index.AddBlock(*block).ok()) abort();
    }

    Value lo = Value::Int(kRangeLo), hi = Value::Int(kRangeLo + result - 1);
    WallTimer timer;
    Bitmap candidates = index.CandidateBlocks(&lo, &hi);
    size_t pointers = 0;
    for (size_t bid : candidates.SetBits()) {
      std::vector<uint32_t> hits;
      index.SearchBlock(bid, &lo, &hi, &hits);
      pointers += hits.size();
    }
    double ms = timer.ElapsedMicros() / 1000.0;
    std::string x = std::to_string(buckets);
    ReportPoint("A1", "candidate-blocks", x, "count", candidates.Count());
    ReportPoint("A1", "index-search", x, "latency_ms", ms);
    if (pointers != static_cast<size_t>(result)) abort();
  }
}

// ---- A2: MB-tree fanout ----

void MbTreeAblation() {
  ReportHeader("A2", "VO size and verification time vs MB-tree fanout");
  std::vector<MbTree::Entry> entries;
  for (int i = 0; i < 10000; i++) {
    entries.push_back({Value::Int(i),
                       "rec" + std::to_string(i) + std::string(280, 'x')});
  }
  auto key_fn = [](const Slice& record, Value* key) -> Status {
    std::string text = record.ToString();
    size_t pad = text.find('x');
    *key = Value::Int(std::stoll(text.substr(3, pad - 3)));
    return Status::OK();
  };
  for (size_t fanout : {4, 8, 16, 64, 256}) {
    MbTree::Options options;
    options.fanout = fanout;
    auto copy = entries;
    auto tree = MbTree::Build(std::move(copy), options);
    Value lo = Value::Int(5000), hi = Value::Int(5099);
    VerificationObject vo;
    if (!tree->ProveRange(&lo, &hi, &vo).ok()) abort();

    WallTimer timer;
    for (int i = 0; i < 50; i++) {
      std::vector<std::string> records;
      if (!MbTree::VerifyRange(tree->root_hash(), vo, &lo, &hi, key_fn,
                               &records)
               .ok()) {
        abort();
      }
    }
    double verify_ms = timer.ElapsedMicros() / 1000.0 / 50;
    std::string x = std::to_string(fanout);
    ReportPoint("A2", "vo-size", x, "kb", vo.ByteSize() / 1024.0);
    ReportPoint("A2", "verify", x, "latency_ms", verify_ms);
    ReportPoint("A2", "tree-height", x, "levels", tree->height());
  }
}

// ---- A3: transactions per block ----

void BlockSizeAblation(int scale) {
  ReportHeader("A3", "scan vs layered latency vs block size (fixed total "
                     "transactions)");
  int total_txns = 20000 * scale;
  for (int per_block : {50, 100, 200, 400}) {
    BenchChain::Options options;
    options.num_blocks = total_txns / per_block;
    options.txns_per_block = per_block;
    BenchChain chain("ablation_block", options);
    if (!chain.CreateDonationSchema().ok()) abort();

    int result = 500;
    std::vector<Transaction> special;
    for (int i = 0; i < result; i++) {
      special.push_back(MakeBenchTxn(
          "donate", "u", {Value::Str("d"), Value::Str("p"),
                          Value::Int(kRangeLo + i)}));
    }
    Random rng(6);
    if (!chain
             .Fill(std::move(special), Placement(),
                   [&rng](int, int) {
                     return MakeBenchTxn(
                         "donate", "u",
                         {Value::Str("d"), Value::Str("p"),
                          Value::Int(static_cast<int64_t>(
                              rng.Uniform(kRangeLo)))});
                   })
             .ok()) {
      abort();
    }
    ResultSet ddl;
    if (!chain.Execute("CREATE INDEX ON donate(amount)", ExecOptions(), &ddl)
             .ok()) {
      abort();
    }

    std::string sql = "SELECT * FROM donate WHERE amount BETWEEN " +
                      std::to_string(kRangeLo) + " AND " +
                      std::to_string(kRangeLo + result - 1);
    for (auto [path, tag] :
         {std::pair{AccessPath::kScan, "scan"},
          std::pair{AccessPath::kLayered, "layered"}}) {
      ExecOptions exec;
      exec.access_path = path;
      ResultSet rs;
      WallTimer timer;
      if (!chain.Execute(sql, exec, &rs).ok() ||
          rs.num_rows() != static_cast<size_t>(result)) {
        abort();
      }
      ReportPoint("A3", tag, std::to_string(per_block), "latency_ms",
                  timer.ElapsedMicros() / 1000.0);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace sebdb

int main() {
  int scale = sebdb::bench::BenchScale();
  sebdb::bench::HistogramAblation(scale);
  sebdb::bench::MbTreeAblation();
  sebdb::bench::BlockSizeAblation(scale);
  return 0;
}
