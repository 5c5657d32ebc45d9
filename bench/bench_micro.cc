// Microbenchmarks (google-benchmark) for the building blocks whose costs
// drive the figure-level results: SHA-256, CRC-32, Merkle tree construction,
// B+-tree insert/seek/bulk-load, MB-tree build/prove/verify, bitmap AND,
// block encode/decode and single-transaction random decode, one RPC round
// trip over loopback TCP, and cache hits (LRU cache, buffer pool) at 1 and 4
// threads.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "auth/mbtree.h"
#include "common/bitmap.h"
#include "common/crc32.h"
#include "common/env.h"
#include "common/lru_cache.h"
#include "common/random.h"
#include "common/sha256.h"
#include "index/bptree.h"
#include "index/layered_index.h"
#include "network/rpc.h"
#include "network/tcp_network.h"
#include "storage/block.h"
#include "storage/buffer_manager.h"
#include "storage/merkle_tree.h"

namespace sebdb {
namespace {

void BM_Sha256(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(300)->Arg(4096)->Arg(1 << 20);

void BM_Crc32(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(Slice(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(300)->Arg(4096)->Arg(1 << 20);

void BM_MerkleTreeBuild(benchmark::State& state) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < state.range(0); i++) {
    leaves.push_back(Sha256::Digest(Slice("leaf" + std::to_string(i))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::ComputeRoot(leaves));
  }
}
BENCHMARK(BM_MerkleTreeBuild)->Arg(200)->Arg(1000);

void BM_BpTreeInsert(benchmark::State& state) {
  Random rng(1);
  for (auto _ : state) {
    BpTree<int64_t, int> tree;
    for (int i = 0; i < state.range(0); i++) {
      tree.Insert(static_cast<int64_t>(rng.Next() % 100000), i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_BpTreeInsert)->Arg(1000)->Arg(10000);

void BM_BpTreeBulkLoad(benchmark::State& state) {
  std::vector<std::pair<int64_t, int>> entries;
  for (int i = 0; i < state.range(0); i++) entries.push_back({i, i});
  for (auto _ : state) {
    BpTree<int64_t, int> tree;
    auto copy = entries;
    tree.BulkLoad(std::move(copy));
    benchmark::DoNotOptimize(tree.height());
  }
}
BENCHMARK(BM_BpTreeBulkLoad)->Arg(1000)->Arg(10000);

void BM_BpTreeSeek(benchmark::State& state) {
  BpTree<int64_t, int> tree;
  for (int i = 0; i < 100000; i++) tree.Insert(i, i);
  Random rng(2);
  for (auto _ : state) {
    auto it = tree.SeekGE(static_cast<int64_t>(rng.Uniform(100000)));
    benchmark::DoNotOptimize(it.Valid());
  }
}
BENCHMARK(BM_BpTreeSeek);

std::unique_ptr<MbTree> BuildMbTree(int n) {
  std::vector<MbTree::Entry> entries;
  for (int i = 0; i < n; i++) {
    entries.push_back(
        {Value::Int(i), "record-" + std::to_string(i) + std::string(280, 'p')});
  }
  return MbTree::Build(std::move(entries));
}

void BM_MbTreeBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto tree = BuildMbTree(static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(tree->root_hash());
  }
}
BENCHMARK(BM_MbTreeBuild)->Arg(200)->Arg(1000);

void BM_MbTreeProveRange(benchmark::State& state) {
  auto tree = BuildMbTree(1000);
  Value lo = Value::Int(400), hi = Value::Int(500);
  for (auto _ : state) {
    VerificationObject vo;
    tree->ProveRange(&lo, &hi, &vo);
    benchmark::DoNotOptimize(vo.ByteSize());
  }
}
BENCHMARK(BM_MbTreeProveRange);

void BM_MbTreeVerifyRange(benchmark::State& state) {
  auto tree = BuildMbTree(1000);
  Value lo = Value::Int(400), hi = Value::Int(500);
  VerificationObject vo;
  tree->ProveRange(&lo, &hi, &vo);
  auto key_fn = [](const Slice& record, Value* key) -> Status {
    std::string text = record.ToString();
    size_t dash = text.find('-');
    size_t pad = text.find('p');
    *key = Value::Int(std::stoll(text.substr(dash + 1, pad - dash - 1)));
    return Status::OK();
  };
  for (auto _ : state) {
    std::vector<std::string> records;
    Status s = MbTree::VerifyRange(tree->root_hash(), vo, &lo, &hi, key_fn,
                                   &records);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    benchmark::DoNotOptimize(records.size());
  }
}
BENCHMARK(BM_MbTreeVerifyRange);

void BM_BitmapAnd(benchmark::State& state) {
  Random rng(5);
  Bitmap a(state.range(0)), b(state.range(0));
  for (int i = 0; i < state.range(0) / 4; i++) {
    a.Set(rng.Uniform(state.range(0)));
    b.Set(rng.Uniform(state.range(0)));
  }
  for (auto _ : state) {
    Bitmap c = a;
    c.And(b);
    benchmark::DoNotOptimize(c.AnySet());
  }
}
BENCHMARK(BM_BitmapAnd)->Arg(2500)->Arg(100000);

// Transaction-cache keys: (height << 20) | index, 64 txns per block.
uint64_t TxnCacheKey(uint64_t i) { return ((i / 64) << 20) | (i % 64); }

// Every lookup hits a 64 MiB cache (the block cache's default size). With
// threads, readers contend only where their keys share a lock.
void BM_LruCacheLookupHit(benchmark::State& state) {
  constexpr uint64_t kKeys = 4096;
  struct Filled {
    LruCache<uint64_t, const std::string> cache{64ull << 20};
    Filled() {
      for (uint64_t i = 0; i < kKeys; i++) {
        cache.Insert(TxnCacheKey(i),
                     std::make_shared<const std::string>(1024, 'v'), 1024);
      }
    }
  };
  static Filled filled;
  Random rng(state.thread_index() + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        filled.cache.Lookup(TxnCacheKey(rng.Uniform(kKeys))));
  }
}
BENCHMARK(BM_LruCacheLookupHit)->Threads(1)->Threads(4)->UseRealTime();

// Every pin hits a resident page of a 64 MiB pool over a 1024-page file.
void BM_BufferPoolPinHit(benchmark::State& state) {
  constexpr PageId kPages = 1024;
  struct Pool {
    std::string path = "/tmp/sebdb_bench_micro_pool_" +
                       std::to_string(::getpid());
    BufferManager pool{BufferPoolOptions{}};
    BufferManager::FileId file = 0;
    Pool() {
      PageId pid;
      if (!pool.CreateFile(path, &file).ok()) std::abort();
      for (PageId p = 0; p < kPages; p++) {
        if (!pool.AppendPage(file, PageType::kBlob, std::string(3000, 'p'),
                             &pid)
                 .ok()) {
          std::abort();
        }
      }
      if (!pool.Flush(file).ok()) std::abort();
    }
    ~Pool() { Env::Default()->RemoveFile(path).ok(); }
  };
  static Pool pool;
  Random rng(state.thread_index() + 1);
  for (auto _ : state) {
    BufferManager::PageRef ref;
    if (!pool.pool.Pin(pool.file, rng.Uniform(kPages), &ref).ok()) {
      state.SkipWithError("pin failed");
      break;
    }
    benchmark::DoNotOptimize(ref.payload().data());
  }
}
BENCHMARK(BM_BufferPoolPinHit)->Threads(1)->Threads(4)->UseRealTime();

// One SeekGE into a resident one-leaf checkpointed second-level tree, the
// probe Q2-Q4 make per candidate block: Arg 0 = 120 int keys, Arg 1 = 200
// short string keys ("org-000".."org-199").
void BM_DiskTreeSeek(benchmark::State& state) {
  struct Trees {
    std::string path;
    BufferManager pool{BufferPoolOptions{}};
    std::vector<Value> keys[2];
    LayeredIndex::DiskTree::Ref refs[2];
    Trees() : path("/tmp/sebdb_bench_micro_tree_" + std::to_string(::getpid())) {
      for (int i = 0; i < 120; i++) keys[0].push_back(Value::Int(i * 7));
      for (int i = 0; i < 200; i++) {
        char name[16];
        snprintf(name, sizeof(name), "org-%03d", i);
        keys[1].push_back(Value::Str(name));
      }
      BufferManager::FileId file;
      if (!pool.CreateFile(path, &file).ok()) std::abort();
      for (int t = 0; t < 2; t++) {
        DiskBpTreeBuilder<Value, uint32_t, ValuePosCodec,
                          LayeredIndex::ValueCmp>
            builder(&pool, file);
        for (size_t i = 0; i < keys[t].size(); i++) {
          if (!builder.Add(keys[t][i], static_cast<uint32_t>(i)).ok()) {
            std::abort();
          }
        }
        if (!builder.Finish(&refs[t]).ok()) std::abort();
      }
      if (!pool.Flush(file).ok()) std::abort();
    }
    ~Trees() { Env::Default()->RemoveFile(path).ok(); }
  };
  static Trees trees;
  const int t = static_cast<int>(state.range(0));
  const std::vector<Value>& keys = trees.keys[t];
  LayeredIndex::DiskTree tree(&trees.pool, trees.refs[t]);
  Random rng(state.thread_index() + 1);
  for (auto _ : state) {
    auto it = tree.SeekGE(keys[rng.Uniform(keys.size())]);
    if (!it.Valid()) {
      state.SkipWithError("seek missed");
      break;
    }
    benchmark::DoNotOptimize(it.value());
  }
}
BENCHMARK(BM_DiskTreeSeek)->Arg(0)->Arg(1)->Threads(1)->Threads(4)
    ->UseRealTime();

Block MakeBenchBlock(int txns) {
  BlockBuilder builder;
  builder.SetHeight(1).SetTimestamp(1).SetFirstTid(1);
  for (int i = 0; i < txns; i++) {
    Transaction txn("donate",
                    {Value::Str("donor" + std::to_string(i)),
                     Value::Str("project"), Value::Int(i)});
    txn.set_sender("org" + std::to_string(i % 10));
    txn.set_ts(i);
    txn.set_signature(std::string(64, 's'));
    builder.AddTransaction(std::move(txn));
  }
  return std::move(builder).Build("sig");
}

void BM_BlockEncode(benchmark::State& state) {
  Block block = MakeBenchBlock(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::string buf;
    block.EncodeTo(&buf);
    benchmark::DoNotOptimize(buf.size());
  }
}
BENCHMARK(BM_BlockEncode)->Arg(200);

void BM_BlockDecode(benchmark::State& state) {
  Block block = MakeBenchBlock(static_cast<int>(state.range(0)));
  std::string buf;
  block.EncodeTo(&buf);
  for (auto _ : state) {
    Block decoded;
    Slice input(buf);
    Status s = Block::DecodeFrom(&input, &decoded);
    if (!s.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(decoded.transactions().size());
  }
  state.SetBytesProcessed(state.iterations() * buf.size());
}
BENCHMARK(BM_BlockDecode)->Arg(200);

void BM_BlockDecodeOneTransaction(benchmark::State& state) {
  Block block = MakeBenchBlock(200);
  std::string buf;
  block.EncodeTo(&buf);
  Random rng(9);
  for (auto _ : state) {
    Transaction txn;
    Status s = Block::DecodeOneTransaction(
        buf, static_cast<uint32_t>(rng.Uniform(200)), &txn);
    if (!s.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(txn.tid());
  }
}
BENCHMARK(BM_BlockDecodeOneTransaction);

// One RPC round trip between two loopback TcpNetworks, a thin client and a
// server with 4 RPC workers that takes requests on its receiving thread as
// SebdbNode does, answering state.range(0) bytes (280000 is a verified
// trace's VO): the transport's share of a verified read, without a cluster.
void BM_RpcLargeReply(benchmark::State& state) {
  TcpNetworkOptions server_opts;
  server_opts.local_id = "server";
  TcpNetwork server_net(server_opts);
  if (!server_net.Start().ok()) {
    state.SkipWithError("listen failed");
    return;
  }
  const std::string blob(static_cast<size_t>(state.range(0)), 'v');
  RpcDispatcher dispatcher;
  dispatcher.RegisterMethod(
      "rpc.blob", [&blob](const Slice&, std::string* response) {
        *response = blob;
        return Status::OK();
      });
  RpcServerOptions rpc_opts;
  rpc_opts.workers = 4;
  dispatcher.Start(rpc_opts);
  Status s = server_net.RegisterWithInline(
      "server", [](const Message&) {},
      [&](Message* m) {
        dispatcher.HandleMessage(&server_net, "server", *m);
        return true;
      });

  TcpNetworkOptions client_opts;
  client_opts.local_id = "client";
  client_opts.peers.push_back(
      TcpPeer{"server", "127.0.0.1", server_net.listen_port()});
  TcpNetwork client_net(client_opts);
  if (s.ok()) s = client_net.Start();
  {
    RpcClient client("client", &client_net);
    std::string response;
    for (int i = 0; s.ok() && i < 300 && !client_net.PeerUp("server"); i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    for (auto _ : state) {
      if (s.ok()) s = client.Call("server", "rpc.blob", "", &response, 5000);
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        break;
      }
      benchmark::DoNotOptimize(response.data());
    }
  }
  client_net.Shutdown();
  server_net.Shutdown();
  dispatcher.Stop();
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RpcLargeReply)->Arg(32)->Arg(280000)->UseRealTime();

}  // namespace
}  // namespace sebdb

// Like BENCHMARK_MAIN(), but defaults to machine-readable JSON output in
// BENCH_micro.json (pass --benchmark_out=... to override).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; i++) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
