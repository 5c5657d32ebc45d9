// Overload-protection tests: AdmissionController semantics (caps, dedup,
// quotas, the overload-state machine) and end-to-end shed-then-resubmit
// behavior across both consensus engines — a shed transaction, once
// resubmitted after load drains, commits exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/admission.h"
#include "consensus/kafka_orderer.h"
#include "consensus/tendermint.h"
#include "network/sim_network.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;

// --- AdmissionController unit tests ---

TEST(AdmissionTest, TxnCapRejectsAndReleaseRecovers) {
  AdmissionOptions options;
  options.max_txns = 2;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.Admit("k1", "s", 10).ok());
  EXPECT_TRUE(admission.Admit("k2", "s", 10).ok());
  Status rejected = admission.Admit("k3", "s", 10);
  EXPECT_TRUE(rejected.IsResourceExhausted());
  EXPECT_GE(rejected.retry_after_millis(), options.retry_after_base_millis);
  admission.Release("k1");
  EXPECT_TRUE(admission.Admit("k3", "s", 10).ok());

  AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected_txns, 1u);
  EXPECT_EQ(stats.released, 1u);
  EXPECT_EQ(stats.cur_txns, 2u);
  EXPECT_EQ(stats.peak_txns, 2u);
}

TEST(AdmissionTest, ByteCapRejects) {
  AdmissionOptions options;
  options.max_bytes = 100;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.Admit("k1", "s", 80).ok());
  Status rejected = admission.Admit("k2", "s", 30);
  EXPECT_TRUE(rejected.IsResourceExhausted());
  EXPECT_EQ(admission.stats().rejected_bytes, 1u);
  EXPECT_EQ(admission.stats().cur_bytes, 80u);
  admission.Release("k1");
  EXPECT_TRUE(admission.Admit("k2", "s", 30).ok());
  EXPECT_EQ(admission.stats().cur_bytes, 30u);
}

TEST(AdmissionTest, DuplicateKeyNotDoubleCharged) {
  AdmissionController admission;
  bool duplicate = false;
  EXPECT_TRUE(admission.Admit("k", "s", 10, &duplicate).ok());
  EXPECT_FALSE(duplicate);
  EXPECT_TRUE(admission.Admit("k", "s", 10, &duplicate).ok());
  EXPECT_TRUE(duplicate);
  AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.deduped, 1u);
  EXPECT_EQ(stats.cur_txns, 1u);
  EXPECT_EQ(stats.cur_bytes, 10u);
}

TEST(AdmissionTest, PerSenderQuotaIsolatesSenders) {
  AdmissionOptions options;
  options.max_txns_per_sender = 1;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.Admit("a1", "alice", 10).ok());
  Status rejected = admission.Admit("a2", "alice", 10);
  EXPECT_TRUE(rejected.IsResourceExhausted());
  // A greedy sender does not starve the others.
  EXPECT_TRUE(admission.Admit("b1", "bob", 10).ok());
  EXPECT_EQ(admission.stats().rejected_sender, 1u);
  admission.Release("a1");
  EXPECT_TRUE(admission.Admit("a2", "alice", 10).ok());
}

TEST(AdmissionTest, OverloadStateMachine) {
  AdmissionOptions options;
  options.max_txns = 4;
  options.throttle_threshold = 0.5;
  AdmissionController admission(options);
  EXPECT_EQ(admission.state(), OverloadState::kHealthy);
  ASSERT_TRUE(admission.Admit("k1", "s", 1).ok());
  EXPECT_EQ(admission.state(), OverloadState::kHealthy);
  ASSERT_TRUE(admission.Admit("k2", "s", 1).ok());
  EXPECT_EQ(admission.state(), OverloadState::kThrottling);
  ASSERT_TRUE(admission.Admit("k3", "s", 1).ok());
  ASSERT_TRUE(admission.Admit("k4", "s", 1).ok());
  EXPECT_EQ(admission.state(), OverloadState::kShedding);
  admission.Release("k4");
  admission.Release("k3");
  admission.Release("k2");
  admission.Release("k1");
  EXPECT_EQ(admission.state(), OverloadState::kHealthy);
  // healthy -> throttling -> shedding -> throttling -> healthy.
  EXPECT_GE(admission.stats().state_transitions, 4u);
}

TEST(AdmissionTest, RetryAfterScalesWithOccupancy) {
  AdmissionOptions options;
  options.max_txns = 100;
  options.retry_after_base_millis = 25;
  AdmissionController low(options);
  AdmissionController high(options);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(
        high.Admit("k" + std::to_string(i), "s", 1).ok());
  }
  Status high_reject = high.Admit("extra", "s", 1);
  ASSERT_TRUE(high_reject.IsResourceExhausted());
  // At full occupancy the hint approaches 4x the base.
  EXPECT_GE(high_reject.retry_after_millis(),
            3 * options.retry_after_base_millis);
  EXPECT_LE(high_reject.retry_after_millis(),
            4 * options.retry_after_base_millis);
}

TEST(AdmissionTest, DisabledAdmitsEverythingButStillCounts) {
  AdmissionOptions options;
  options.enabled = false;
  options.max_txns = 1;
  AdmissionController admission(options);
  for (int i = 0; i < 10; i++) {
    EXPECT_TRUE(admission.Admit("k" + std::to_string(i), "s", 1).ok());
  }
  EXPECT_EQ(admission.stats().admitted, 10u);
  EXPECT_EQ(admission.stats().rejected_total(), 0u);
  EXPECT_EQ(admission.stats().cur_txns, 0u);  // nothing tracked
}

TEST(AdmissionTest, ClearDropsChargesKeepsCounters) {
  AdmissionOptions options;
  options.max_txns = 2;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.Admit("k1", "s", 10).ok());
  ASSERT_TRUE(admission.Admit("k2", "s", 10).ok());
  admission.Clear();
  EXPECT_EQ(admission.stats().cur_txns, 0u);
  EXPECT_EQ(admission.stats().admitted, 2u);
  EXPECT_TRUE(admission.Admit("k3", "s", 10).ok());
}

TEST(AdmissionTest, MergeStatsSumsCountersAndTakesWorstState) {
  AdmissionStats a, b;
  a.admitted = 3;
  a.rejected_txns = 1;
  a.peak_txns = 5;
  a.state = OverloadState::kHealthy;
  b.admitted = 4;
  b.rejected_bytes = 2;
  b.peak_txns = 9;
  b.state = OverloadState::kShedding;
  AdmissionStats merged = MergeAdmissionStats(a, b);
  EXPECT_EQ(merged.admitted, 7u);
  EXPECT_EQ(merged.rejected_total(), 3u);
  EXPECT_EQ(merged.peak_txns, 9u);
  EXPECT_EQ(merged.state, OverloadState::kShedding);
}

// --- engine-level shed-then-resubmit, exactly-once ---

// Collects committed batches per node and lets tests wait on progress.
class CommitLog {
 public:
  BatchCommitFn MakeFn() {
    return [this](uint64_t seq, std::vector<Transaction> txns) {
      std::lock_guard<std::mutex> lock(mu_);
      (void)seq;
      for (auto& txn : txns) txns_.push_back(std::move(txn));
      cv_.notify_all();
    };
  }
  bool WaitForTxns(size_t n, int timeout_ms = 10000) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [&] { return txns_.size() >= n; });
  }
  std::vector<Transaction> txns() {
    std::lock_guard<std::mutex> lock(mu_);
    return txns_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Transaction> txns_;
};

template <typename Engine>
struct NodeHarness {
  ~NodeHarness() {
    if (net != nullptr) net->Unregister(id);
    if (engine) engine->Stop();
  }
  std::unique_ptr<Engine> engine;
  CommitLog log;
  SimNetwork* net = nullptr;
  std::string id;
};

// Counts how often `txn` was committed on a node.
size_t CountCommits(CommitLog& log, const Transaction& txn) {
  size_t count = 0;
  for (const auto& committed : log.txns()) {
    if (committed == txn) count++;
  }
  return count;
}

ConsensusOptions TinyMempoolOptions() {
  ConsensusOptions options;
  options.max_batch_txns = 10;
  options.batch_timeout_millis = 20;
  options.admission.max_txns = 1;  // second in-flight submission sheds
  return options;
}

// Submits `txn`, retrying on ResourceExhausted after the server-driven
// hint, until admitted or attempts run out. Returns the final Submit status.
// Engines also fire the callback on synchronous shedding (with the same
// status Submit returns); those verdicts are filtered out so `done` only
// sees the post-admission outcome.
template <typename Engine>
Status SubmitWithRetry(Engine* engine, const Transaction& txn,
                       std::function<void(Status)> done, int attempts = 50) {
  Status s;
  for (int i = 0; i < attempts; i++) {
    s = engine->Submit(txn, [done](Status st) {
      if (st.IsResourceExhausted()) return;
      if (done) done(st);
    });
    if (!s.IsResourceExhausted()) return s;
    int64_t sleep_ms = std::max<int64_t>(s.retry_after_millis(), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  return s;
}

TEST(OverloadTest, TendermintShedThenResubmitCommitsOnce) {
  SimNetwork net;
  std::vector<std::string> ids = {"n0", "n1", "n2", "n3"};
  std::vector<std::unique_ptr<NodeHarness<TendermintEngine>>> nodes;
  TendermintOptions tm;
  tm.serial_txn_cost_micros = 0;
  for (const auto& id : ids) {
    auto h = std::make_unique<NodeHarness<TendermintEngine>>();
    h->net = &net;
    h->id = id;
    h->engine = std::make_unique<TendermintEngine>(
        id, ids, &net, TinyMempoolOptions(), h->log.MakeFn(), tm);
    TendermintEngine* engine = h->engine.get();
    ASSERT_TRUE(net.Register(id, [engine](const Message& m) {
                       engine->HandleMessage(m);
                     }).ok());
    ASSERT_TRUE(h->engine->Start().ok());
    nodes.push_back(std::move(h));
  }

  Transaction a = MakeTxn("t", "client", 100, {Value::Int(1)});
  Transaction b = MakeTxn("t", "client", 200, {Value::Int(2)});
  ASSERT_TRUE(nodes[0]->engine->Submit(a, nullptr).ok());
  // The mempool cap (1) is taken by `a`: `b` sheds with a retry hint.
  Status shed = nodes[0]->engine->Submit(b, nullptr);
  EXPECT_TRUE(shed.IsResourceExhausted());
  EXPECT_GT(shed.retry_after_millis(), 0);

  // Load drains (a commits); the resubmission goes through and commits.
  std::atomic<int> acked{0};
  ASSERT_TRUE(SubmitWithRetry(nodes[0]->engine.get(), b,
                              [&](Status s) {
                                EXPECT_TRUE(s.ok());
                                acked++;
                              })
                  .ok());
  for (auto& node : nodes) {
    ASSERT_TRUE(node->log.WaitForTxns(2)) << node->id;
    EXPECT_EQ(CountCommits(node->log, a), 1u) << node->id;
    EXPECT_EQ(CountCommits(node->log, b), 1u) << node->id;
  }
  for (int i = 0; i < 500 && acked.load() < 1; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(acked.load(), 1);
}

TEST(OverloadTest, KafkaBrokerNackPropagatesBackpressure) {
  SimNetwork net;  // zero latency: sends are deterministic
  std::vector<std::string> ids = {"n0", "n1", "n2"};
  std::vector<std::unique_ptr<NodeHarness<KafkaOrderer>>> nodes;
  ConsensusOptions options;
  options.max_batch_txns = 10;
  options.batch_timeout_millis = 200;  // keep `a` pending at the broker
  options.admission.max_txns = 1;
  for (const auto& id : ids) {
    auto h = std::make_unique<NodeHarness<KafkaOrderer>>();
    h->net = &net;
    h->id = id;
    h->engine = std::make_unique<KafkaOrderer>(id, "n0", ids, &net, options,
                                               h->log.MakeFn());
    KafkaOrderer* engine = h->engine.get();
    ASSERT_TRUE(net.Register(id, [engine](const Message& m) {
                       engine->HandleMessage(m);
                     }).ok());
    ASSERT_TRUE(h->engine->Start().ok());
    nodes.push_back(std::move(h));
  }

  // `a` (from n1) fills the broker's pending queue.
  Transaction a = MakeTxn("t", "alice", 100, {Value::Int(1)});
  ASSERT_TRUE(nodes[1]->engine->Submit(a, nullptr).ok());
  net.DrainAll();

  // `b` (from n2) passes n2's local admission but is shed by the broker;
  // the nack travels back and fails n2's completion callback with a hint.
  Transaction b = MakeTxn("t", "bob", 200, {Value::Int(2)});
  std::mutex mu;
  std::condition_variable cv;
  Status nacked;
  bool got_nack = false;
  ASSERT_TRUE(nodes[2]
                  ->engine
                  ->Submit(b,
                           [&](Status s) {
                             std::lock_guard<std::mutex> lock(mu);
                             nacked = s;
                             got_nack = true;
                             cv.notify_all();
                           })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return got_nack; }));
  }
  EXPECT_TRUE(nacked.IsResourceExhausted()) << nacked.ToString();
  EXPECT_GT(nacked.retry_after_millis(), 0);
  EXPECT_GE(nodes[0]->engine->mempool_stats().admission.rejected_total(), 1u);

  // Once the batch timeout cuts `a`, the resubmission of `b` is admitted
  // and commits; both txns land exactly once on every node. The retry loop
  // is driven by the completion callback — Submit returns OK as soon as
  // local admission passes, the broker's verdict arrives asynchronously.
  Status last;
  for (int attempt = 0; attempt < 50; attempt++) {
    std::unique_lock<std::mutex> lock(mu);
    got_nack = false;
    lock.unlock();
    Status submitted = nodes[2]->engine->Submit(b, [&](Status s) {
      std::lock_guard<std::mutex> inner(mu);
      nacked = s;
      got_nack = true;
      cv.notify_all();
    });
    ASSERT_TRUE(submitted.ok() || submitted.IsResourceExhausted());
    lock.lock();
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return got_nack; }));
    last = nacked;
    lock.unlock();
    if (last.ok()) break;
    ASSERT_TRUE(last.IsResourceExhausted()) << last.ToString();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max<int64_t>(
            last.retry_after_millis(), 1)));
  }
  EXPECT_TRUE(last.ok()) << last.ToString();
  for (auto& node : nodes) {
    ASSERT_TRUE(node->log.WaitForTxns(2)) << node->id;
    EXPECT_EQ(CountCommits(node->log, a), 1u) << node->id;
    EXPECT_EQ(CountCommits(node->log, b), 1u) << node->id;
  }
}

TEST(OverloadTest, KafkaResubmitOfSequencedTxnAcksWithoutReordering) {
  SimNetwork net;
  std::vector<std::string> ids = {"n0", "n1"};
  std::vector<std::unique_ptr<NodeHarness<KafkaOrderer>>> nodes;
  ConsensusOptions options;
  options.max_batch_txns = 1;
  options.batch_timeout_millis = 20;
  for (const auto& id : ids) {
    auto h = std::make_unique<NodeHarness<KafkaOrderer>>();
    h->net = &net;
    h->id = id;
    h->engine = std::make_unique<KafkaOrderer>(id, "n0", ids, &net, options,
                                               h->log.MakeFn());
    KafkaOrderer* engine = h->engine.get();
    ASSERT_TRUE(net.Register(id, [engine](const Message& m) {
                       engine->HandleMessage(m);
                     }).ok());
    ASSERT_TRUE(h->engine->Start().ok());
    nodes.push_back(std::move(h));
  }
  Transaction a = MakeTxn("t", "alice", 100, {Value::Int(1)});
  ASSERT_TRUE(nodes[1]->engine->Submit(a, nullptr).ok());
  for (auto& node : nodes) ASSERT_TRUE(node->log.WaitForTxns(1));

  // Resubmission (as after a client timeout): the broker dedups via its
  // sequenced-key set and acks the origin so the caller is not left
  // hanging; no second delivery happens.
  std::mutex mu;
  std::condition_variable cv;
  bool acked = false;
  Status ack_status;
  ASSERT_TRUE(nodes[1]
                  ->engine
                  ->Submit(a,
                           [&](Status s) {
                             std::lock_guard<std::mutex> lock(mu);
                             ack_status = s;
                             acked = true;
                             cv.notify_all();
                           })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return acked; }));
  }
  EXPECT_TRUE(ack_status.ok()) << ack_status.ToString();
  net.DrainAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (auto& node : nodes) {
    EXPECT_EQ(CountCommits(node->log, a), 1u) << node->id;
  }
}

// --- engine mempool stats surface ---

TEST(OverloadTest, MempoolStatsReflectAdmission) {
  SimNetwork net;
  ConsensusOptions options;
  options.max_batch_txns = 1000;  // nothing cuts during the test
  options.batch_timeout_millis = 10000;
  options.admission.max_txns = 2;
  CommitLog log;
  KafkaOrderer engine("n0", "n0", {"n0"}, &net, options, log.MakeFn());
  ASSERT_TRUE(
      net.Register("n0", [&](const Message& m) { engine.HandleMessage(m); })
          .ok());
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(
      engine.Submit(MakeTxn("t", "s", 1, {Value::Int(1)}), nullptr).ok());
  ASSERT_TRUE(
      engine.Submit(MakeTxn("t", "s", 2, {Value::Int(2)}), nullptr).ok());
  net.DrainAll();
  MempoolStats stats = engine.mempool_stats();
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GE(stats.admission.admitted, 2u);
  EXPECT_EQ(stats.admission.state, OverloadState::kShedding);  // at cap
  engine.Stop();
}

}  // namespace
}  // namespace sebdb
