// Tests for the consensus engines: Kafka-style ordering and the
// Tendermint-style BFT engine (including a proposer failure, a forged
// proposal and an equivocating proposer).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>

#include "common/coding.h"
#include "consensus/kafka_orderer.h"
#include "consensus/tendermint.h"
#include "network/sim_network.h"
#include "tests/test_util.h"

namespace sebdb {
namespace {

using testing_util::MakeTxn;

// Collects committed batches per node and lets tests wait on progress.
class CommitLog {
 public:
  BatchCommitFn MakeFn() {
    return [this](uint64_t seq, std::vector<Transaction> txns) {
      std::lock_guard<std::mutex> lock(mu_);
      sequences_.push_back(seq);
      batches_[seq] = txns;
      for (auto& txn : txns) txns_.push_back(std::move(txn));
      cv_.notify_all();
    };
  }
  bool WaitForTxns(size_t n, int timeout_ms = 10000) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [&] { return txns_.size() >= n; });
  }
  // Committed batches by sequence number.
  std::map<uint64_t, std::vector<Transaction>> batches() {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }
  std::vector<uint64_t> sequences() {
    std::lock_guard<std::mutex> lock(mu_);
    return sequences_;
  }
  std::vector<Transaction> txns() {
    std::lock_guard<std::mutex> lock(mu_);
    return txns_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<uint64_t> sequences_;
  std::map<uint64_t, std::vector<Transaction>> batches_;
  std::vector<Transaction> txns_;
};

template <typename Engine>
struct NodeHarness {
  // Unregister joins the delivery worker, so the handler's captured engine
  // pointer cannot be invoked once the harness starts tearing down.
  ~NodeHarness() {
    if (net != nullptr) net->Unregister(id);
    if (engine) engine->Stop();
  }
  std::unique_ptr<Engine> engine;
  CommitLog log;
  SimNetwork* net = nullptr;
  std::string id;
};

ConsensusOptions FastOptions(uint32_t max_batch = 10) {
  ConsensusOptions options;
  options.max_batch_txns = max_batch;
  options.batch_timeout_millis = 20;
  return options;
}

TEST(KafkaOrdererTest, OrdersAndDeliversOnAllNodes) {
  SimNetwork net;
  std::vector<std::string> ids = {"n0", "n1", "n2", "n3"};
  std::vector<std::unique_ptr<NodeHarness<KafkaOrderer>>> nodes;
  for (const auto& id : ids) {
    auto h = std::make_unique<NodeHarness<KafkaOrderer>>();
    h->net = &net;
    h->id = id;
    h->engine = std::make_unique<KafkaOrderer>(id, "n0", ids, &net,
                                               FastOptions(), h->log.MakeFn());
    KafkaOrderer* engine = h->engine.get();
    ASSERT_TRUE(
        net.Register(id, [engine](const Message& m) { engine->HandleMessage(m); })
            .ok());
    ASSERT_TRUE(h->engine->Start().ok());
    nodes.push_back(std::move(h));
  }
  EXPECT_TRUE(nodes[0]->engine->is_broker());
  EXPECT_FALSE(nodes[1]->engine->is_broker());

  std::atomic<int> acks{0};
  for (int i = 0; i < 25; i++) {
    Transaction txn = MakeTxn("t", "client", 1000 + i, {Value::Int(i)});
    ASSERT_TRUE(nodes[i % 4]
                    ->engine
                    ->Submit(txn, [&](Status s) {
                      EXPECT_TRUE(s.ok());
                      acks++;
                    })
                    .ok());
  }
  for (auto& node : nodes) {
    EXPECT_TRUE(node->log.WaitForTxns(25)) << "node missing transactions";
  }
  // Every node saw the same order.
  auto reference = nodes[0]->log.txns();
  for (auto& node : nodes) {
    auto txns = node->log.txns();
    ASSERT_EQ(txns.size(), reference.size());
    for (size_t i = 0; i < txns.size(); i++) EXPECT_EQ(txns[i], reference[i]);
    auto seqs = node->log.sequences();
    for (size_t i = 0; i < seqs.size(); i++) EXPECT_EQ(seqs[i], i);
  }
  for (int i = 0; i < 100 && acks.load() < 25; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(acks.load(), 25);
  for (auto& node : nodes) node->engine->Stop();
}

TEST(KafkaOrdererTest, TimeoutCutsPartialBatch) {
  SimNetwork net;
  std::vector<std::string> ids = {"n0"};
  NodeHarness<KafkaOrderer> h;
  h.net = &net;
  h.id = "n0";
  h.engine = std::make_unique<KafkaOrderer>("n0", "n0", ids, &net,
                                            FastOptions(1000), h.log.MakeFn());
  KafkaOrderer* engine = h.engine.get();
  ASSERT_TRUE(
      net.Register("n0", [engine](const Message& m) { engine->HandleMessage(m); })
          .ok());
  ASSERT_TRUE(h.engine->Start().ok());
  // 3 txns, far below the 1000 cut size: only the timeout can cut.
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(
        h.engine->Submit(MakeTxn("t", "c", i, {Value::Int(i)}), nullptr).ok());
  }
  EXPECT_TRUE(h.log.WaitForTxns(3));
  EXPECT_EQ(h.engine->committed_batches(), 1u);
  h.engine->Stop();
}

TEST(KafkaOrdererTest, ValidatorRejectsBadTransactions) {
  SimNetwork net;
  ConsensusOptions options = FastOptions();
  options.validator = [](const Transaction& txn) {
    return txn.sender().empty() ? Status::InvalidArgument("no sender")
                                : Status::OK();
  };
  CommitLog log;
  KafkaOrderer engine("n0", "n0", {"n0"}, &net, options, log.MakeFn());
  ASSERT_TRUE(
      net.Register("n0", [&](const Message& m) { engine.HandleMessage(m); })
          .ok());
  ASSERT_TRUE(engine.Start().ok());
  Transaction bad("t", {});
  Status done_status;
  EXPECT_FALSE(engine
                   .Submit(bad, [&](Status s) { done_status = s; })
                   .ok());
  EXPECT_TRUE(done_status.IsInvalidArgument());
  ASSERT_TRUE(net.Unregister("n0").ok());
  engine.Stop();
}

template <typename Engine, typename... Extra>
std::vector<std::unique_ptr<NodeHarness<Engine>>> StartCluster(
    SimNetwork* net, const std::vector<std::string>& ids,
    const ConsensusOptions& options, Extra... extra) {
  std::vector<std::unique_ptr<NodeHarness<Engine>>> nodes;
  for (const auto& id : ids) {
    auto h = std::make_unique<NodeHarness<Engine>>();
    h->net = net;
    h->id = id;
    h->engine = std::make_unique<Engine>(id, ids, net, options,
                                         h->log.MakeFn(), extra...);
    Engine* engine = h->engine.get();
    EXPECT_TRUE(
        net->Register(id,
                      [engine](const Message& m) { engine->HandleMessage(m); })
            .ok());
    EXPECT_TRUE(h->engine->Start().ok());
    nodes.push_back(std::move(h));
  }
  return nodes;
}

TEST(TendermintTest, CommitsAcrossFourValidators) {
  SimNetwork net;
  std::vector<std::string> ids = {"v0", "v1", "v2", "v3"};
  TendermintOptions tm_options;
  tm_options.serial_txn_cost_micros = 0;  // keep the test fast
  auto nodes =
      StartCluster<TendermintEngine>(&net, ids, FastOptions(), tm_options);

  std::atomic<int> acks{0};
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(nodes[i % 4]
                    ->engine
                    ->Submit(MakeTxn("t", "c", 100 + i, {Value::Int(i)}),
                             [&](Status s) {
                               if (s.ok()) acks++;
                             })
                    .ok());
  }
  for (auto& node : nodes) EXPECT_TRUE(node->log.WaitForTxns(20));
  auto reference = nodes[0]->log.txns();
  for (auto& node : nodes) {
    auto txns = node->log.txns();
    ASSERT_EQ(txns.size(), reference.size());
    for (size_t i = 0; i < txns.size(); i++) EXPECT_EQ(txns[i], reference[i]);
  }
  for (auto& node : nodes) node->engine->Stop();
}

TEST(TendermintTest, SerialCostSlowsDelivery) {
  // Not a timing assertion, just that the serial path still commits.
  SimNetwork net;
  std::vector<std::string> ids = {"v0", "v1", "v2", "v3"};
  TendermintOptions tm_options;
  tm_options.serial_txn_cost_micros = 100;
  auto nodes =
      StartCluster<TendermintEngine>(&net, ids, FastOptions(), tm_options);
  ASSERT_TRUE(nodes[0]
                  ->engine
                  ->Submit(MakeTxn("t", "c", 5, {Value::Int(1)}), nullptr)
                  .ok());
  for (auto& node : nodes) EXPECT_TRUE(node->log.WaitForTxns(1));
  for (auto& node : nodes) node->engine->Stop();
}

TEST(TendermintTest, ProposerFailureRotatesRound) {
  SimNetwork net;
  std::vector<std::string> ids = {"v0", "v1", "v2", "v3"};
  TendermintOptions tm_options;
  tm_options.serial_txn_cost_micros = 0;
  tm_options.propose_timeout_millis = 200;
  auto nodes =
      StartCluster<TendermintEngine>(&net, ids, FastOptions(), tm_options);

  // Height 0's proposer is v0; isolate it so the round times out and the
  // next proposer (v1 at round 1) takes over.
  for (const auto& other : {"v1", "v2", "v3"}) {
    net.SetLinkDown("v0", other, true);
  }
  std::atomic<int> acks{0};
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(nodes[1]
                    ->engine
                    ->Submit(MakeTxn("t", "c", 100 + i, {Value::Int(i)}),
                             [&](Status s) {
                               if (s.ok()) acks++;
                             })
                    .ok());
  }
  for (int i = 1; i < 4; i++) {
    EXPECT_TRUE(nodes[i]->log.WaitForTxns(3, 15000)) << "validator " << i;
  }
  for (int i = 0; i < 200 && acks.load() < 3; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(acks.load(), 3);
  for (auto& node : nodes) node->engine->Stop();
}

TEST(TendermintTest, RejectsProposalFromNonProposer) {
  SimNetwork net;
  std::vector<std::string> ids = {"v0", "v1", "v2", "v3"};
  TendermintOptions tm_options;
  tm_options.serial_txn_cost_micros = 0;
  auto nodes =
      StartCluster<TendermintEngine>(&net, ids, FastOptions(), tm_options);

  // A Byzantine validator (v2) forges a proposal for height 0, round 0,
  // whose proposer is v0, and votes for it. Were v1 and v3 to accept the
  // proposal, their own prevotes and precommits plus v2's would make the
  // 3-of-4 quorum and commit the forged batch; honest validators must
  // ignore it (only the round's proposer proposes).
  std::vector<Transaction> forged_batch = {
      MakeTxn("t", "mallory", 1, {Value::Int(666)})};
  std::string batch_payload;
  EncodeBatch(forged_batch, &batch_payload);
  std::string proposal;
  PutVarint64(&proposal, 0);  // height 0
  PutVarint32(&proposal, 0);  // round 0
  PutLengthPrefixed(&proposal, batch_payload);
  std::string vote;
  PutVarint64(&vote, 0);
  PutVarint32(&vote, 0);
  const Hash256 digest = BatchDigest(batch_payload);
  vote.append(reinterpret_cast<const char*>(digest.bytes.data()), 32);
  for (const auto& target : {"v1", "v3"}) {
    net.Send({"tm.proposal", "v2", target, proposal});
    net.Send({"tm.prevote", "v2", target, vote});
    net.Send({"tm.precommit", "v2", target, vote});
  }
  net.DrainAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (auto& node : nodes) {
    EXPECT_EQ(node->engine->committed_batches(), 0u);
  }

  // The cluster still commits legitimate requests afterwards, and only them.
  ASSERT_TRUE(nodes[0]
                  ->engine
                  ->Submit(MakeTxn("t", "c", 5, {Value::Int(1)}), nullptr)
                  .ok());
  for (auto& node : nodes) {
    ASSERT_TRUE(node->log.WaitForTxns(1));
    for (const auto& txn : node->log.txns()) {
      EXPECT_NE(txn.sender(), "mallory");
    }
  }
  for (auto& node : nodes) node->engine->Stop();
}

// Votes from ids outside the validator set never count. v1 of {v0..v3}
// holds v0's legitimate proposal and its own prevote; prevotes and
// precommits from "x1" and "x2" would make the 3-of-4 quorum were they
// counted, so v1 must not commit alone.
TEST(TendermintTest, IgnoresVotesFromNonParticipants) {
  SimNetwork net;
  const std::vector<std::string> ids = {"v0", "v1", "v2", "v3"};
  TendermintOptions tm_options;
  tm_options.serial_txn_cost_micros = 0;
  tm_options.propose_timeout_millis = 60000;  // no round change mid-test
  NodeHarness<TendermintEngine> v1;
  v1.net = &net;
  v1.id = "v1";
  v1.engine = std::make_unique<TendermintEngine>(
      "v1", ids, &net, FastOptions(), v1.log.MakeFn(), tm_options);
  TendermintEngine* engine = v1.engine.get();
  ASSERT_TRUE(net.Register("v1", [engine](const Message& m) {
                   engine->HandleMessage(m);
                 }).ok());
  ASSERT_TRUE(v1.engine->Start().ok());

  std::string batch_payload;
  EncodeBatch({MakeTxn("t", "alice", 1, {Value::Int(1)})}, &batch_payload);
  std::string proposal;
  PutVarint64(&proposal, 0);  // height 0, round 0: v0 proposes
  PutVarint32(&proposal, 0);
  PutLengthPrefixed(&proposal, batch_payload);
  std::string vote;
  PutVarint64(&vote, 0);
  PutVarint32(&vote, 0);
  const Hash256 digest = BatchDigest(batch_payload);
  vote.append(reinterpret_cast<const char*>(digest.bytes.data()), 32);

  net.Send({"tm.proposal", "v0", "v1", proposal});
  for (const auto& outsider : {"x1", "x2"}) {
    net.Send({"tm.prevote", outsider, "v1", vote});
    net.Send({"tm.precommit", outsider, "v1", vote});
  }
  net.DrainAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(v1.engine->committed_batches(), 0u);
  EXPECT_TRUE(v1.log.txns().empty());
  v1.engine->Stop();
}

// An equivocating proposer (v0, played by the test) sends batch A to v1 and
// v2 and batch B to v3, and votes for whichever batch each one holds. v1
// and v2 prevote and precommit A, and v3 receives those votes before B. A
// vote counts only toward the digest it carries, so v3 cannot make B's
// quorum out of the honest A votes: no two validators commit different
// batches at one height.
TEST(TendermintTest, EquivocatingProposerCannotSplitValidators) {
  SimNetwork net;
  const std::vector<std::string> ids = {"v0", "v1", "v2", "v3"};
  TendermintOptions tm_options;
  tm_options.serial_txn_cost_micros = 0;
  tm_options.propose_timeout_millis = 60000;  // no round change mid-test
  std::vector<std::unique_ptr<NodeHarness<TendermintEngine>>> nodes;
  for (const std::string id : {"v1", "v2", "v3"}) {
    auto h = std::make_unique<NodeHarness<TendermintEngine>>();
    h->net = &net;
    h->id = id;
    h->engine = std::make_unique<TendermintEngine>(
        id, ids, &net, FastOptions(), h->log.MakeFn(), tm_options);
    TendermintEngine* engine = h->engine.get();
    ASSERT_TRUE(
        net.Register(id,
                     [engine](const Message& m) { engine->HandleMessage(m); })
            .ok());
    ASSERT_TRUE(h->engine->Start().ok());
    nodes.push_back(std::move(h));
  }

  // Height 0, round 0 belongs to v0.
  auto proposal_and_vote = [](const std::string& sender, int64_t amount,
                              std::string* proposal, std::string* vote) {
    std::string batch_payload;
    EncodeBatch({MakeTxn("t", sender, 1, {Value::Int(amount)})},
                &batch_payload);
    PutVarint64(proposal, 0);
    PutVarint32(proposal, 0);
    PutLengthPrefixed(proposal, batch_payload);
    PutVarint64(vote, 0);
    PutVarint32(vote, 0);
    const Hash256 digest = BatchDigest(batch_payload);
    vote->append(reinterpret_cast<const char*>(digest.bytes.data()), 32);
  };
  std::string proposal_a, vote_a, proposal_b, vote_b;
  proposal_and_vote("alice", 1, &proposal_a, &vote_a);
  proposal_and_vote("bob", 2, &proposal_b, &vote_b);

  for (const auto& target : {"v1", "v2"}) {
    net.Send({"tm.proposal", "v0", target, proposal_a});
    net.Send({"tm.prevote", "v0", target, vote_a});
    net.Send({"tm.precommit", "v0", target, vote_a});
  }
  net.DrainAll();  // v1 and v2 commit A; their A votes reach v3
  ASSERT_EQ(nodes[0]->engine->committed_batches(), 1u);
  ASSERT_EQ(nodes[1]->engine->committed_batches(), 1u);

  net.Send({"tm.proposal", "v0", "v3", proposal_b});
  net.Send({"tm.prevote", "v0", "v3", vote_b});
  net.Send({"tm.precommit", "v0", "v3", vote_b});
  net.DrainAll();

  const auto reference = nodes[0]->log.batches();
  ASSERT_EQ(reference.count(0), 1u);
  for (auto& node : nodes) {
    for (const auto& [seq, batch] : node->log.batches()) {
      auto it = reference.find(seq);
      if (it != reference.end()) {
        EXPECT_EQ(batch, it->second) << node->id << " at height " << seq;
      }
    }
  }
  EXPECT_EQ(nodes[2]->engine->committed_batches(), 0u);
  for (auto& node : nodes) node->engine->Stop();
}

TEST(KafkaOrdererTest, StopFailsPendingCallbacks) {
  SimNetwork net;
  CommitLog log;
  KafkaOrderer engine("n0", "broker-gone", {"n0"}, &net, FastOptions(10000),
                      log.MakeFn());
  ASSERT_TRUE(
      net.Register("n0", [&](const Message& m) { engine.HandleMessage(m); })
          .ok());
  ASSERT_TRUE(engine.Start().ok());
  // The broker does not exist, so this submission can never commit.
  Status done_status;
  std::atomic<bool> fired{false};
  ASSERT_TRUE(engine
                  .Submit(MakeTxn("t", "c", 1, {Value::Int(1)}),
                          [&](Status s) {
                            done_status = s;
                            fired = true;
                          })
                  .ok());
  engine.Stop();
  EXPECT_TRUE(fired.load());
  EXPECT_TRUE(done_status.IsAborted());
  ASSERT_TRUE(net.Unregister("n0").ok());
}

TEST(BatchCodecTest, RoundTrip) {
  std::vector<Transaction> batch = {MakeTxn("a", "s1", 1, {Value::Int(1)}),
                                    MakeTxn("b", "s2", 2, {Value::Str("x")})};
  std::string buf;
  EncodeBatch(batch, &buf);
  Slice input(buf);
  std::vector<Transaction> decoded;
  ASSERT_TRUE(DecodeBatch(&input, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], batch[0]);
  EXPECT_EQ(decoded[1], batch[1]);
  EXPECT_FALSE(BatchDigest(buf).IsZero());
}

}  // namespace
}  // namespace sebdb
