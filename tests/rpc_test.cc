// Tests for the RPC layer and the thin client running over the network
// transport (the paper's remote thin client, §VI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "common/clock.h"
#include "common/coding.h"
#include "core/node.h"
#include "core/thin_client.h"
#include "core/thin_client_transport.h"
#include "network/rpc.h"
#include "tests/test_util.h"
#include "network/sim_network.h"

namespace sebdb {
namespace {

using testing_util::ScratchDir;

TEST(RpcTest, CallRoundTrip) {
  SimNetwork net;
  RpcDispatcher dispatcher;
  dispatcher.RegisterMethod(
      "echo", [](const Slice& request, std::string* response) {
        *response = "echo:" + request.ToString();
        return Status::OK();
      });
  dispatcher.RegisterMethod(
      "fail", [](const Slice&, std::string*) {
        return Status::InvalidArgument("nope");
      });
  ASSERT_TRUE(net.Register("server",
                           [&](const Message& m) {
                             dispatcher.HandleMessage(&net, "server", m);
                           })
                  .ok());

  RpcClient client("client-1", &net);
  std::string response;
  ASSERT_TRUE(client.Call("server", "echo", "hello", &response).ok());
  EXPECT_EQ(response, "echo:hello");

  // Server-side errors propagate with code and message.
  Status s = client.Call("server", "fail", "", &response);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "nope");

  // Unknown method and unknown server.
  EXPECT_TRUE(client.Call("server", "missing", "", &response).IsNotFound());
  EXPECT_TRUE(
      client.Call("ghost", "echo", "", &response, 200).IsTimedOut());
}

TEST(RpcTest, ConcurrentCallsCorrelate) {
  SimNetworkOptions options;
  options.min_latency_micros = 100;
  options.max_latency_micros = 2000;  // responses arrive out of order
  SimNetwork net(options);
  RpcDispatcher dispatcher;
  dispatcher.RegisterMethod("id", [](const Slice& request,
                                     std::string* response) {
    *response = request.ToString();
    return Status::OK();
  });
  ASSERT_TRUE(net.Register("server",
                           [&](const Message& m) {
                             dispatcher.HandleMessage(&net, "server", m);
                           })
                  .ok());
  RpcClient client("client-1", &net);
  std::vector<std::thread> threads;
  std::atomic<int> correct{0};
  for (int i = 0; i < 16; i++) {
    threads.emplace_back([&, i] {
      std::string response;
      if (client.Call("server", "id", std::to_string(i), &response).ok() &&
          response == std::to_string(i)) {
        correct++;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(correct.load(), 16);
}

TEST(RpcTest, ThinClientOverNetworkTransport) {
  ScratchDir dir("rpc_thin");
  SimNetwork net;
  KeyStore keystore;
  std::vector<std::string> ids = {"n0", "n1", "n2"};
  for (const auto& id : ids) keystore.AddIdentity(id, "s-" + id);
  keystore.AddIdentity("org1", "s-org1");

  std::vector<std::unique_ptr<SebdbNode>> nodes;
  for (const auto& id : ids) {
    NodeOptions options;
    options.node_id = id;
    options.data_dir = dir.path() + "/" + id;
    options.participants = ids;
    options.consensus_options.max_batch_txns = 5;
    options.consensus_options.batch_timeout_millis = 20;
    options.gossip.interval_millis = 10;
    auto node = std::make_unique<SebdbNode>(options, &keystore, nullptr);
    ASSERT_TRUE(node->Start(&net).ok());
    nodes.push_back(std::move(node));
  }
  ResultSet rs;
  ASSERT_TRUE(nodes[0]->ExecuteSql("CREATE d (amount int)", {}, &rs).ok());
  for (int i = 0; i < 20; i++) {
    Transaction txn;
    ASSERT_TRUE(nodes[0]
                    ->MakeInsertTransaction("org1", "d", {Value::Int(i)},
                                            &txn)
                    .ok());
    ASSERT_TRUE(nodes[0]->SubmitAndWait(std::move(txn)).ok());
  }
  uint64_t height = nodes[0]->chain().height();
  for (auto& node : nodes) {
    for (int i = 0; i < 1000 && node->chain().height() < height; i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(node->chain().height(), height);
    ASSERT_TRUE(node->ExecuteSql("CREATE INDEX ON d(amount)", {}, &rs).ok());
  }

  // The thin client lives at its own network address; every call below is
  // an RPC round trip through the simulated network.
  ThinClient client(
      std::make_unique<RpcThinTransport>("thin-client", &net, ids));
  ASSERT_TRUE(client.SyncHeaders().ok());
  EXPECT_EQ(client.num_headers(), height);

  Schema schema;
  ASSERT_TRUE(nodes[0]->chain().catalog()->GetSchema("d", &schema).ok());
  Value lo = Value::Int(5), hi = Value::Int(9);
  std::vector<Transaction> results;
  AuthQueryStats stats;
  ASSERT_TRUE(client
                  .AuthRangeQuery("d", "amount", schema.ColumnIndex("amount"),
                                  &lo, &hi, 2, 2, &results, &stats)
                  .ok());
  EXPECT_EQ(results.size(), 5u);

  results.clear();
  ASSERT_TRUE(
      client.AuthTraceQuery(true, "org1", 2, 2, &results, &stats).ok());
  EXPECT_EQ(results.size(), 20u);

  results.clear();
  ASSERT_TRUE(
      client.AuthTraceTwoDimQuery("org1", "d", 2, 2, &results, &stats).ok());
  EXPECT_EQ(results.size(), 20u);

  // Basic approach over the wire too.
  std::vector<Transaction> basic;
  AuthQueryStats basic_stats;
  ASSERT_TRUE(client
                  .BasicRangeQuery("d", schema.ColumnIndex("amount"), &lo,
                                   &hi, &basic, &basic_stats)
                  .ok());
  EXPECT_EQ(basic.size(), 5u);

  for (auto& node : nodes) node->Stop();
}

TEST(RpcTest, RetryPolicySucceedsOnLossyNetwork) {
  SimNetworkOptions net_options;
  net_options.drop_rate = 0.5;  // half of all messages vanish
  net_options.seed = 1234;
  SimNetwork net(net_options);
  RpcDispatcher dispatcher;
  dispatcher.RegisterMethod("echo",
                            [](const Slice& request, std::string* response) {
                              *response = request.ToString();
                              return Status::OK();
                            });
  ASSERT_TRUE(net.Register("server",
                           [&](const Message& m) {
                             dispatcher.HandleMessage(&net, "server", m);
                           })
                  .ok());

  RpcClient client("client-1", &net);
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.attempt_timeout_millis = 50;
  policy.initial_backoff_millis = 2;
  policy.max_backoff_millis = 10;

  // Each attempt needs both its request and response delivered (p = 0.25),
  // so a single shot fails 75% of the time; five attempts push per-call
  // success to ~76%. Expect a clear majority of 20 calls through.
  int ok = 0;
  for (int i = 0; i < 20; i++) {
    std::string response;
    if (client.Call("server", "echo", std::to_string(i), &response, policy)
            .ok()) {
      ASSERT_EQ(response, std::to_string(i));
      ok++;
    }
  }
  EXPECT_GE(ok, 10);
  EXPECT_GT(client.retries(), 0u);
}

TEST(RpcTest, RetryPolicyRespectsOverallDeadline) {
  SimNetwork net;
  ASSERT_TRUE(net.Register("server", [](const Message&) {}).ok());
  RpcClient client("client-1", &net);
  net.SetLinkDown("client-1", "server", true);

  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.attempt_timeout_millis = 100;
  policy.overall_deadline_millis = 400;
  policy.initial_backoff_millis = 10;

  auto start = std::chrono::steady_clock::now();
  std::string response;
  Status s = client.Call("server", "echo", "x", &response, policy);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_TRUE(s.IsTimedOut());
  // Far fewer than 100 x 100ms attempts: the deadline cut the loop off.
  EXPECT_GE(elapsed, 300);
  EXPECT_LE(elapsed, 2000);
}

TEST(RpcTest, RetryPolicyDefaultsAndNonRetryableErrors) {
  SimNetwork net;
  RpcDispatcher dispatcher;
  dispatcher.RegisterMethod("fail", [](const Slice&, std::string*) {
    return Status::InvalidArgument("nope");
  });
  ASSERT_TRUE(net.Register("server",
                           [&](const Message& m) {
                             dispatcher.HandleMessage(&net, "server", m);
                           })
                  .ok());
  RpcClient client("client-1", &net);

  // Semantic errors surface immediately even under a retrying policy.
  std::string response;
  Status s = client.Call("server", "fail", "", &response,
                         RetryPolicy::WithAttempts(5));
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(client.retries(), 0u);

  // The default policy is one attempt: a timeout performs no retries.
  net.SetLinkDown("client-1", "server", true);
  RetryPolicy one;
  one.attempt_timeout_millis = 100;
  EXPECT_TRUE(client.Call("server", "fail", "", &response, one).IsTimedOut());
  EXPECT_EQ(client.retries(), 0u);
}

TEST(RpcTest, RetryPolicyHonorsServerRetryAfterHint) {
  SimNetwork net;
  RpcDispatcher dispatcher;
  std::atomic<int> calls{0};
  dispatcher.RegisterMethod(
      "flaky", [&](const Slice& request, std::string* response) -> Status {
        if (calls.fetch_add(1) < 2) {
          return Status::ResourceExhausted("busy", 150);
        }
        *response = request.ToString();
        return Status::OK();
      });
  ASSERT_TRUE(net.Register("server",
                           [&](const Message& m) {
                             dispatcher.HandleMessage(&net, "server", m);
                           })
                  .ok());
  RpcClient client("client-1", &net);
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.attempt_timeout_millis = 500;
  policy.initial_backoff_millis = 1;  // client-side guess: near-zero
  policy.max_backoff_millis = 2;
  policy.jitter = 0;

  auto start = std::chrono::steady_clock::now();
  std::string response;
  Status s = client.Call("server", "flaky", "x", &response, policy);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(response, "x");
  // Two rejections, each honoring the 150ms server hint instead of the
  // ~1-2ms client backoff.
  EXPECT_GE(elapsed, 250);
}

TEST(RpcTest, RetryAfterHintCappedByOverallDeadline) {
  SimNetwork net;
  RpcDispatcher dispatcher;
  dispatcher.RegisterMethod("busy", [](const Slice&, std::string*) -> Status {
    return Status::ResourceExhausted("overloaded", 5000);  // absurd hint
  });
  ASSERT_TRUE(net.Register("server",
                           [&](const Message& m) {
                             dispatcher.HandleMessage(&net, "server", m);
                           })
                  .ok());
  RpcClient client("client-1", &net);
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.attempt_timeout_millis = 100;
  policy.overall_deadline_millis = 300;

  auto start = std::chrono::steady_clock::now();
  std::string response;
  Status s = client.Call("server", "busy", "", &response, policy);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_FALSE(s.ok());
  // The 5000ms hint was clamped to the overall deadline, not slept in full.
  EXPECT_LE(elapsed, 2000);
}

TEST(RpcTest, BoundedQueueShedsWithRetryAfterHint) {
  SimNetwork net;
  RpcDispatcher dispatcher;
  dispatcher.RegisterMethod("slow", [](const Slice&, std::string* response) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    *response = "done";
    return Status::OK();
  });
  RpcServerOptions server_options;
  server_options.workers = 1;
  server_options.max_queue = 1;
  dispatcher.Start(server_options);
  ASSERT_TRUE(net.Register("server",
                           [&](const Message& m) {
                             dispatcher.HandleMessage(&net, "server", m);
                           })
                  .ok());
  RpcClient client("client-1", &net);

  // Three concurrent calls: one executing, one queued, one shed.
  std::atomic<int> ok{0}, shed{0};
  std::atomic<int64_t> hint{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; i++) {
    threads.emplace_back([&] {
      std::string response;
      Status s = client.Call("server", "slow", "", &response, 5000);
      if (s.ok()) {
        ok++;
      } else if (s.IsResourceExhausted()) {
        shed++;
        hint.store(s.retry_after_millis());
      }
    });
    // Deterministic arrival order at the server's delivery thread.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), 2);
  EXPECT_EQ(shed.load(), 1);
  EXPECT_GT(hint.load(), 0);
  RpcServerStats stats = dispatcher.stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.executed, 2u);
  dispatcher.Stop();
}

// Regression (cross-process deadlines): the wire carries a remaining-time
// BUDGET, not an absolute steady-clock instant. Before the fix the client
// shipped `SteadyNowMillis() + timeout` and the server compared it against
// its own steady clock — two clocks with unrelated epochs, so across real
// processes (TcpNetwork) a fresh request could look long-expired (dropped
// on arrival) or immortal at random. A hand-crafted frame carrying a small
// budget value, which the old decoding would have misread as an instant
// from the distant past and shed, must execute.
TEST(RpcTest, DeadlineBudgetSurvivesProcessBoundary) {
  SimNetwork net;
  RpcDispatcher dispatcher;
  std::atomic<int> executions{0};
  dispatcher.RegisterMethod("count", [&](const Slice&, std::string*) {
    executions++;
    return Status::OK();
  });
  RpcServerOptions server_options;
  server_options.workers = 1;
  dispatcher.Start(server_options);
  ASSERT_TRUE(net.Register("client-1", [](const Message&) {}).ok());

  // 5000ms of remaining budget. As an absolute instant this is ancient
  // history on any server that has been up a few seconds (the old bug).
  std::string payload;
  PutFixed64(&payload, 7);  // request id
  PutFixed64(&payload, 5000);
  PutLengthPrefixed(&payload, "count");
  PutLengthPrefixed(&payload, "");
  dispatcher.HandleMessage(
      &net, "server",
      Message{RpcDispatcher::kRequestType, "client-1", "server", payload});

  for (int i = 0; i < 500 && executions.load() < 1; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(executions.load(), 1);
  RpcServerStats stats = dispatcher.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.received, 1u);
  dispatcher.Stop();
  net.Unregister("client-1");
}

// The re-anchored budget still bounds queue time: a request whose budget
// runs out while stuck behind a slow one is shed (expired_in_queue), not
// executed.
TEST(RpcTest, BudgetExpiresInQueueAfterReanchoring) {
  SimNetwork net;
  RpcDispatcher dispatcher;
  Mutex gate_mu;
  CondVar gate_cv;
  bool gate_open = false;
  std::atomic<int> executions{0};
  dispatcher.RegisterMethod("slow", [&](const Slice&, std::string*) {
    MutexLock lock(&gate_mu);
    while (!gate_open) gate_cv.Wait(gate_mu);
    return Status::OK();
  });
  dispatcher.RegisterMethod("count", [&](const Slice&, std::string*) {
    executions++;
    return Status::OK();
  });
  RpcServerOptions server_options;
  server_options.workers = 1;  // one worker: "slow" blocks the queue
  dispatcher.Start(server_options);
  ASSERT_TRUE(net.Register("client-1", [](const Message&) {}).ok());

  auto send = [&](uint64_t id, const std::string& method, uint64_t budget) {
    std::string payload;
    PutFixed64(&payload, id);
    PutFixed64(&payload, budget);
    PutLengthPrefixed(&payload, method);
    PutLengthPrefixed(&payload, "");
    dispatcher.HandleMessage(
        &net, "server",
        Message{RpcDispatcher::kRequestType, "client-1", "server", payload});
  };
  send(1, "slow", 0);       // occupies the only worker
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  send(2, "count", 30);     // 30ms budget, will die waiting
  send(3, "count", 0);      // no budget = no deadline, must execute

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  {
    MutexLock lock(&gate_mu);
    gate_open = true;
    gate_cv.NotifyAll();
  }
  for (int i = 0; i < 500 && executions.load() < 1; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(executions.load(), 1);  // id 3 only
  RpcServerStats stats = dispatcher.stats();
  EXPECT_EQ(stats.expired_in_queue, 1u);
  dispatcher.Stop();
  net.Unregister("client-1");
}

// Regression (request-id lifecycle across reconnects): calls pending
// against a peer whose connection drops must fail immediately with
// Unavailable — a retryable status RetryPolicy turns into a failover —
// instead of hanging until the call deadline.
TEST(RpcTest, PendingCallsFailFastOnPeerDown) {
  SimNetwork net;
  RpcDispatcher dispatcher;  // never answers: no methods, never registered
  (void)dispatcher;
  ASSERT_TRUE(
      net.Register("server", [](const Message&) { /* swallow */ }).ok());

  RpcClient client("client-1", &net);
  std::atomic<bool> returned{false};
  Status observed;
  std::thread caller([&] {
    std::string response;
    // 60s deadline: only the fail-fast path can return quickly.
    observed = client.Call("server", "rpc.echo", "x", &response,
                           /*timeout_millis=*/60000);
    returned = true;
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_FALSE(returned.load());
  // The server endpoint goes away — SimNetwork fires the peer watcher just
  // like TcpNetwork does when a supervised connection dies.
  net.Unregister("server");
  for (int i = 0; i < 500 && !returned.load(); i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(returned.load()) << "call hung past peer-down";
  caller.join();
  EXPECT_TRUE(observed.IsUnavailable()) << observed.ToString();
  EXPECT_TRUE(RpcClient::IsRetryable(observed));
}

TEST(RpcTest, PartitionedServerTimesOut) {
  ScratchDir dir("rpc_partition");
  SimNetwork net;
  KeyStore keystore;
  keystore.AddIdentity("n0", "s");
  NodeOptions options;
  options.node_id = "n0";
  options.data_dir = dir.path() + "/n0";
  options.participants = {"n0"};
  options.enable_gossip = false;
  SebdbNode node(options, &keystore, nullptr);
  ASSERT_TRUE(node.Start(&net).ok());

  RpcThinTransport transport("thin", &net, {"n0"},
                             /*call_timeout_millis=*/300);
  net.SetLinkDown("thin", "n0", true);
  std::vector<BlockHeader> headers;
  EXPECT_TRUE(transport.GetHeaders("n0", 0, &headers).IsTimedOut());
  net.SetLinkDown("thin", "n0", false);
  EXPECT_TRUE(transport.GetHeaders("n0", 0, &headers).ok());
  EXPECT_EQ(headers.size(), 1u);  // genesis
  node.Stop();
}

// ---- deferred methods ----

// A raw client endpoint that records every rpc.response it receives, so a
// test can count answers per request id (RpcClient drops duplicates).
class ResponseProbe {
 public:
  ResponseProbe(SimNetwork* net, std::string id)
      : net_(net), id_(std::move(id)) {
    EXPECT_TRUE(net_->Register(id_, [this](const Message& m) { OnMessage(m); })
                    .ok());
  }
  ~ResponseProbe() { net_->Unregister(id_); }

  void Send(const std::string& server, uint64_t request_id,
            const std::string& method, const std::string& body) {
    std::string payload;
    PutFixed64(&payload, request_id);
    PutFixed64(&payload, 0);  // no client budget
    PutLengthPrefixed(&payload, method);
    PutLengthPrefixed(&payload, body);
    net_->Send(Message{RpcDispatcher::kRequestType, id_, server, payload});
  }

  struct Answer {
    Status::Code code;
    std::string body;
  };

  // Waits until `count` answers in total arrived (false on timeout).
  bool WaitForAnswers(size_t count, int timeout_ms = 5000) {
    const int64_t deadline = SteadyNowMillis() + timeout_ms;
    MutexLock lock(&mu_);
    while (total_ < count) {
      const int64_t remaining = deadline - SteadyNowMillis();
      if (remaining <= 0) return false;
      cv_.WaitFor(mu_, std::chrono::milliseconds(remaining));
    }
    return true;
  }

  std::map<uint64_t, std::vector<Answer>> answers() {
    MutexLock lock(&mu_);
    return answers_;
  }

 private:
  void OnMessage(const Message& message) {
    Slice input(message.payload);
    uint64_t request_id;
    Slice msg, body;
    ASSERT_TRUE(GetFixed64(&input, &request_id));
    ASSERT_FALSE(input.empty());
    auto code = static_cast<Status::Code>(input[0]);
    input.remove_prefix(1);
    ASSERT_TRUE(GetLengthPrefixed(&input, &msg));
    ASSERT_TRUE(GetLengthPrefixed(&input, &body));
    MutexLock lock(&mu_);
    answers_[request_id].push_back(Answer{code, body.ToString()});
    total_++;
    cv_.NotifyAll();
  }

  SimNetwork* net_;
  const std::string id_;
  Mutex mu_;
  CondVar cv_;
  std::map<uint64_t, std::vector<Answer>> answers_ GUARDED_BY(mu_);
  size_t total_ GUARDED_BY(mu_) = 0;
};

// Holds the responders a deferred "park" method receives.
class ParkedRequests {
 public:
  DeferredRpcMethod Method() {
    return [this](const Slice& request, RpcResponder respond) {
      MutexLock lock(&mu_);
      parked_[request.ToString()] = std::move(respond);
      cv_.NotifyAll();
    };
  }

  bool WaitForParked(size_t count, int timeout_ms = 5000) {
    const int64_t deadline = SteadyNowMillis() + timeout_ms;
    MutexLock lock(&mu_);
    while (parked_.size() < count) {
      const int64_t remaining = deadline - SteadyNowMillis();
      if (remaining <= 0) return false;
      cv_.WaitFor(mu_, std::chrono::milliseconds(remaining));
    }
    return true;
  }

  RpcResponder Get(const std::string& key) {
    MutexLock lock(&mu_);
    return parked_.at(key);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::map<std::string, RpcResponder> parked_ GUARDED_BY(mu_);
};

void ServeOnNetwork(SimNetwork* net, RpcDispatcher* dispatcher) {
  ASSERT_TRUE(net->Register("server",
                            [net, dispatcher](const Message& m) {
                              dispatcher->HandleMessage(net, "server", m);
                            })
                  .ok());
}

// One worker holds eight deferred requests open at once, answers them out
// of order exactly once each, and still serves a plain method meanwhile.
TEST(RpcDeferredTest, OneWorkerHoldsManyOutstandingRequests) {
  SimNetwork net;
  RpcDispatcher dispatcher;
  ParkedRequests parked;
  dispatcher.RegisterDeferredMethod("park", parked.Method(),
                                    /*timeout_millis=*/30000);
  dispatcher.RegisterMethod(
      "echo", [](const Slice& request, std::string* response) {
        *response = request.ToString();
        return Status::OK();
      });
  RpcServerOptions server_options;
  server_options.workers = 1;
  dispatcher.Start(server_options);
  ServeOnNetwork(&net, &dispatcher);
  ResponseProbe probe(&net, "probe");

  for (uint64_t id = 1; id <= 8; id++) {
    probe.Send("server", id, "park", std::to_string(id));
  }
  ASSERT_TRUE(parked.WaitForParked(8));

  RpcClient client("client-1", &net);
  std::string response;
  ASSERT_TRUE(client.Call("server", "echo", "still served", &response).ok());
  EXPECT_EQ(response, "still served");

  for (uint64_t id : {8, 3, 5, 1, 7, 2, 6, 4}) {
    RpcResponder respond = parked.Get(std::to_string(id));
    respond(Status::OK(), "r" + std::to_string(id));
    respond(Status::IOError("second answer"), "");  // dropped
  }
  ASSERT_TRUE(probe.WaitForAnswers(8));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto answers = probe.answers();
  ASSERT_EQ(answers.size(), 8u);
  for (uint64_t id = 1; id <= 8; id++) {
    ASSERT_EQ(answers[id].size(), 1u) << id;
    EXPECT_EQ(answers[id][0].code, Status::Code::kOk);
    EXPECT_EQ(answers[id][0].body, "r" + std::to_string(id));
  }
  EXPECT_EQ(dispatcher.stats().deferred_timed_out, 0u);
  dispatcher.Stop();
  net.Unregister("server");
}

// An unanswered deferred request gets exactly one TimedOut after its
// method's timeout; the completion that arrives later is dropped.
TEST(RpcDeferredTest, UnansweredRequestTimesOutOnce) {
  SimNetwork net;
  RpcDispatcher dispatcher;
  ParkedRequests parked;
  dispatcher.RegisterDeferredMethod("park", parked.Method(),
                                    /*timeout_millis=*/100);
  RpcServerOptions server_options;
  server_options.workers = 1;
  dispatcher.Start(server_options);
  ServeOnNetwork(&net, &dispatcher);
  ResponseProbe probe(&net, "probe");

  const int64_t start = SteadyNowMillis();
  probe.Send("server", 1, "park", "late");
  ASSERT_TRUE(parked.WaitForParked(1));
  ASSERT_TRUE(probe.WaitForAnswers(1));
  EXPECT_GE(SteadyNowMillis() - start, 100);

  parked.Get("late")(Status::OK(), "too late");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto answers = probe.answers();
  ASSERT_EQ(answers[1].size(), 1u);
  EXPECT_EQ(answers[1][0].code, Status::Code::kTimedOut);
  EXPECT_EQ(dispatcher.stats().deferred_timed_out, 1u);
  dispatcher.Stop();
  net.Unregister("server");
}

// Stop() answers every outstanding deferred request Aborted, once.
TEST(RpcDeferredTest, StopAbortsOutstandingRequestsOnce) {
  SimNetwork net;
  RpcDispatcher dispatcher;
  ParkedRequests parked;
  dispatcher.RegisterDeferredMethod("park", parked.Method(),
                                    /*timeout_millis=*/30000);
  RpcServerOptions server_options;
  server_options.workers = 1;
  dispatcher.Start(server_options);
  ServeOnNetwork(&net, &dispatcher);
  ResponseProbe probe(&net, "probe");

  for (uint64_t id = 1; id <= 3; id++) {
    probe.Send("server", id, "park", std::to_string(id));
  }
  ASSERT_TRUE(parked.WaitForParked(3));
  dispatcher.Stop();
  dispatcher.Stop();  // idempotent: nothing left to abort
  ASSERT_TRUE(probe.WaitForAnswers(3));
  for (uint64_t id = 1; id <= 3; id++) {
    parked.Get(std::to_string(id))(Status::OK(), "after stop");  // dropped
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto answers = probe.answers();
  ASSERT_EQ(answers.size(), 3u);
  for (uint64_t id = 1; id <= 3; id++) {
    ASSERT_EQ(answers[id].size(), 1u) << id;
    EXPECT_EQ(answers[id][0].code, Status::Code::kAborted);
  }
  net.Unregister("server");
}

}  // namespace
}  // namespace sebdb
