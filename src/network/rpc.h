// Request/response RPC on top of the simulated network. The paper's thin
// clients are remote processes that "send a query to a randomly selected
// full node" (§VI); this layer carries those calls over the wire instead of
// via in-process pointers.
//
// Wire format: an "rpc.request" message whose payload is
//   [request_id u64][budget_millis u64][method lp][body lp]
// answered by an "rpc.response" to the caller:
//   [request_id u64][status_code u8][status_msg lp][body lp][retry_after vi]
//
// `budget_millis` is the client's REMAINING time budget at send (0 = none),
// never an absolute instant: steady clocks are process-local, so an
// absolute deadline is meaningless the moment the request crosses a
// process boundary (TcpNetwork). The server re-anchors the budget against
// its own clock on arrival and drops requests whose re-anchored deadline
// passes while queued, instead of wasting execution on answers nobody
// waits for. `retry_after` carries the server-driven backoff hint of
// ResourceExhausted rejections; RetryPolicy honors it in place of the
// client-side exponential backoff.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "network/network.h"

namespace sebdb {

/// Server-side method: consumes a serialized request body, produces a
/// serialized response body.
using RpcMethod =
    std::function<Status(const Slice& request, std::string* response)>;

/// Answers one deferred request; callable from any thread. Exactly once per
/// request: the first answer wins — the method's own, TimedOut from the
/// dispatcher once the method's timeout passes, or Aborted from Stop() —
/// and every later call is dropped.
using RpcResponder =
    std::function<void(const Status& status, const std::string& response)>;

/// Server-side method that answers later: it must return without waiting,
/// handing `respond` to whatever completes the work (e.g. a commit
/// callback), so the worker that ran it is free for the next request.
using DeferredRpcMethod =
    std::function<void(const Slice& request, RpcResponder respond)>;

/// Server-side queue bounds. With workers = 0 (the default) requests
/// execute inline on the network delivery thread, unqueued — the historical
/// behavior. With workers > 0, requests land in a bounded queue drained by
/// a worker pool; when the queue is full new requests are rejected with
/// ResourceExhausted carrying a retry_after hint instead of growing the
/// queue without bound.
struct RpcServerOptions {
  int workers = 0;
  size_t max_queue = 256;
  /// Base for the retry_after hint attached to queue-full rejections.
  int64_t retry_after_base_millis = 20;
};

struct RpcServerStats {
  uint64_t received = 0;
  uint64_t executed = 0;
  uint64_t rejected_queue_full = 0;  // shed with ResourceExhausted
  /// Client budget (re-anchored on arrival) ran out while queued. Arrival
  /// itself can never be expired: the budget starts counting here.
  uint64_t expired_in_queue = 0;
  /// Deferred requests answered TimedOut because nothing completed them
  /// within their method's timeout.
  uint64_t deferred_timed_out = 0;
};

/// Dispatch table a node plugs into its network handler.
class RpcDispatcher {
 public:
  RpcDispatcher() = default;
  ~RpcDispatcher();
  RpcDispatcher(const RpcDispatcher&) = delete;
  RpcDispatcher& operator=(const RpcDispatcher&) = delete;

  /// Registration must complete before messages arrive (the worker pool
  /// reads the table without a lock).
  void RegisterMethod(const std::string& name, RpcMethod method);
  /// Registers a method that answers through an RpcResponder. A request it
  /// leaves unanswered for `timeout_millis` is answered TimedOut; the
  /// worker loop sweeps these timeouts (inline mode sweeps on arrival), so
  /// no thread waits per request.
  void RegisterDeferredMethod(const std::string& name,
                              DeferredRpcMethod method,
                              int64_t timeout_millis);

  /// Enables the bounded-queue worker mode. No-op when
  /// options.workers == 0.
  void Start(const RpcServerOptions& options);
  /// Drains the queue and joins the workers; queued and outstanding
  /// deferred requests are answered Aborted. Idempotent.
  void Stop();

  /// Handles an "rpc.request" message and replies via `network` as
  /// `self_id`. Unknown methods answer with NotFound; expired deadlines
  /// answer with TimedOut before execution; a full queue answers with
  /// ResourceExhausted plus a retry_after hint.
  void HandleMessage(Network* network, const std::string& self_id,
                     const Message& message);

  RpcServerStats stats() const;

  static constexpr const char* kRequestType = "rpc.request";
  static constexpr const char* kResponseType = "rpc.response";

 private:
  struct QueuedRequest {
    Network* network = nullptr;
    std::string self_id;
    std::string reply_to;
    uint64_t request_id = 0;
    /// Local steady-clock deadline, re-anchored from the wire budget at
    /// arrival (0 = none).
    int64_t deadline_millis = 0;
    std::string method;
    std::string body;
  };

  struct Deferred {
    DeferredRpcMethod method;
    int64_t timeout_millis = 0;
  };
  /// Where an unanswered deferred request's reply goes.
  struct ReplyTo {
    Network* network = nullptr;
    std::string self_id;
    std::string reply_to;
    uint64_t request_id = 0;
  };
  /// Outstanding deferred requests keyed by (timeout instant, sequence), so
  /// begin() times out first. Shared with every responder: a completion
  /// that arrives after Stop() or the dispatcher's destruction finds its
  /// entry gone and is dropped.
  struct Outstanding {
    Mutex mu;
    uint64_t next_seq GUARDED_BY(mu) = 0;
    std::map<std::pair<int64_t, uint64_t>, ReplyTo> calls GUARDED_BY(mu);
  };

  /// Looks up and runs the method, then sends the response (a deferred
  /// method's response goes out when its responder is called).
  void Execute(Network* network, const std::string& self_id,
               const std::string& reply_to, uint64_t request_id,
               const std::string& method, const Slice& body);
  /// Sends the response. One whose frame exceeds the transport's
  /// max_frame_bytes() goes out instead as InvalidArgument (not retryable)
  /// naming both sizes.
  static void Reply(Network* network, const std::string& self_id,
                    const std::string& reply_to, uint64_t request_id,
                    const Status& status, const std::string& body);
  static void Reply(const ReplyTo& to, const Status& status,
                    const std::string& body) {
    Reply(to.network, to.self_id, to.reply_to, to.request_id, status, body);
  }
  void WorkerLoop();
  /// Moves the next timeout sweep earlier to `at_millis` if needed.
  void ScheduleSweepLocked(int64_t at_millis) REQUIRES(mu_);
  /// Takes the due timeout sweep, if any (the caller then runs
  /// SweepDeferred outside mu_).
  bool ClaimSweepLocked() REQUIRES(mu_);
  /// Answers every expired deferred request TimedOut and schedules the
  /// next sweep.
  void SweepDeferred() EXCLUDES(mu_);

  std::map<std::string, RpcMethod> methods_;
  std::map<std::string, Deferred> deferred_methods_;
  RpcServerOptions options_;
  const std::shared_ptr<Outstanding> outstanding_ =
      std::make_shared<Outstanding>();

  mutable Mutex mu_;
  bool running_ GUARDED_BY(mu_) = false;
  std::deque<QueuedRequest> queue_ GUARDED_BY(mu_);
  RpcServerStats stats_ GUARDED_BY(mu_);
  /// Steady-clock instant of the earliest deferred timeout not yet swept
  /// (0 = none scheduled).
  int64_t sweep_at_millis_ GUARDED_BY(mu_) = 0;
  CondVar cv_;
  std::vector<std::thread> workers_;
};

/// Opt-in retry for RpcClient::Call: exponential backoff with jitter,
/// per-attempt deadlines, and an overall deadline. The default policy
/// (max_attempts = 1) performs no retries, so zero-retry callers are
/// unchanged. Only transient failures — TimedOut, IOError, Busy,
/// ResourceExhausted, Unavailable — are retried; semantic errors (NotFound,
/// InvalidArgument, Corruption, …) surface immediately. When a rejection
/// carries a server retry_after_millis hint, the hint replaces the
/// client-side backoff for that sleep (still capped by the overall
/// deadline) — the server knows its own drain rate better than the client.
struct RetryPolicy {
  int max_attempts = 1;
  /// Deadline applied to each attempt.
  int64_t attempt_timeout_millis = 1000;
  /// Budget across all attempts and backoff sleeps; 0 = unlimited.
  int64_t overall_deadline_millis = 0;
  int64_t initial_backoff_millis = 10;
  int64_t max_backoff_millis = 1000;
  double backoff_multiplier = 2.0;
  /// Each sleep is scaled by a uniform factor in [1 - jitter, 1 + jitter]
  /// so retrying clients do not stampede in lockstep.
  double jitter = 0.5;

  static RetryPolicy WithAttempts(int attempts) {
    RetryPolicy policy;
    policy.max_attempts = attempts;
    return policy;
  }
};

/// Blocking client: registers itself on the network under `client_id`,
/// correlates responses by request id. Subscribes to the network's peer
/// watcher: when the connection to a server is lost, every call pending
/// against it fails immediately with Unavailable (retryable) instead of
/// hanging until its deadline — the reconnect supervisor owns the link,
/// RetryPolicy owns the retry.
class RpcClient {
 public:
  RpcClient(std::string client_id, Network* network);
  ~RpcClient();
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Synchronous call; the server's Status is propagated (TimedOut when no
  /// response arrives in time — e.g. the node is down or partitioned).
  Status Call(const std::string& server, const std::string& method,
              const std::string& request, std::string* response,
              int64_t timeout_millis = 5000);

  /// Synchronous call governed by a RetryPolicy: transient failures are
  /// retried with exponential backoff + jitter until the attempts or the
  /// overall deadline run out. The last attempt's status is returned.
  Status Call(const std::string& server, const std::string& method,
              const std::string& request, std::string* response,
              const RetryPolicy& policy);

  /// True for failures worth retrying (lost/timed-out messages, transient
  /// I/O); false for semantic errors a retry cannot fix.
  static bool IsRetryable(const Status& status);

  /// Cumulative number of retry attempts performed (excludes first tries).
  uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

  const std::string& client_id() const { return client_id_; }

 private:
  struct Pending {
    std::string server;  // fail-fast matching on peer-down
    bool done = false;
    Status status;
    std::string body;
  };
  /// Fills in the pending call a reply answers; `payload` is consumed.
  void OnResponse(const std::string& type, std::string payload);
  /// Peer-watcher callback: fails every pending call against `peer`.
  void OnPeerDown(const std::string& peer);

  const std::string client_id_;
  Network* network_;
  uint64_t watcher_token_ = 0;
  Mutex mu_;
  CondVar cv_;
  uint64_t next_request_id_ GUARDED_BY(mu_) = 1;
  std::map<uint64_t, Pending> pending_ GUARDED_BY(mu_);
  Random jitter_rng_ GUARDED_BY(mu_){0x5ebdbu};
  std::atomic<uint64_t> retries_{0};
};

}  // namespace sebdb
