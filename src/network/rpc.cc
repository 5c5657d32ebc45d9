#include "network/rpc.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/clock.h"
#include "common/coding.h"
#include "network/frame.h"

namespace sebdb {

RpcDispatcher::~RpcDispatcher() { Stop(); }

void RpcDispatcher::RegisterMethod(const std::string& name,
                                   RpcMethod method) {
  methods_[name] = std::move(method);
}

void RpcDispatcher::RegisterDeferredMethod(const std::string& name,
                                           DeferredRpcMethod method,
                                           int64_t timeout_millis) {
  deferred_methods_[name] = Deferred{std::move(method), timeout_millis};
}

void RpcDispatcher::Start(const RpcServerOptions& options) {
  if (options.workers <= 0) return;
  MutexLock lock(&mu_);
  if (running_) return;
  options_ = options;
  running_ = true;
  workers_.reserve(static_cast<size_t>(options.workers));
  for (int i = 0; i < options.workers; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void RpcDispatcher::Stop() {
  std::deque<QueuedRequest> drained;
  {
    MutexLock lock(&mu_);
    running_ = false;
    sweep_at_millis_ = 0;
    drained.swap(queue_);
    cv_.NotifyAll();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  const Status aborted = Status::Aborted("rpc server stopped");
  for (const auto& request : drained) {
    Reply(request.network, request.self_id, request.reply_to,
          request.request_id, aborted, "");
  }
  std::map<std::pair<int64_t, uint64_t>, ReplyTo> calls;
  {
    MutexLock lock(&outstanding_->mu);
    calls.swap(outstanding_->calls);
  }
  for (const auto& [key, to] : calls) Reply(to, aborted, "");
}

void RpcDispatcher::Reply(Network* network, const std::string& self_id,
                          const std::string& reply_to, uint64_t request_id,
                          const Status& status, const std::string& body) {
  const auto retry_after =
      static_cast<uint64_t>(std::max<int64_t>(status.retry_after_millis(), 0));
  Message reply{RpcDispatcher::kResponseType, self_id, reply_to, ""};
  std::string& payload = reply.payload;
  // Built at its final size, so a large body is copied once, never regrown.
  payload.reserve(8 + 1 + VarintLength(status.message().size()) +
                  status.message().size() + VarintLength(body.size()) +
                  body.size() + VarintLength(retry_after));
  PutFixed64(&payload, request_id);
  payload.push_back(static_cast<char>(status.code()));
  PutLengthPrefixed(&payload, status.message());
  PutLengthPrefixed(&payload, body);
  PutVarint64(&payload, retry_after);
  const size_t frame_bytes = FramePayloadBytes(reply);
  if (!body.empty() && frame_bytes > network->max_frame_bytes()) {
    // The transport would drop it, leaving the caller to wait out its
    // timeout and a retrying caller to run the method again. The error
    // carries no body, so this recurses at most once.
    Reply(network, self_id, reply_to, request_id,
          Status::InvalidArgument(
              "rpc reply of " + std::to_string(frame_bytes) +
              " bytes exceeds the frame cap of " +
              std::to_string(network->max_frame_bytes()) + " bytes"),
          "");
    return;
  }
  network->Send(std::move(reply));
}

void RpcDispatcher::Execute(Network* network, const std::string& self_id,
                            const std::string& reply_to, uint64_t request_id,
                            const std::string& method, const Slice& body) {
  auto deferred = deferred_methods_.find(method);
  if (deferred != deferred_methods_.end()) {
    const int64_t timeout_at =
        SteadyNowMillis() + deferred->second.timeout_millis;
    std::pair<int64_t, uint64_t> key;
    {
      MutexLock lock(&outstanding_->mu);
      key = {timeout_at, outstanding_->next_seq++};
      outstanding_->calls.emplace(
          key, ReplyTo{network, self_id, reply_to, request_id});
    }
    {
      MutexLock lock(&mu_);
      stats_.executed++;
      ScheduleSweepLocked(timeout_at);
    }
    std::shared_ptr<Outstanding> outstanding = outstanding_;
    deferred->second.method(
        body, [outstanding, key](const Status& status,
                                 const std::string& response) {
          ReplyTo to;
          {
            MutexLock lock(&outstanding->mu);
            auto it = outstanding->calls.find(key);
            if (it == outstanding->calls.end()) return;  // answered already
            to = std::move(it->second);
            outstanding->calls.erase(it);
          }
          Reply(to, status, response);
        });
    return;
  }
  Status status;
  std::string response_body;
  auto it = methods_.find(method);
  if (it == methods_.end()) {
    status = Status::NotFound("no RPC method " + method);
  } else {
    status = it->second(body, &response_body);
  }
  {
    MutexLock lock(&mu_);
    stats_.executed++;
  }
  Reply(network, self_id, reply_to, request_id, status, response_body);
}

void RpcDispatcher::ScheduleSweepLocked(int64_t at_millis) {
  if (sweep_at_millis_ == 0 || at_millis < sweep_at_millis_) {
    sweep_at_millis_ = at_millis;
    cv_.NotifyOne();  // a waiting worker re-arms its timed wait
  }
}

bool RpcDispatcher::ClaimSweepLocked() {
  if (sweep_at_millis_ == 0 || SteadyNowMillis() < sweep_at_millis_) {
    return false;
  }
  sweep_at_millis_ = 0;  // SweepDeferred schedules the next one
  return true;
}

void RpcDispatcher::SweepDeferred() {
  std::vector<ReplyTo> expired;
  int64_t next = 0;
  {
    MutexLock lock(&outstanding_->mu);
    auto& calls = outstanding_->calls;
    const int64_t now = SteadyNowMillis();
    while (!calls.empty() && calls.begin()->first.first <= now) {
      expired.push_back(std::move(calls.begin()->second));
      calls.erase(calls.begin());
    }
    if (!calls.empty()) next = calls.begin()->first.first;
  }
  {
    MutexLock lock(&mu_);
    stats_.deferred_timed_out += expired.size();
    if (next != 0) ScheduleSweepLocked(next);
  }
  for (const auto& to : expired) {
    Reply(to, Status::TimedOut("deferred rpc not answered within timeout"),
          "");
  }
}

void RpcDispatcher::WorkerLoop() {
  while (true) {
    QueuedRequest request;
    bool have_request = false;
    bool sweep = false;
    bool expired = false;
    {
      MutexLock lock(&mu_);
      while (running_ && queue_.empty() && !(sweep = ClaimSweepLocked())) {
        if (sweep_at_millis_ == 0) {
          cv_.Wait(mu_);
        } else {
          cv_.WaitFor(mu_, std::chrono::milliseconds(std::max<int64_t>(
                               sweep_at_millis_ - SteadyNowMillis(), 1)));
        }
      }
      if (!running_) return;
      if (!sweep) sweep = ClaimSweepLocked();
      if (!queue_.empty()) {
        request = std::move(queue_.front());
        queue_.pop_front();
        have_request = true;
        expired = request.deadline_millis > 0 &&
                  SteadyNowMillis() > request.deadline_millis;
        if (expired) stats_.expired_in_queue++;
      }
    }
    if (sweep) SweepDeferred();
    if (!have_request) continue;
    if (expired) {
      Reply(request.network, request.self_id, request.reply_to,
            request.request_id,
            Status::TimedOut("deadline expired in rpc queue"), "");
      continue;
    }
    Execute(request.network, request.self_id, request.reply_to,
            request.request_id, request.method, Slice(request.body));
  }
}

void RpcDispatcher::HandleMessage(Network* network,
                                  const std::string& self_id,
                                  const Message& message) {
  Slice input(message.payload);
  uint64_t request_id, budget_millis;
  Slice method_name, body;
  if (!GetFixed64(&input, &request_id) ||
      !GetFixed64(&input, &budget_millis) ||
      !GetLengthPrefixed(&input, &method_name) ||
      !GetLengthPrefixed(&input, &body)) {
    return;  // malformed request: nothing to answer
  }
  // Re-anchor the client's remaining-time budget against OUR steady clock.
  // The wire never carries absolute instants: the two processes' steady
  // clocks share no epoch, so comparing a remote instant against
  // SteadyNowMillis() here would be garbage (and was, before budgets —
  // every cross-process request looked expired or immortal at random).
  const int64_t deadline_millis =
      budget_millis > 0
          ? SteadyNowMillis() + static_cast<int64_t>(budget_millis)
          : 0;

  enum class Action { kExecuteInline, kQueued, kRejected };
  Action action;
  int64_t hint = 0;
  bool sweep = false;
  {
    MutexLock lock(&mu_);
    stats_.received++;
    if (!running_) {
      action = Action::kExecuteInline;
      sweep = ClaimSweepLocked();  // no workers: arrivals sweep timeouts
    } else if (queue_.size() >= options_.max_queue) {
      stats_.rejected_queue_full++;
      hint = options_.retry_after_base_millis * 2;
      action = Action::kRejected;
    } else {
      queue_.push_back(QueuedRequest{network, self_id, message.from,
                                     request_id, deadline_millis,
                                     method_name.ToString(), body.ToString()});
      cv_.NotifyOne();
      action = Action::kQueued;
    }
  }
  if (sweep) SweepDeferred();
  switch (action) {
    case Action::kQueued:
      break;
    case Action::kExecuteInline:
      Execute(network, self_id, message.from, request_id,
              method_name.ToString(), body);
      break;
    case Action::kRejected:
      Reply(network, self_id, message.from, request_id,
            Status::ResourceExhausted("rpc server queue full", hint), "");
      break;
  }
}

RpcServerStats RpcDispatcher::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

RpcClient::RpcClient(std::string client_id, Network* network)
    : client_id_(std::move(client_id)), network_(network) {
  // A reply only fills in its pending call and wakes the caller, so it is
  // taken on the receiving thread rather than queued for a delivery thread.
  network_->RegisterWithInline(
      client_id_, [this](const Message& m) { OnResponse(m.type, m.payload); },
      [this](Message* m) {
        OnResponse(m->type, std::move(m->payload));
        return true;
      });
  watcher_token_ = network_->AddPeerWatcher(
      [this](const std::string& peer, bool up) {
        if (!up) OnPeerDown(peer);
      });
}

RpcClient::~RpcClient() {
  network_->RemovePeerWatcher(watcher_token_);
  network_->Unregister(client_id_);
}

void RpcClient::OnPeerDown(const std::string& peer) {
  MutexLock lock(&mu_);
  bool failed_any = false;
  for (auto& [id, pending] : pending_) {
    if (pending.done || pending.server != peer) continue;
    pending.done = true;
    pending.status =
        Status::Unavailable("peer " + peer + " down (connection lost)");
    failed_any = true;
  }
  if (failed_any) cv_.NotifyAll();
}

void RpcClient::OnResponse(const std::string& type, std::string payload) {
  if (type != RpcDispatcher::kResponseType) return;
  Slice input(payload);
  uint64_t request_id;
  if (!GetFixed64(&input, &request_id)) return;
  if (input.empty()) return;
  auto code = static_cast<Status::Code>((input)[0]);
  input.remove_prefix(1);
  Slice status_msg, body;
  if (!GetLengthPrefixed(&input, &status_msg) ||
      !GetLengthPrefixed(&input, &body)) {
    return;
  }
  uint64_t retry_after = 0;
  GetVarint64(&input, &retry_after);  // absent in malformed/legacy frames

  MutexLock lock(&mu_);
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;  // timed out already
  it->second.done = true;
  switch (code) {
    case Status::Code::kOk:
      it->second.status = Status::OK();
      break;
    case Status::Code::kNotFound:
      it->second.status = Status::NotFound(status_msg.ToStringView());
      break;
    case Status::Code::kCorruption:
      it->second.status = Status::Corruption(status_msg.ToStringView());
      break;
    case Status::Code::kInvalidArgument:
      it->second.status = Status::InvalidArgument(status_msg.ToStringView());
      break;
    case Status::Code::kIOError:
      it->second.status = Status::IOError(status_msg.ToStringView());
      break;
    case Status::Code::kNotSupported:
      it->second.status = Status::NotSupported(status_msg.ToStringView());
      break;
    case Status::Code::kAborted:
      it->second.status = Status::Aborted(status_msg.ToStringView());
      break;
    case Status::Code::kBusy:
      it->second.status = Status::Busy(status_msg.ToStringView());
      break;
    case Status::Code::kVerificationFailed:
      it->second.status =
          Status::VerificationFailed(status_msg.ToStringView());
      break;
    case Status::Code::kTimedOut:
      it->second.status = Status::TimedOut(status_msg.ToStringView());
      break;
    case Status::Code::kResourceExhausted:
      it->second.status =
          Status::ResourceExhausted(status_msg.ToStringView(),
                                    static_cast<int64_t>(retry_after));
      break;
    case Status::Code::kUnavailable:
      it->second.status = Status::Unavailable(status_msg.ToStringView());
      break;
  }
  // Keep the body in the payload's own buffer instead of copying it out.
  const size_t body_offset = static_cast<size_t>(body.data() - payload.data());
  const size_t body_size = body.size();
  payload.erase(0, body_offset);
  payload.resize(body_size);
  it->second.body = std::move(payload);
  cv_.NotifyAll();
}

Status RpcClient::Call(const std::string& server, const std::string& method,
                       const std::string& request, std::string* response,
                       int64_t timeout_millis) {
  uint64_t request_id;
  {
    MutexLock lock(&mu_);
    request_id = next_request_id_++;
    pending_[request_id].server = server;
  }
  const int64_t wait_deadline = SteadyNowMillis() + timeout_millis;
  std::string payload;
  PutFixed64(&payload, request_id);
  // Deadline propagation as a remaining-time budget: the server re-anchors
  // it against its own steady clock (absolute instants don't survive a
  // process boundary) and sheds the request once it runs out in the queue.
  PutFixed64(&payload, static_cast<uint64_t>(std::max<int64_t>(
                           timeout_millis, 0)));
  PutLengthPrefixed(&payload, method);
  PutLengthPrefixed(&payload, request);
  network_->Send(
      Message{RpcDispatcher::kRequestType, client_id_, server, payload});

  MutexLock lock(&mu_);
  bool got;
  while (!(got = pending_[request_id].done)) {
    int64_t remaining = wait_deadline - SteadyNowMillis();
    if (remaining <= 0) break;
    cv_.WaitFor(mu_, std::chrono::milliseconds(remaining));
  }
  Pending pending = std::move(pending_[request_id]);
  pending_.erase(request_id);
  if (!got) {
    return Status::TimedOut("no response from " + server + " for " + method);
  }
  if (!pending.status.ok()) return pending.status;
  *response = std::move(pending.body);
  return Status::OK();
}

bool RpcClient::IsRetryable(const Status& status) {
  return status.IsTimedOut() || status.IsIOError() || status.IsBusy() ||
         status.IsResourceExhausted() || status.IsUnavailable();
}

Status RpcClient::Call(const std::string& server, const std::string& method,
                       const std::string& request, std::string* response,
                       const RetryPolicy& policy) {
  const int64_t start = SteadyNowMillis();
  const int64_t deadline = policy.overall_deadline_millis > 0
                               ? start + policy.overall_deadline_millis
                               : 0;
  int64_t backoff = std::max<int64_t>(policy.initial_backoff_millis, 1);
  Status last = Status::TimedOut("no attempts allowed by retry policy");
  const int attempts = std::max(policy.max_attempts, 1);
  for (int attempt = 0; attempt < attempts; attempt++) {
    int64_t attempt_timeout = policy.attempt_timeout_millis;
    if (deadline > 0) {
      int64_t remaining = deadline - SteadyNowMillis();
      if (remaining <= 0) {
        return Status::TimedOut("retry deadline exhausted calling " + server +
                                "." + method + ": " + last.message());
      }
      attempt_timeout = std::min(attempt_timeout, remaining);
    }
    if (attempt > 0) retries_.fetch_add(1, std::memory_order_relaxed);
    last = Call(server, method, request, response, attempt_timeout);
    if (last.ok() || !IsRetryable(last)) return last;
    if (attempt + 1 == attempts) break;

    // Exponential backoff with jitter; never sleep past the deadline.
    double factor = 1.0;
    if (policy.jitter > 0) {
      MutexLock lock(&mu_);
      factor += policy.jitter * (2.0 * jitter_rng_.NextDouble() - 1.0);
    }
    int64_t sleep_ms = static_cast<int64_t>(
        static_cast<double>(backoff) * std::max(factor, 0.0));
    // A server-supplied retry_after hint overrides the client-side guess:
    // the server knows when its queue will have drained.
    if (last.retry_after_millis() > 0) sleep_ms = last.retry_after_millis();
    if (deadline > 0) {
      int64_t remaining = deadline - SteadyNowMillis();
      if (remaining <= 0) break;
      sleep_ms = std::min(sleep_ms, remaining);
    }
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    backoff = std::min<int64_t>(
        static_cast<int64_t>(static_cast<double>(backoff) *
                             std::max(policy.backoff_multiplier, 1.0)),
        std::max<int64_t>(policy.max_backoff_millis, 1));
  }
  if (deadline > 0 && SteadyNowMillis() >= deadline && IsRetryable(last)) {
    return Status::TimedOut("retry deadline exhausted calling " + server +
                            "." + method + ": " + last.message());
  }
  return last;
}

}  // namespace sebdb
