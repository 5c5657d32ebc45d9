#include "async_rpc.h"

#include <chrono>
#include <vector>

#include "common/coding.h"
#include "network/rpc.h"

namespace sebdb {
namespace e2e {

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

AsyncRpc::AsyncRpc(std::string client_id, Network* network)
    : client_id_(std::move(client_id)), network_(network) {}

AsyncRpc::~AsyncRpc() {
  if (registered_) network_->Unregister(client_id_);
}

Status AsyncRpc::Start() {
  Status s = network_->Register(
      client_id_, [this](const Message& message) { OnMessage(message); });
  registered_ = s.ok();
  return s;
}

void AsyncRpc::Send(const std::string& server, const std::string& method,
                    const std::string& body, int64_t budget_millis,
                    int64_t timeout_millis, Callback done) {
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    pending_[id] = Pending{NowMillis() + timeout_millis, std::move(done)};
  }
  std::string payload;
  PutFixed64(&payload, id);
  PutFixed64(&payload, static_cast<uint64_t>(budget_millis));
  PutLengthPrefixed(&payload, method);
  PutLengthPrefixed(&payload, body);
  network_->Send(
      Message{RpcDispatcher::kRequestType, client_id_, server, payload});
}

void AsyncRpc::OnMessage(const Message& message) {
  if (message.type != RpcDispatcher::kResponseType) return;
  Slice input(message.payload);
  uint64_t id;
  Slice status_msg, body;
  if (!GetFixed64(&input, &id) || input.empty()) return;
  RpcReply reply;
  reply.code = static_cast<Status::Code>(input[0]);
  input.remove_prefix(1);
  if (!GetLengthPrefixed(&input, &status_msg) ||
      !GetLengthPrefixed(&input, &body)) {
    return;
  }
  Callback done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(id);
    if (it == pending_.end()) return;  // already expired
    done = std::move(it->second.done);
    pending_.erase(it);
  }
  reply.message = status_msg.ToString();
  reply.body = body.ToString();
  done(reply);
}

void AsyncRpc::ExpireOverdue(int64_t now_millis) {
  std::vector<Callback> expired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.deadline_millis > now_millis) {
        ++it;
        continue;
      }
      expired.push_back(std::move(it->second.done));
      it = pending_.erase(it);
    }
  }
  RpcReply reply;
  reply.code = Status::Code::kTimedOut;
  reply.message = "no reply before the client timeout";
  reply.client_timeout = true;
  for (auto& done : expired) done(reply);
}

}  // namespace e2e
}  // namespace sebdb
