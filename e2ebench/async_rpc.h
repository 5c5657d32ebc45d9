// Non-blocking RPC sender for the open-loop generator. RpcClient::Call
// blocks its thread until the reply, so an open loop built on it would need
// a thread per request in flight and would measure the scheduler. This
// sender speaks the same wire format (network/rpc.h) over the public
// Network::Register/Send API: Send returns at once, replies are matched by
// request id on the network's delivery thread, and a request that outlives
// its timeout completes as TimedOut when ExpireOverdue next runs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "common/status.h"
#include "network/network.h"

namespace sebdb {
namespace e2e {

struct RpcReply {
  Status::Code code = Status::Code::kOk;
  std::string message;
  std::string body;
  /// True when no reply arrived before the client-side timeout.
  bool client_timeout = false;
};

class AsyncRpc {
 public:
  /// Runs on the network delivery thread or the ExpireOverdue caller.
  using Callback = std::function<void(const RpcReply&)>;

  AsyncRpc(std::string client_id, Network* network);
  ~AsyncRpc();
  AsyncRpc(const AsyncRpc&) = delete;
  AsyncRpc& operator=(const AsyncRpc&) = delete;

  Status Start();

  /// `budget_millis` travels on the wire (the server sheds the request once
  /// it runs out in the queue); `timeout_millis` bounds the client's wait.
  void Send(const std::string& server, const std::string& method,
            const std::string& body, int64_t budget_millis,
            int64_t timeout_millis, Callback done);

  /// Completes every request past its timeout.
  void ExpireOverdue(int64_t now_millis);

 private:
  struct Pending {
    int64_t deadline_millis = 0;
    Callback done;
  };
  void OnMessage(const Message& message);

  const std::string client_id_;
  Network* network_;
  bool registered_ = false;
  std::mutex mu_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, Pending> pending_;  // ids rise with send time
};

/// Steady-clock milliseconds.
int64_t NowMillis();

}  // namespace e2e
}  // namespace sebdb
