// Transport seam (DESIGN.md §15). Every component that talks to peers —
// gossip, RPC, consensus, repair — holds a Network*, never a concrete
// implementation. Two implementations exist with deliberately identical
// delivery semantics (at-most-once, per-sender FIFO while a link is up,
// silent drops when it is not):
//   - SimNetwork: in-process, deterministic with zero latency/loss. Every
//     existing test and the chaos/soak matrices run on it.
//   - TcpNetwork: real sockets, one instance per OS process, with per-peer
//     connection supervision (reconnect backoff, heartbeats, bounded send
//     queues). sebdb_server and the multi-process cluster harness run on it.
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "network/message.h"

namespace sebdb {

struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  /// Total drops; always equals unreachable_drops + link_drops +
  /// random_drops + overflow_drops.
  uint64_t messages_dropped = 0;
  uint64_t bytes_sent = 0;
  /// Destination was never registered (or already unregistered), and no
  /// route to it is known.
  uint64_t unreachable_drops = 0;
  /// Swallowed by a down link (SimNetwork partition, or a TCP connection
  /// that is currently broken and reconnecting).
  uint64_t link_drops = 0;
  /// Lost to probabilistic loss (SimNetwork drop_rate, TCP fault shim).
  uint64_t random_drops = 0;
  /// Shed oldest-first by a bounded queue (delivery or send side).
  uint64_t overflow_drops = 0;
  /// Inbound frames rejected by strict validation (bad magic/CRC/length/
  /// type). Always 0 on SimNetwork — in-process messages cannot corrupt.
  uint64_t frames_rejected = 0;
};

class Network {
 public:
  using Handler = std::function<void(const Message&)>;
  /// Receiving-thread hook (see RegisterWithInline): returns true when it
  /// has fully handled the message, and may move from it only then.
  using InlineHandler = std::function<bool(Message*)>;
  /// Peer liveness observation: `up` flips true when a supervised connection
  /// (or a registered in-process endpoint) to `peer` becomes usable, false
  /// when it is lost. Watchers run outside the network's internal locks but
  /// on its threads — keep them cheap and never call back into Send
  /// synchronously with long work.
  using PeerWatcher = std::function<void(const std::string& peer, bool up)>;

  virtual ~Network() = default;

  /// Registers a local endpoint; its handler runs on a delivery thread owned
  /// by the network (handlers must be thread-safe w.r.t. the caller's own
  /// state, and are invoked serially per endpoint).
  virtual Status Register(const std::string& node_id, Handler handler) = 0;
  /// Register, plus a hook that saves a thread hand-off: a transport with
  /// receiving threads (TcpNetwork) offers each message that arrives from a
  /// remote peer to `take_inline` on the thread that read it, and queues it
  /// for `handler` only when the hook returns false. Meant for messages that
  /// need no more than a lock and a queue push (RPC requests and replies).
  /// The hook must be brief and thread-safe, is not serialized with
  /// `handler`, and may run after Unregister has begun but never after it
  /// returns. Transports without receiving threads (SimNetwork) hand every
  /// message to `handler`, so `handler` must accept everything the hook does.
  virtual Status RegisterWithInline(const std::string& node_id,
                                    Handler handler,
                                    InlineHandler take_inline) {
    (void)take_inline;
    return Register(node_id, std::move(handler));
  }
  virtual Status Unregister(const std::string& node_id) = 0;

  /// Queues a message for delivery. Unknown destinations and down links
  /// swallow the message (like a real network) — reliability is the job of
  /// the protocols above (gossip anti-entropy, RPC retries).
  virtual void Send(Message message) = 0;

  /// Sends to every known endpoint except the sender. On SimNetwork "known"
  /// means registered; on TcpNetwork it means every supervised peer plus
  /// local endpoints.
  virtual void Broadcast(const std::string& from, const std::string& type,
                         const std::string& payload) = 0;

  /// Ids this network can currently address (sorted).
  virtual std::vector<std::string> Nodes() const = 0;

  virtual NetworkStats stats() const = 0;

  /// Largest frame payload (FramePayloadBytes in network/frame.h) the
  /// transport sends; it drops a larger message instead. RpcDispatcher
  /// answers an over-cap reply with an error rather than let it vanish.
  /// In-process transports carry any size.
  virtual size_t max_frame_bytes() const {
    return std::numeric_limits<size_t>::max();
  }

  virtual void Shutdown() = 0;

  /// Subscribes to peer up/down transitions; returns a token for
  /// RemovePeerWatcher. SimNetwork reports endpoint register/unregister;
  /// TcpNetwork reports supervised-connection establishment and loss
  /// (heartbeat timeout, reset, kill -9 on the far side). Feed this into
  /// fail-fast paths (RpcClient) and catch-up triggers (gossip round on
  /// peer-up) — never into correctness decisions, it is advisory.
  virtual uint64_t AddPeerWatcher(PeerWatcher watcher) = 0;
  virtual void RemovePeerWatcher(uint64_t token) = 0;
};

}  // namespace sebdb
