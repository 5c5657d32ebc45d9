// Real-socket implementation of the Network seam (DESIGN.md §15). One
// TcpNetwork instance per OS process: it listens on one address, keeps a
// supervised outbound connection to every configured peer, and serves any
// number of inbound connections (other full nodes, remote thin clients).
//
// Connection supervision, per configured peer:
//   - a supervisor thread reconnects with jittered exponential backoff and
//     never gives up while the network is up;
//   - application-level heartbeats ("net.ping"/"net.pong", answered on the
//     same socket) bound silence: a link with no valid inbound frame for
//     peer_down_after_millis is declared down, closed, and re-dialed;
//   - writes go through a bounded per-peer send queue (shed oldest-first
//     into NetworkStats::overflow_drops) and a write deadline, so one slow
//     or SIGSTOPped peer can never wedge the process;
//   - peer up/down transitions fire the Network peer watchers (RpcClient
//     fail-fast, gossip catch-up rounds).
//
// Inbound bytes are hostile until proven otherwise: every frame passes the
// strict codec in network/frame.h; any violation counts frames_rejected and
// costs the sender its connection — never the process. Delivery semantics
// match SimNetwork: at-most-once, per-sender FIFO while a link is up, silent
// drops while it is not (gossip/RPC retries own reliability).
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
#include "common/status.h"
#include "common/thread_annotations.h"
#include "network/frame.h"
#include "network/network.h"

namespace sebdb {

/// One supervised remote peer (a full node of the cluster).
struct TcpPeer {
  std::string id;
  std::string host;
  uint16_t port = 0;
};

struct TcpNetworkOptions {
  /// Name this process speaks as on transport-level frames (heartbeats).
  /// User messages carry their own `from`.
  std::string local_id = "local";
  std::string listen_host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back via listen_port().
  uint16_t listen_port = 0;
  /// Peers this process supervises outbound connections to. Exclude the
  /// process's own id — Send prefers local endpoints anyway.
  std::vector<TcpPeer> peers;

  /// Strict cap the frame decoder enforces before allocating.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Bounded per-peer send queue (messages); oldest shed first.
  size_t max_send_queue_per_peer = 4096;
  /// Bounded per-endpoint delivery queue (messages); oldest shed first.
  /// 0 = unbounded (matches SimNetwork's default).
  size_t max_delivery_queue_per_endpoint = 8192;

  /// An idle link sends "net.ping" this often; any valid inbound frame
  /// counts as life.
  int64_t heartbeat_interval_millis = 250;
  /// No valid inbound frame for this long declares the peer down and
  /// recycles the connection. Must comfortably exceed the heartbeat
  /// interval.
  int64_t peer_down_after_millis = 1500;
  int64_t connect_timeout_millis = 1000;
  /// A single frame write stalled past this closes the connection (the
  /// bounded send queue sheds behind it).
  int64_t write_deadline_millis = 5000;
  int64_t reconnect_backoff_initial_millis = 50;
  int64_t reconnect_backoff_max_millis = 2000;
  /// Backoff sleeps are scaled by a uniform factor in [1-j, 1+j] so a
  /// restarted node's peers do not re-dial in lockstep.
  double reconnect_jitter = 0.5;
  uint64_t seed = 0x7cb5ebdbULL;

  /// Socket-level fault shim (bench_net, tests): consulted for every user
  /// frame leaving on a supervised link. `drop` loses the frame (counted as
  /// random_drops), `delay_millis` stalls the link's writer first (latency
  /// injection), `reset` closes the connection mid-traffic. Never set in
  /// production.
  struct Fault {
    bool drop = false;
    bool reset = false;
    int64_t delay_millis = 0;
  };
  std::function<Fault(const Message&)> send_fault;
};

/// Socket-layer counters surfaced next to NetworkStats.
struct TcpTransportStats {
  uint64_t connects_attempted = 0;
  uint64_t connects_ok = 0;
  uint64_t accepts = 0;
  uint64_t disconnects = 0;       // established connections lost (any cause)
  uint64_t peer_down_events = 0;  // supervised links declared down
  uint64_t heartbeats_sent = 0;
  uint64_t stale_closes = 0;      // closed by the silence bound
  uint64_t write_deadline_closes = 0;
  uint64_t oversize_send_drops = 0;  // local message exceeded the frame cap
  uint64_t bytes_received = 0;
};

class TcpNetwork : public Network {
 public:
  explicit TcpNetwork(TcpNetworkOptions options);
  ~TcpNetwork() override;
  TcpNetwork(const TcpNetwork&) = delete;
  TcpNetwork& operator=(const TcpNetwork&) = delete;

  /// Binds + listens + starts the accept thread and one supervisor per
  /// configured peer. Must be called before Register/Send.
  Status Start();

  /// The bound listen port (after Start; resolves listen_port == 0).
  uint16_t listen_port() const { return bound_port_; }

  // --- Network interface ---
  Status Register(const std::string& node_id, Handler handler) override;
  Status RegisterWithInline(const std::string& node_id, Handler handler,
                            InlineHandler take_inline) override;
  Status Unregister(const std::string& node_id) override;
  void Send(Message message) override;
  void Broadcast(const std::string& from, const std::string& type,
                 const std::string& payload) override;
  std::vector<std::string> Nodes() const override;
  NetworkStats stats() const override;
  size_t max_frame_bytes() const override { return options_.max_frame_bytes; }
  void Shutdown() override;
  uint64_t AddPeerWatcher(PeerWatcher watcher) override;
  void RemovePeerWatcher(uint64_t token) override;

  TcpTransportStats tcp_stats() const;

  /// True while the supervised link to `peer` is established and fresh.
  bool PeerUp(const std::string& peer) const;

 private:
  /// Local delivery endpoint — mirrors SimNetwork: one queue + one delivery
  /// thread per registered id, so handlers are invoked serially per
  /// endpoint. All mutable state guarded by the outer endpoints_mu_.
  struct Endpoint {
    Endpoint(Handler h, InlineHandler i)
        : handler(std::move(h)), take_inline(std::move(i)) {}
    Handler handler;
    InlineHandler take_inline;  // may be empty; immutable once registered
    std::deque<Message> queue;
    CondVar cv;
    std::thread worker;
    bool stop = false;
    int inline_calls = 0;  // take_inline calls in flight; pins the endpoint
  };

  /// One live or reconnecting connection. Supervised links own a supervisor
  /// thread that dials forever; inbound connections are created established
  /// and die once. Queue state is guarded by the link's own mu (leaf-ward
  /// of endpoints_mu_/routes_mu_; never taken while holding it the other
  /// way around).
  struct Link {
    Link() = default;
    bool supervised = false;
    std::string host;
    uint16_t port = 0;

    Mutex mu;
    CondVar cv;
    /// Supervised: configured id, never changes. Inbound: learned from the
    /// first valid frame's `from`.
    std::string peer_id GUARDED_BY(mu);
    std::deque<Message> queue GUARDED_BY(mu);        // user messages
    std::deque<std::string> control GUARDED_BY(mu);  // pre-encoded frames
    int fd GUARDED_BY(mu) = -1;
    bool stop GUARDED_BY(mu) = false;

    /// Held by whichever thread writes a frame to fd: the writer, or a
    /// sender that found the link idle and writes its message itself
    /// (saving the hand-off to the writer). Taken before mu.
    Mutex write_mu ACQUIRED_BEFORE(mu);
    /// The writer is exiting; inline senders must queue instead.
    bool closing GUARDED_BY(mu) = false;
    /// The bytes of a frame an inline send could not finish without
    /// blocking; the writer sends them before anything else.
    std::string unsent GUARDED_BY(mu);
    /// An inline send failed on the socket; the writer closes the link.
    bool send_failed GUARDED_BY(mu) = false;

    std::atomic<int64_t> last_recv_millis{0};
    std::atomic<bool> up{false};
    std::atomic<bool> reader_done{false};  // inbound reaping
    std::atomic<bool> writer_done{false};

    std::thread supervisor;  // supervised links only
    std::thread writer;      // inbound links only (supervised: inline)
    std::thread reader;      // inbound links only (supervised: per-dial)
  };

  // Socket lifecycle.
  Status BindAndListen();
  void AcceptLoop();
  int ConnectWithTimeout(const std::string& host, uint16_t port);
  void SupervisorLoop(Link* link);
  /// Drains link->queue/control onto fd until error/stale/stop. Returns the
  /// close reason for stats.
  enum class CloseReason { kStop, kError, kStale, kWriteDeadline, kReset };
  CloseReason WriterLoop(Link* link, int fd);
  /// WriterLoop's body; WriterLoop then fences off inline senders.
  CloseReason DrainLink(Link* link, int fd);
  void ReaderLoop(Link* link, int fd);
  bool ReadFully(int fd, char* buffer, size_t n);
  /// Writes `first` then `second`. False on error or deadline; *timed_out
  /// distinguishes the two.
  bool WriteFully(int fd, Slice first, Slice second, bool* timed_out);
  /// EncodeFrameHead, or false (counted as an oversize drop, nothing
  /// encoded) when the frame would exceed max_frame_bytes.
  bool EncodeHeadWithinCap(const Message& message, std::string* head);
  /// True, with link->write_mu held and *fd set, when this thread may write
  /// to the link's socket itself: the link is up, its writer is not
  /// exiting, and nothing is queued ahead. False, holding nothing, else.
  bool TakeIdleSocket(Link* link, int* fd) TRY_ACQUIRE(true, link->write_mu);
  /// Writes `message` to fd without blocking; the writer thread finishes a
  /// partial frame, or closes the link on a socket error. Releases write_mu.
  void WriteInline(Link* link, int fd, Message message)
      RELEASE(link->write_mu);
  /// Sleeps the current (jittered, then doubled) backoff; wakes early on
  /// stop/shutdown.
  void SleepBackoff(Link* link, int64_t* backoff_millis);

  // Frame dispatch.
  void HandleIncoming(Link* link, Message message);
  /// Queues onto the local endpoint for message->to, consuming *message;
  /// false (message untouched) if no such endpoint exists.
  bool DeliverLocal(Message* message);
  /// DeliverLocal for a message read off a connection: offers it to the
  /// endpoint's take_inline hook on this thread first.
  bool DeliverFromPeer(Message* message);
  /// Queues onto `ep` for its delivery thread. Requires endpoints_mu_.
  void QueueOnEndpointLocked(Endpoint* ep, Message* message)
      REQUIRES(endpoints_mu_);
  void EndpointWorkerLoop(Endpoint* endpoint);
  void QueueControl(Link* link, const Message& message);
  void EnqueueOnLink(Link* link, Message message);

  // Routing.
  Link* FindSupervised(const std::string& peer_id);
  void LearnRoute(const std::string& from, Link* link);
  void DropRoutes(Link* link);

  void NotifyPeerWatchers(const std::string& peer, bool up);
  void ReapInboundLocked() REQUIRES(inbound_mu_);
  void CloseLinkSocket(Link* link);

  TcpNetworkOptions options_;
  std::atomic<bool> started_{false};
  std::atomic<bool> shutdown_{false};
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::thread accept_thread_;

  std::vector<std::unique_ptr<Link>> supervised_;  // fixed after Start

  mutable Mutex endpoints_mu_;
  std::map<std::string, std::unique_ptr<Endpoint>> endpoints_
      GUARDED_BY(endpoints_mu_);

  mutable Mutex inbound_mu_;
  std::vector<std::unique_ptr<Link>> inbound_ GUARDED_BY(inbound_mu_);

  mutable Mutex routes_mu_;
  std::map<std::string, Link*> routes_ GUARDED_BY(routes_mu_);

  mutable Mutex watchers_mu_;
  uint64_t next_watcher_token_ GUARDED_BY(watchers_mu_) = 1;
  std::map<uint64_t, PeerWatcher> watchers_ GUARDED_BY(watchers_mu_);

  mutable Mutex stats_mu_;  // leaf lock: never hold while taking another
  NetworkStats stats_ GUARDED_BY(stats_mu_);
  TcpTransportStats tcp_stats_ GUARDED_BY(stats_mu_);
  Random backoff_rng_ GUARDED_BY(stats_mu_);
};

}  // namespace sebdb
