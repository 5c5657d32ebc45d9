#include "network/tcp_network.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>

#include "common/clock.h"

namespace sebdb {

namespace {

constexpr int kPollSliceMillis = 100;

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void TuneSocket(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// One sendmsg over `first` then `second`.
ssize_t SendGathered(int fd, const Slice& first, const Slice& second,
                     int flags) {
  iovec iov[2];
  size_t n = 0;
  for (const Slice* part : {&first, &second}) {
    if (part->empty()) continue;
    iov[n].iov_base = const_cast<char*>(part->data());
    iov[n].iov_len = part->size();
    n++;
  }
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = n;
  return ::sendmsg(fd, &msg, flags | MSG_NOSIGNAL);
}

/// Drops the first `n` bytes of `first` followed by `second`.
void Consume(size_t n, Slice* first, Slice* second) {
  const size_t from_first = std::min(n, first->size());
  first->remove_prefix(from_first);
  second->remove_prefix(n - from_first);
}

}  // namespace

TcpNetwork::TcpNetwork(TcpNetworkOptions options)
    : options_(std::move(options)), backoff_rng_(options_.seed) {}

TcpNetwork::~TcpNetwork() { Shutdown(); }

Status TcpNetwork::BindAndListen() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket: " + std::string(strerror(errno)));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.listen_port);
  if (::inet_pton(AF_INET, options_.listen_host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen host: " + options_.listen_host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::IOError("bind " + options_.listen_host + ":" +
                               std::to_string(options_.listen_port) + ": " +
                               strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 128) != 0) {
    Status s = Status::IOError("listen: " + std::string(strerror(errno)));
    ::close(fd);
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    Status s = Status::IOError("getsockname: " + std::string(strerror(errno)));
    ::close(fd);
    return s;
  }
  SetNonBlocking(fd);
  listen_fd_ = fd;
  bound_port_ = ntohs(bound.sin_port);
  return Status::OK();
}

Status TcpNetwork::Start() {
  if (started_.exchange(true)) return Status::Aborted("already started");
  Status s = BindAndListen();
  if (!s.ok()) return s;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  for (const TcpPeer& peer : options_.peers) {
    auto link = std::make_unique<Link>();
    link->supervised = true;
    link->host = peer.host;
    link->port = peer.port;
    {
      MutexLock lock(&link->mu);
      link->peer_id = peer.id;
    }
    Link* raw = link.get();
    supervised_.push_back(std::move(link));
    raw->supervisor = std::thread([this, raw] { SupervisorLoop(raw); });
  }
  return Status::OK();
}

void TcpNetwork::AcceptLoop() {
  while (!shutdown_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int n = ::poll(&pfd, 1, kPollSliceMillis);
    if (shutdown_.load(std::memory_order_acquire)) return;
    if (n <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    TuneSocket(fd);
    SetNonBlocking(fd);

    auto link = std::make_unique<Link>();
    link->supervised = false;
    link->last_recv_millis.store(SteadyNowMillis(), std::memory_order_release);
    link->up.store(true, std::memory_order_release);
    {
      MutexLock lock(&link->mu);
      link->fd = fd;
    }
    Link* raw = link.get();
    {
      MutexLock lock(&stats_mu_);
      tcp_stats_.accepts++;
    }
    raw->reader = std::thread([this, raw, fd] {
      ReaderLoop(raw, fd);
      ::shutdown(fd, SHUT_RDWR);
      DropRoutes(raw);
      raw->up.store(false, std::memory_order_release);
      {
        MutexLock lock(&raw->mu);
        raw->cv.NotifyAll();
      }
      raw->reader_done.store(true, std::memory_order_release);
    });
    raw->writer = std::thread([this, raw, fd] {
      WriterLoop(raw, fd);
      ::shutdown(fd, SHUT_RDWR);
      raw->up.store(false, std::memory_order_release);
      raw->writer_done.store(true, std::memory_order_release);
    });
    {
      MutexLock lock(&inbound_mu_);
      inbound_.push_back(std::move(link));
      ReapInboundLocked();
    }
  }
}

void TcpNetwork::ReapInboundLocked() {
  for (auto it = inbound_.begin(); it != inbound_.end();) {
    Link* link = it->get();
    if (link->reader_done.load(std::memory_order_acquire) &&
        link->writer_done.load(std::memory_order_acquire)) {
      if (link->reader.joinable()) link->reader.join();
      if (link->writer.joinable()) link->writer.join();
      int fd;
      {
        MutexLock lock(&link->mu);
        fd = link->fd;
        link->fd = -1;
      }
      if (fd >= 0) ::close(fd);
      {
        MutexLock lock(&stats_mu_);
        tcp_stats_.disconnects++;
      }
      it = inbound_.erase(it);
    } else {
      ++it;
    }
  }
}

int TcpNetwork::ConnectWithTimeout(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  SetNonBlocking(fd);
  TuneSocket(fd);

  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    int64_t deadline = SteadyNowMillis() + options_.connect_timeout_millis;
    while (true) {
      if (shutdown_.load(std::memory_order_acquire)) {
        ::close(fd);
        return -1;
      }
      int64_t now = SteadyNowMillis();
      if (now >= deadline) {
        ::close(fd);
        return -1;
      }
      pollfd pfd{fd, POLLOUT, 0};
      int n = ::poll(&pfd, 1,
                     static_cast<int>(std::min<int64_t>(deadline - now,
                                                        kPollSliceMillis)));
      if (n < 0 && errno != EINTR) {
        ::close(fd);
        return -1;
      }
      if (n > 0) break;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  return fd;
}

void TcpNetwork::SleepBackoff(Link* link, int64_t* backoff_millis) {
  double jitter;
  {
    MutexLock lock(&stats_mu_);
    jitter = 1.0 - options_.reconnect_jitter +
             2.0 * options_.reconnect_jitter * backoff_rng_.NextDouble();
  }
  auto sleep_millis = static_cast<int64_t>(
      static_cast<double>(*backoff_millis) * jitter);
  if (sleep_millis < 1) sleep_millis = 1;
  *backoff_millis =
      std::min(*backoff_millis * 2, options_.reconnect_backoff_max_millis);

  int64_t deadline = SteadyNowMillis() + sleep_millis;
  MutexLock lock(&link->mu);
  while (!link->stop && !shutdown_.load(std::memory_order_acquire)) {
    int64_t now = SteadyNowMillis();
    if (now >= deadline) return;
    link->cv.WaitFor(link->mu, std::chrono::milliseconds(deadline - now));
  }
}

void TcpNetwork::SupervisorLoop(Link* link) {
  int64_t backoff = options_.reconnect_backoff_initial_millis;
  std::string peer_id;
  {
    MutexLock lock(&link->mu);
    peer_id = link->peer_id;
  }
  while (!shutdown_.load(std::memory_order_acquire)) {
    {
      MutexLock lock(&link->mu);
      if (link->stop) return;
    }
    {
      MutexLock lock(&stats_mu_);
      tcp_stats_.connects_attempted++;
    }
    int fd = ConnectWithTimeout(link->host, link->port);
    if (fd < 0) {
      SleepBackoff(link, &backoff);
      continue;
    }
    {
      MutexLock lock(&stats_mu_);
      tcp_stats_.connects_ok++;
    }
    link->last_recv_millis.store(SteadyNowMillis(), std::memory_order_release);
    bool stopped = false;
    {
      MutexLock lock(&link->mu);
      if (link->stop) {
        stopped = true;
      } else {
        link->fd = fd;
        // Whatever an inline send left belongs to the old connection.
        link->closing = false;
        link->send_failed = false;
        link->unsent.clear();
      }
    }
    if (stopped) {
      ::close(fd);
      return;
    }
    link->up.store(true, std::memory_order_release);
    NotifyPeerWatchers(peer_id, /*up=*/true);
    backoff = options_.reconnect_backoff_initial_millis;

    std::thread reader([this, link, fd] { ReaderLoop(link, fd); });
    CloseReason reason = WriterLoop(link, fd);
    // Shut down both directions so the reader's blocked poll/read returns,
    // then close only after it has joined (never close an fd another thread
    // still uses — the descriptor number could be recycled under it).
    ::shutdown(fd, SHUT_RDWR);
    reader.join();
    link->up.store(false, std::memory_order_release);
    {
      MutexLock lock(&link->mu);
      link->fd = -1;
    }
    ::close(fd);
    {
      MutexLock lock(&stats_mu_);
      tcp_stats_.disconnects++;
      tcp_stats_.peer_down_events++;
      if (reason == CloseReason::kStale) tcp_stats_.stale_closes++;
      if (reason == CloseReason::kWriteDeadline) {
        tcp_stats_.write_deadline_closes++;
      }
    }
    NotifyPeerWatchers(peer_id, /*up=*/false);
    if (reason == CloseReason::kStop) return;
    SleepBackoff(link, &backoff);
  }
}

bool TcpNetwork::ReadFully(int fd, char* buffer, size_t n) {
  size_t done = 0;
  while (done < n) {
    if (shutdown_.load(std::memory_order_acquire)) return false;
    ssize_t r = ::recv(fd, buffer + done, n - done, 0);
    if (r > 0) {
      done += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) return false;  // orderly EOF
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, kPollSliceMillis) < 0 && errno != EINTR) return false;
  }
  return true;
}

bool TcpNetwork::WriteFully(int fd, Slice first, Slice second,
                            bool* timed_out) {
  *timed_out = false;
  int64_t deadline = SteadyNowMillis() + options_.write_deadline_millis;
  while (!first.empty() || !second.empty()) {
    if (shutdown_.load(std::memory_order_acquire)) return false;
    ssize_t w = SendGathered(fd, first, second, 0);
    if (w > 0) {
      Consume(static_cast<size_t>(w), &first, &second);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
    int64_t now = SteadyNowMillis();
    if (now >= deadline) {
      *timed_out = true;
      return false;
    }
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1,
               static_cast<int>(std::min<int64_t>(deadline - now,
                                                  kPollSliceMillis))) < 0 &&
        errno != EINTR) {
      return false;
    }
  }
  return true;
}

TcpNetwork::CloseReason TcpNetwork::WriterLoop(Link* link, int fd) {
  const CloseReason reason = DrainLink(link, fd);
  {
    MutexLock lock(&link->mu);
    link->closing = true;  // inline senders leave fd alone from here on
  }
  // The caller closes fd next: wait out an inline sender still writing.
  MutexLock socket(&link->write_mu);
  return reason;
}

TcpNetwork::CloseReason TcpNetwork::DrainLink(Link* link, int fd) {
  int64_t last_ping = SteadyNowMillis();
  while (true) {
    {
      MutexLock lock(&link->mu);
      while (!link->stop && !link->send_failed && link->unsent.empty() &&
             link->queue.empty() && link->control.empty()) {
        int64_t now = SteadyNowMillis();
        int64_t ping_due = last_ping + options_.heartbeat_interval_millis;
        int64_t stale_at =
            link->last_recv_millis.load(std::memory_order_acquire) +
            options_.peer_down_after_millis;
        int64_t next = std::min(ping_due, stale_at);
        if (now >= next) break;
        link->cv.WaitFor(link->mu, std::chrono::milliseconds(next - now));
      }
      if (link->stop || shutdown_.load(std::memory_order_acquire)) {
        return CloseReason::kStop;
      }
      if (link->send_failed) return CloseReason::kError;
    }
    // Take the socket before dequeuing, so an inline sender (which writes
    // only while the queue is empty) cannot overtake a dequeued message.
    MutexLock socket(&link->write_mu);
    Message message;
    std::string frame;  // a control frame or an inline send's unsent tail
    bool have_user = false;
    bool have_frame = false;
    {
      MutexLock lock(&link->mu);
      if (!link->unsent.empty()) {
        frame = std::move(link->unsent);
        link->unsent.clear();
        have_frame = true;
      } else if (!link->control.empty()) {
        frame = std::move(link->control.front());
        link->control.pop_front();
        have_frame = true;
      } else if (!link->queue.empty()) {
        message = std::move(link->queue.front());
        link->queue.pop_front();
        have_user = true;
      }
    }
    int64_t now = SteadyNowMillis();
    if (now - link->last_recv_millis.load(std::memory_order_acquire) >
        options_.peer_down_after_millis) {
      return CloseReason::kStale;
    }

    bool timed_out = false;
    if (have_frame) {
      if (!WriteFully(fd, Slice(frame), Slice(), &timed_out)) {
        return timed_out ? CloseReason::kWriteDeadline : CloseReason::kError;
      }
      continue;
    }
    if (have_user) {
      if (options_.send_fault && link->supervised) {
        TcpNetworkOptions::Fault fault = options_.send_fault(message);
        if (fault.delay_millis > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(fault.delay_millis));
        }
        if (fault.drop) {
          MutexLock lock(&stats_mu_);
          stats_.messages_dropped++;
          stats_.random_drops++;
          continue;
        }
        if (fault.reset) return CloseReason::kReset;
      }
      std::string head;
      if (!EncodeHeadWithinCap(message, &head)) continue;
      if (!WriteFully(fd, Slice(head), Slice(message.payload), &timed_out)) {
        return timed_out ? CloseReason::kWriteDeadline : CloseReason::kError;
      }
      continue;
    }
    // Queue still empty after the wait: heartbeat if due.
    if (now - last_ping >= options_.heartbeat_interval_millis) {
      std::string to;
      {
        MutexLock lock(&link->mu);
        to = link->peer_id.empty() ? "peer" : link->peer_id;
      }
      EncodeFrame(Message{"net.ping", options_.local_id, to, ""}, &frame);
      if (!WriteFully(fd, Slice(frame), Slice(), &timed_out)) {
        return timed_out ? CloseReason::kWriteDeadline : CloseReason::kError;
      }
      last_ping = now;
      MutexLock lock(&stats_mu_);
      tcp_stats_.heartbeats_sent++;
    }
  }
}

bool TcpNetwork::EncodeHeadWithinCap(const Message& message,
                                     std::string* head) {
  if (FramePayloadBytes(message) <= options_.max_frame_bytes) {
    EncodeFrameHead(message, head);
    return true;
  }
  // Our own message exceeds what the peer will accept; sending it would
  // just cost us the connection.
  MutexLock lock(&stats_mu_);
  stats_.messages_dropped++;
  tcp_stats_.oversize_send_drops++;
  return false;
}

bool TcpNetwork::TakeIdleSocket(Link* link, int* fd) {
  // Fault injection lives in the writer thread; keep every send there.
  if (options_.send_fault || !link->write_mu.TryLock()) return false;
  {
    MutexLock lock(&link->mu);
    // Write from this thread only when nothing is ahead of the message.
    if (!link->stop && !link->closing && !link->send_failed &&
        link->fd >= 0 && link->unsent.empty() && link->queue.empty() &&
        link->control.empty()) {
      *fd = link->fd;
      return true;
    }
  }
  link->write_mu.Unlock();
  return false;
}

void TcpNetwork::WriteInline(Link* link, int fd, Message message) {
  std::string head;
  if (!EncodeHeadWithinCap(message, &head)) {
    link->write_mu.Unlock();
    return;
  }
  Slice first(head), second(message.payload);
  ssize_t w;
  do {
    w = SendGathered(fd, first, second, MSG_DONTWAIT);
  } while (w < 0 && errno == EINTR);
  const bool failed = w < 0 && errno != EAGAIN && errno != EWOULDBLOCK;
  if (w > 0) Consume(static_cast<size_t>(w), &first, &second);
  if (failed || !first.empty() || !second.empty()) {
    // The writer thread finishes the frame (or closes the connection)
    // before it sends anything else.
    MutexLock lock(&link->mu);
    if (failed) {
      link->send_failed = true;
    } else {
      link->unsent.assign(first.data(), first.size());
      link->unsent.append(second.data(), second.size());
    }
    link->cv.NotifyAll();
  }
  link->write_mu.Unlock();
}

void TcpNetwork::ReaderLoop(Link* link, int fd) {
  char header[kFrameHeaderBytes];
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (!ReadFully(fd, header, kFrameHeaderBytes)) return;
    FrameHeader frame_header;
    Status s =
        DecodeFrameHeader(header, options_.max_frame_bytes, &frame_header);
    if (!s.ok()) {
      MutexLock lock(&stats_mu_);
      stats_.frames_rejected++;
      return;  // framing is lost; drop the connection, not the process
    }
    std::string payload(frame_header.payload_len, '\0');
    if (frame_header.payload_len > 0 &&
        !ReadFully(fd, payload.data(), payload.size())) {
      return;
    }
    Message message;  // takes over the payload buffer: no body copy
    s = DecodeFramePayload(&payload, frame_header.payload_crc, &message);
    if (!s.ok()) {
      MutexLock lock(&stats_mu_);
      stats_.frames_rejected++;
      return;
    }
    link->last_recv_millis.store(SteadyNowMillis(), std::memory_order_release);
    {
      MutexLock lock(&stats_mu_);
      tcp_stats_.bytes_received +=
          kFrameHeaderBytes + frame_header.payload_len;
    }
    HandleIncoming(link, std::move(message));
  }
}

void TcpNetwork::HandleIncoming(Link* link, Message message) {
  if (message.type == "net.ping") {
    // Answer on the SAME connection: between cluster nodes the reverse path
    // is the peer's own supervised link, so replying there would leave this
    // link's reader silent and trip the staleness bound.
    QueueControl(link, Message{"net.pong", options_.local_id,
                               std::move(message.from), ""});
    return;
  }
  if (message.type == "net.pong") return;  // life signal already recorded
  if (!link->supervised) LearnRoute(message.from, link);
  if (!DeliverFromPeer(&message)) {
    MutexLock lock(&stats_mu_);
    stats_.messages_dropped++;
    stats_.unreachable_drops++;
  }
}

void TcpNetwork::QueueControl(Link* link, const Message& message) {
  std::string frame;
  EncodeFrame(message, &frame);
  MutexLock lock(&link->mu);
  if (link->stop) return;
  // Control frames are tiny and self-renewing; a stuck writer sheds them.
  if (link->control.size() >= 64) link->control.pop_front();
  link->control.push_back(std::move(frame));
  link->cv.NotifyAll();
}

void TcpNetwork::EnqueueOnLink(Link* link, Message message) {
  MutexLock lock(&link->mu);
  if (link->stop) {
    MutexLock stats_lock(&stats_mu_);
    stats_.messages_dropped++;
    stats_.unreachable_drops++;
    return;
  }
  link->queue.push_back(std::move(message));
  if (options_.max_send_queue_per_peer > 0 &&
      link->queue.size() > options_.max_send_queue_per_peer) {
    link->queue.pop_front();
    MutexLock stats_lock(&stats_mu_);
    stats_.messages_dropped++;
    stats_.overflow_drops++;
  }
  link->cv.NotifyAll();
}

TcpNetwork::Link* TcpNetwork::FindSupervised(const std::string& peer_id) {
  for (const auto& link : supervised_) {
    MutexLock lock(&link->mu);
    if (link->peer_id == peer_id) return link.get();
  }
  return nullptr;
}

void TcpNetwork::LearnRoute(const std::string& from, Link* link) {
  if (from.empty() || from == options_.local_id) return;
  {
    MutexLock lock(&link->mu);
    if (link->peer_id.empty()) link->peer_id = from;
  }
  MutexLock lock(&routes_mu_);
  routes_[from] = link;
}

void TcpNetwork::DropRoutes(Link* link) {
  MutexLock lock(&routes_mu_);
  for (auto it = routes_.begin(); it != routes_.end();) {
    if (it->second == link) {
      it = routes_.erase(it);
    } else {
      ++it;
    }
  }
}

Status TcpNetwork::Register(const std::string& node_id, Handler handler) {
  return RegisterWithInline(node_id, std::move(handler), nullptr);
}

Status TcpNetwork::RegisterWithInline(const std::string& node_id,
                                      Handler handler,
                                      InlineHandler take_inline) {
  {
    MutexLock lock(&endpoints_mu_);
    if (shutdown_.load(std::memory_order_acquire)) {
      return Status::Aborted("network shut down");
    }
    if (endpoints_.contains(node_id)) {
      return Status::InvalidArgument("node already registered: " + node_id);
    }
    auto endpoint =
        std::make_unique<Endpoint>(std::move(handler), std::move(take_inline));
    Endpoint* ep = endpoint.get();
    endpoints_[node_id] = std::move(endpoint);
    ep->worker = std::thread([this, ep] { EndpointWorkerLoop(ep); });
  }
  NotifyPeerWatchers(node_id, /*up=*/true);
  return Status::OK();
}

Status TcpNetwork::Unregister(const std::string& node_id) {
  std::unique_ptr<Endpoint> endpoint;
  {
    MutexLock lock(&endpoints_mu_);
    auto it = endpoints_.find(node_id);
    if (it == endpoints_.end()) {
      return Status::NotFound("node not registered: " + node_id);
    }
    endpoint = std::move(it->second);
    endpoints_.erase(it);
    endpoint->stop = true;
    endpoint->cv.NotifyAll();
    while (endpoint->inline_calls > 0) endpoint->cv.Wait(endpoints_mu_);
  }
  if (endpoint->worker.joinable()) endpoint->worker.join();
  NotifyPeerWatchers(node_id, /*up=*/false);
  return Status::OK();
}

void TcpNetwork::EndpointWorkerLoop(Endpoint* endpoint) {
  endpoints_mu_.Lock();
  while (!endpoint->stop) {
    if (endpoint->queue.empty()) {
      endpoint->cv.Wait(endpoints_mu_);
      continue;
    }
    Message message = std::move(endpoint->queue.front());
    endpoint->queue.pop_front();
    Handler handler = endpoint->handler;
    endpoints_mu_.Unlock();
    {
      MutexLock lock(&stats_mu_);
      stats_.messages_delivered++;
    }
    handler(message);
    endpoints_mu_.Lock();
  }
  endpoints_mu_.Unlock();
}

bool TcpNetwork::DeliverLocal(Message* message) {
  MutexLock lock(&endpoints_mu_);
  auto it = endpoints_.find(message->to);
  if (it == endpoints_.end()) return false;
  QueueOnEndpointLocked(it->second.get(), message);
  return true;
}

bool TcpNetwork::DeliverFromPeer(Message* message) {
  Endpoint* ep;
  {
    MutexLock lock(&endpoints_mu_);
    auto it = endpoints_.find(message->to);
    if (it == endpoints_.end()) return false;
    ep = it->second.get();
    if (!ep->take_inline) {
      QueueOnEndpointLocked(ep, message);
      return true;
    }
    ep->inline_calls++;
  }
  // Outside the lock: the hook may Send. Unregister waits for inline_calls
  // to drain before it frees the endpoint.
  const bool taken = ep->take_inline(message);
  MutexLock lock(&endpoints_mu_);
  if (--ep->inline_calls == 0 && ep->stop) ep->cv.NotifyAll();
  if (taken) {
    MutexLock stats_lock(&stats_mu_);
    stats_.messages_delivered++;
    return true;
  }
  if (ep->stop) return false;  // unregistered meanwhile
  QueueOnEndpointLocked(ep, message);
  return true;
}

void TcpNetwork::QueueOnEndpointLocked(Endpoint* ep, Message* message) {
  ep->queue.push_back(std::move(*message));
  if (options_.max_delivery_queue_per_endpoint > 0 &&
      ep->queue.size() > options_.max_delivery_queue_per_endpoint) {
    ep->queue.pop_front();
    MutexLock stats_lock(&stats_mu_);
    stats_.messages_dropped++;
    stats_.overflow_drops++;
  }
  ep->cv.NotifyAll();
}

void TcpNetwork::Send(Message message) {
  if (shutdown_.load(std::memory_order_acquire)) return;
  {
    MutexLock lock(&stats_mu_);
    stats_.messages_sent++;
    stats_.bytes_sent += message.ByteSize();
  }
  // Routing preference: local endpoint, then a supervised peer link, then a
  // dynamic route learned from an inbound connection (remote thin clients).
  if (DeliverLocal(&message)) return;
  int fd;
  Link* link = FindSupervised(message.to);
  if (link != nullptr) {
    if (TakeIdleSocket(link, &fd)) {
      WriteInline(link, fd, std::move(message));
    } else {
      EnqueueOnLink(link, std::move(message));
    }
    return;
  }
  {
    // An inbound link is only destroyed after DropRoutes has removed it
    // from this map and its writer has exited. So the map lock pins the
    // Link for the enqueue, and past the map lock the write_mu of an idle
    // (not closing) link pins it: the writer's exit waits for write_mu.
    MutexLock lock(&routes_mu_);
    auto it = routes_.find(message.to);
    if (it == routes_.end()) {
      MutexLock stats_lock(&stats_mu_);
      stats_.messages_dropped++;
      stats_.unreachable_drops++;
      return;
    }
    link = it->second;
    if (!TakeIdleSocket(link, &fd)) {
      EnqueueOnLink(link, std::move(message));
      return;
    }
  }
  WriteInline(link, fd, std::move(message));
}

void TcpNetwork::Broadcast(const std::string& from, const std::string& type,
                           const std::string& payload) {
  std::set<std::string> targets;
  {
    MutexLock lock(&endpoints_mu_);
    for (const auto& [node_id, endpoint] : endpoints_) {
      if (node_id != from) targets.insert(node_id);
    }
  }
  for (const auto& link : supervised_) {
    MutexLock lock(&link->mu);
    if (link->peer_id != from) targets.insert(link->peer_id);
  }
  for (const auto& target : targets) {
    Send(Message{type, from, target, payload});
  }
}

std::vector<std::string> TcpNetwork::Nodes() const {
  std::set<std::string> names;
  {
    MutexLock lock(&endpoints_mu_);
    for (const auto& [node_id, endpoint] : endpoints_) names.insert(node_id);
  }
  for (const auto& link : supervised_) {
    if (link->up.load(std::memory_order_acquire)) {
      MutexLock lock(&link->mu);
      names.insert(link->peer_id);
    }
  }
  return {names.begin(), names.end()};
}

bool TcpNetwork::PeerUp(const std::string& peer) const {
  for (const auto& link : supervised_) {
    bool match;
    {
      MutexLock lock(&link->mu);
      match = (link->peer_id == peer);
    }
    if (match) return link->up.load(std::memory_order_acquire);
  }
  return false;
}

uint64_t TcpNetwork::AddPeerWatcher(PeerWatcher watcher) {
  MutexLock lock(&watchers_mu_);
  const uint64_t token = next_watcher_token_++;
  watchers_[token] = std::move(watcher);
  return token;
}

void TcpNetwork::RemovePeerWatcher(uint64_t token) {
  MutexLock lock(&watchers_mu_);
  watchers_.erase(token);
}

void TcpNetwork::NotifyPeerWatchers(const std::string& peer, bool up) {
  std::vector<PeerWatcher> watchers;
  {
    MutexLock lock(&watchers_mu_);
    watchers.reserve(watchers_.size());
    for (const auto& [token, watcher] : watchers_) watchers.push_back(watcher);
  }
  for (const auto& watcher : watchers) watcher(peer, up);
}

NetworkStats TcpNetwork::stats() const {
  MutexLock lock(&stats_mu_);
  return stats_;
}

TcpTransportStats TcpNetwork::tcp_stats() const {
  MutexLock lock(&stats_mu_);
  return tcp_stats_;
}

void TcpNetwork::Shutdown() {
  if (shutdown_.exchange(true)) return;
  if (!started_.load(std::memory_order_acquire)) return;

  // Accept thread first: no new inbound connections during teardown.
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  for (const auto& link : supervised_) {
    MutexLock lock(&link->mu);
    link->stop = true;
    if (link->fd >= 0) ::shutdown(link->fd, SHUT_RDWR);
    link->cv.NotifyAll();
  }
  for (const auto& link : supervised_) {
    if (link->supervisor.joinable()) link->supervisor.join();
  }

  {
    MutexLock lock(&inbound_mu_);
    for (const auto& link : inbound_) {
      MutexLock link_lock(&link->mu);
      link->stop = true;
      if (link->fd >= 0) ::shutdown(link->fd, SHUT_RDWR);
      link->cv.NotifyAll();
    }
    for (const auto& link : inbound_) {
      if (link->reader.joinable()) link->reader.join();
      if (link->writer.joinable()) link->writer.join();
      MutexLock link_lock(&link->mu);
      if (link->fd >= 0) {
        ::close(link->fd);
        link->fd = -1;
      }
    }
    inbound_.clear();
  }

  std::vector<std::unique_ptr<Endpoint>> endpoints;
  {
    MutexLock lock(&endpoints_mu_);
    for (auto& [node_id, endpoint] : endpoints_) {
      endpoint->stop = true;
      endpoint->cv.NotifyAll();
      endpoints.push_back(std::move(endpoint));
    }
    endpoints_.clear();
  }
  for (auto& endpoint : endpoints) {
    if (endpoint->worker.joinable()) endpoint->worker.join();
  }
}

}  // namespace sebdb
