// TcpNetwork in-process tests: frame codec strictness, real-socket
// delivery, connection supervision (reconnect, heartbeat staleness, peer
// watchers), bounded-queue shedding, hostile-bytes rejection, and RPC over
// TCP loopback. Multi-process behavior (kill -9, SIGSTOP) lives in
// cluster_test.cc.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/coding.h"
#include "network/frame.h"
#include "network/rpc.h"
#include "network/tcp_network.h"

namespace sebdb {
namespace {

Message MakeMessage(const std::string& type, const std::string& from,
                    const std::string& to, const std::string& payload) {
  return Message{type, from, to, payload};
}

bool WaitFor(const std::function<bool()>& pred, int64_t timeout_millis) {
  int64_t deadline = SteadyNowMillis() + timeout_millis;
  while (SteadyNowMillis() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// ---- frame codec ----

TEST(FrameCodec, RoundTrip) {
  Message in = MakeMessage("gossip.digest", "node1", "node2", "payload-bytes");
  std::string wire;
  EncodeFrame(in, &wire);
  ASSERT_GE(wire.size(), kFrameHeaderBytes);

  Slice input(wire);
  Message out;
  ASSERT_TRUE(DecodeFrame(&input, kDefaultMaxFrameBytes, &out).ok());
  EXPECT_TRUE(input.empty());
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.from, in.from);
  EXPECT_EQ(out.to, in.to);
  EXPECT_EQ(out.payload, in.payload);
}

std::string ToHex(const std::string& bytes) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

// The wire bytes of a fixed message, appended after existing bytes, are
// pinned: peers on either side of a change to the encoder must still agree.
TEST(FrameCodec, EncodingIsByteStable) {
  std::string body;
  for (int i = 0; i < 13; i++) body += "0123456789";
  std::string wire = "prefix";
  EncodeFrame(MakeMessage("thin.prove", "client-7", "node-2", body), &wire);
  std::string expected =
      "707265666978"                // "prefix", left untouched
      "53444242" "01"               // magic, version
      "9f000000" "392e943c"         // payload length 159, payload CRC-32
      "0a" "7468696e2e70726f7665"   // type
      "08" "636c69656e742d37"       // from
      "06" "6e6f64652d32"           // to
      "8201";                       // body length 130, then the body
  for (int i = 0; i < 13; i++) expected += "30313233343536373839";
  EXPECT_EQ(ToHex(wire), expected);
}

// Senders write the head and the payload with one gathered write; the two
// must be exactly the frame EncodeFrame builds.
TEST(FrameCodec, HeadFollowedByPayloadIsTheFrame) {
  for (size_t size : {size_t{0}, size_t{1}, size_t{127}, size_t{128},
                      size_t{300000}}) {
    std::string body(size, '\0');
    for (size_t i = 0; i < size; i++) body[i] = static_cast<char>(i * 31);
    const Message m = MakeMessage("rpc.response", "node1", "client-3", body);
    std::string frame = "x", head = "x";
    EncodeFrame(m, &frame);
    EncodeFrameHead(m, &head);
    EXPECT_EQ(head + m.payload, frame) << "payload of " << size << " bytes";
  }
}

TEST(FrameCodec, RejectsBadMagicVersionLengthCrc) {
  Message in = MakeMessage("rpc.request", "c", "s", "body");
  std::string wire;
  EncodeFrame(in, &wire);

  {  // magic
    std::string bad = wire;
    bad[0] ^= 0x5a;
    Slice input(bad);
    Message out;
    EXPECT_TRUE(DecodeFrame(&input, kDefaultMaxFrameBytes, &out).IsCorruption());
  }
  {  // version
    std::string bad = wire;
    bad[4] = 99;
    Slice input(bad);
    Message out;
    EXPECT_TRUE(DecodeFrame(&input, kDefaultMaxFrameBytes, &out).IsCorruption());
  }
  {  // declared length over the cap: must reject BEFORE wanting more bytes
    std::string bad = wire;
    bad[5] = '\xff';
    bad[6] = '\xff';
    bad[7] = '\xff';
    bad[8] = '\x7f';
    Slice input(bad);
    Message out;
    Status s = DecodeFrame(&input, /*max_frame_bytes=*/1 << 20, &out);
    EXPECT_TRUE(s.IsCorruption());
    EXPECT_NE(s.message().find("cap"), std::string::npos);
  }
  {  // payload corruption -> CRC mismatch
    std::string bad = wire;
    bad[kFrameHeaderBytes + 2] ^= 0x01;
    Slice input(bad);
    Message out;
    EXPECT_TRUE(DecodeFrame(&input, kDefaultMaxFrameBytes, &out).IsCorruption());
  }
  {  // trailing bytes inside the declared payload
    Message empty_type = in;
    std::string payload_wire;
    EncodeFrame(empty_type, &payload_wire);
    payload_wire += "x";  // extra byte beyond the frame
    Slice input(payload_wire);
    Message out;
    EXPECT_TRUE(DecodeFrame(&input, kDefaultMaxFrameBytes, &out).ok());
    EXPECT_EQ(input.size(), 1u);  // codec consumes exactly one frame
  }
}

TEST(FrameCodec, TypeAllowlist) {
  EXPECT_TRUE(IsAllowedMessageType("gossip.digest"));
  EXPECT_TRUE(IsAllowedMessageType("rpc.request"));
  EXPECT_TRUE(IsAllowedMessageType("thin.submit"));
  EXPECT_TRUE(IsAllowedMessageType("net.ping"));
  EXPECT_TRUE(IsAllowedMessageType("kafka.submit"));
  EXPECT_TRUE(IsAllowedMessageType("tm.proposal"));
  // The PBFT engine is gone, and so is its prefix.
  EXPECT_FALSE(IsAllowedMessageType("pbft.prepare"));
  EXPECT_FALSE(IsAllowedMessageType(""));
  EXPECT_FALSE(IsAllowedMessageType("gossip."));  // prefix alone is not a type
  EXPECT_FALSE(IsAllowedMessageType("evil.inject"));
  EXPECT_FALSE(IsAllowedMessageType("GOSSIP.DIGEST"));
  EXPECT_FALSE(IsAllowedMessageType("rpc.request\n"));
  EXPECT_FALSE(IsAllowedMessageType(std::string(65, 'a')));

  Message bad = MakeMessage("evil.inject", "a", "b", "");
  std::string wire;
  EncodeFrame(bad, &wire);
  Slice input(wire);
  Message out;
  EXPECT_TRUE(DecodeFrame(&input, kDefaultMaxFrameBytes, &out).IsCorruption());
}

// ---- two real processes' worth of sockets, one test process ----

struct Pair {
  TcpNetwork a;
  TcpNetwork b;

  static TcpNetworkOptions Opts(const std::string& id) {
    TcpNetworkOptions o;
    o.local_id = id;
    o.listen_port = 0;
    o.heartbeat_interval_millis = 50;
    o.peer_down_after_millis = 400;
    o.reconnect_backoff_initial_millis = 20;
    o.reconnect_backoff_max_millis = 100;
    return o;
  }

  // b supervises a link to a; a supervises a link to b (ports learned after
  // both listeners are up, via a second Start on fresh objects) — instead,
  // construct a first, then point b at a's bound port, and give a a
  // supervised link to b the same way via late construction.
  Pair() : a(Opts("a")), b(BOpts()) {}

  TcpNetworkOptions BOpts() {
    EXPECT_TRUE(a.Start().ok());
    TcpNetworkOptions o = Opts("b");
    o.peers.push_back(TcpPeer{"a", "127.0.0.1", a.listen_port()});
    return o;
  }
};

TEST(TcpNetworkTest, DeliversBothDirectionsOverOneSupervisedLink) {
  Pair pair;
  ASSERT_TRUE(pair.b.Start().ok());

  std::atomic<int> got_a{0}, got_b{0};
  std::string seen_payload;
  ASSERT_TRUE(pair.a
                  .Register("a",
                            [&](const Message& m) {
                              seen_payload = m.payload;
                              got_a++;
                            })
                  .ok());
  ASSERT_TRUE(pair.b.Register("b", [&](const Message&) { got_b++; }).ok());

  ASSERT_TRUE(WaitFor([&] { return pair.b.PeerUp("a"); }, 3000));

  // b -> a over the supervised link.
  pair.b.Send(MakeMessage("gossip.digest", "b", "a", "hello"));
  ASSERT_TRUE(WaitFor([&] { return got_a.load() == 1; }, 3000));
  EXPECT_EQ(seen_payload, "hello");

  // a -> b rides the dynamic route learned from b's frames.
  pair.a.Send(MakeMessage("gossip.digest", "a", "b", "reply"));
  ASSERT_TRUE(WaitFor([&] { return got_b.load() == 1; }, 3000));

  const NetworkStats stats = pair.a.stats();
  EXPECT_EQ(stats.frames_rejected, 0u);
}

TEST(TcpNetworkTest, PeerWatcherSeesDownOnShutdownAndUpOnRestart) {
  TcpNetworkOptions server_opts = Pair::Opts("server");
  auto server = std::make_unique<TcpNetwork>(server_opts);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->listen_port();

  // Declared before the client: its supervisor threads run the watcher
  // until the client is destroyed.
  Mutex mu;
  std::vector<std::pair<std::string, bool>> events;
  TcpNetworkOptions client_opts = Pair::Opts("client");
  client_opts.peers.push_back(TcpPeer{"server", "127.0.0.1", port});
  TcpNetwork client(client_opts);

  client.AddPeerWatcher([&](const std::string& peer, bool up) {
    MutexLock lock(&mu);
    events.push_back({peer, up});
  });
  ASSERT_TRUE(client.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return client.PeerUp("server"); }, 3000));

  // Hard-stop the server: reconnects fail until a new listener appears on
  // the same port.
  server->Shutdown();
  ASSERT_TRUE(WaitFor([&] { return !client.PeerUp("server"); }, 3000));

  TcpNetworkOptions restart_opts = server_opts;
  restart_opts.listen_port = port;  // come back on the address clients know
  server = std::make_unique<TcpNetwork>(restart_opts);
  ASSERT_TRUE(server->Start().ok());
  ASSERT_TRUE(WaitFor([&] { return client.PeerUp("server"); }, 5000));

  MutexLock lock(&mu);
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events[0], (std::pair<std::string, bool>{"server", true}));
  bool saw_down = false, saw_reup = false;
  for (size_t i = 1; i < events.size(); i++) {
    if (events[i].first == "server" && !events[i].second) saw_down = true;
    if (saw_down && events[i].second) saw_reup = true;
  }
  EXPECT_TRUE(saw_down);
  EXPECT_TRUE(saw_reup);
  const TcpTransportStats tcp = client.tcp_stats();
  EXPECT_GE(tcp.peer_down_events, 1u);
  EXPECT_GE(tcp.connects_ok, 2u);
}

TEST(TcpNetworkTest, BoundedSendQueueShedsOldestWhilePeerDown) {
  TcpNetworkOptions opts = Pair::Opts("lonely");
  opts.peers.push_back(TcpPeer{"ghost", "127.0.0.1", 1});  // nothing listens
  opts.max_send_queue_per_peer = 8;
  TcpNetwork net(opts);
  ASSERT_TRUE(net.Start().ok());

  for (int i = 0; i < 50; i++) {
    net.Send(MakeMessage("gossip.digest", "lonely", "ghost",
                         "m" + std::to_string(i)));
  }
  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.messages_sent, 50u);
  // 8 queued for the (never-arriving) reconnect; the rest shed oldest-first.
  EXPECT_EQ(stats.overflow_drops, 42u);
  EXPECT_EQ(stats.messages_dropped, 42u);
}

TEST(TcpNetworkTest, UnknownDestinationCountsUnreachable) {
  TcpNetworkOptions opts = Pair::Opts("solo");
  TcpNetwork net(opts);
  ASSERT_TRUE(net.Start().ok());
  net.Send(MakeMessage("gossip.digest", "solo", "nobody", ""));
  EXPECT_EQ(net.stats().unreachable_drops, 1u);
}

TEST(TcpNetworkTest, HostileBytesAreRejectedNotFatal) {
  TcpNetworkOptions opts = Pair::Opts("victim");
  opts.max_frame_bytes = 1 << 20;
  TcpNetwork net(opts);
  ASSERT_TRUE(net.Start().ok());
  std::atomic<int> delivered{0};
  ASSERT_TRUE(net.Register("victim",
                           [&](const Message&) { delivered++; }).ok());

  auto attack = [&](const std::string& bytes) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(net.listen_port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    // Give the reader a moment, then hang up.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ::close(fd);
  };

  attack("GET / HTTP/1.1\r\n\r\n");          // garbage magic
  attack(std::string(kFrameHeaderBytes, '\0'));  // zeroed header

  // A declared 2GB frame must be rejected from the header alone.
  std::string huge;
  Message m = MakeMessage("gossip.digest", "x", "victim", "");
  EncodeFrame(m, &huge);
  huge[5] = '\xff';
  huge[6] = '\xff';
  huge[7] = '\xff';
  huge[8] = '\x7f';
  attack(huge);

  // A CRC-valid frame whose type fails the allowlist: EncodeFrame does not
  // validate (it trusts local senders), which is what a hostile remote
  // would exploit — the decoder must still refuse it.
  std::string evil;
  EncodeFrame(MakeMessage("evil.cmd", "x", "victim", ""), &evil);
  attack(evil);

  ASSERT_TRUE(WaitFor([&] { return net.stats().frames_rejected >= 4; }, 3000));
  EXPECT_EQ(delivered.load(), 0);

  // The transport survived; a well-formed frame still flows.
  std::string good;
  EncodeFrame(MakeMessage("gossip.digest", "x", "victim", "fine"), &good);
  attack(good);
  ASSERT_TRUE(WaitFor([&] { return delivered.load() == 1; }, 3000));
}

TEST(TcpNetworkTest, RpcOverTcpLoopback) {
  TcpNetworkOptions server_opts = Pair::Opts("server");
  TcpNetwork server_net(server_opts);
  ASSERT_TRUE(server_net.Start().ok());

  RpcDispatcher dispatcher;
  dispatcher.RegisterMethod(
      "rpc.echo", [](const Slice& request, std::string* response) {
        response->assign(request.data(), request.size());
        return Status::OK();
      });
  dispatcher.Start(RpcServerOptions{});
  ASSERT_TRUE(server_net
                  .Register("server",
                            [&](const Message& m) {
                              if (m.type == RpcDispatcher::kRequestType) {
                                dispatcher.HandleMessage(&server_net, "server",
                                                         m);
                              }
                            })
                  .ok());

  TcpNetworkOptions client_opts = Pair::Opts("client");
  client_opts.peers.push_back(
      TcpPeer{"server", "127.0.0.1", server_net.listen_port()});
  TcpNetwork client_net(client_opts);
  ASSERT_TRUE(client_net.Start().ok());

  RpcClient client("client", &client_net);
  std::string response;
  Status s = client.Call("server", "rpc.echo", "ping-pong", &response,
                         /*timeout_millis=*/5000);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(response, "ping-pong");
  dispatcher.Stop();
}

/// A server TcpNetwork whose RpcDispatcher answers "rpc.blob" with
/// `reply_bytes` patterned bytes, and a client TcpNetwork linked to it. The
/// heartbeat is slowed so every byte the client receives is an RPC reply.
struct BlobRpc {
  explicit BlobRpc(size_t reply_bytes, size_t server_max_frame_bytes =
                                           kDefaultMaxFrameBytes)
      : server_net(Opts("server", server_max_frame_bytes)),
        client_net(ClientOpts()) {
    blob.resize(reply_bytes);
    for (size_t i = 0; i < reply_bytes; i++) {
      blob[i] = static_cast<char>((i * 131) >> 3);
    }
    dispatcher.RegisterMethod(
        "rpc.blob", [this](const Slice&, std::string* response) {
          calls++;
          *response = blob;
          return Status::OK();
        });
    RpcServerOptions rpc_opts;
    rpc_opts.workers = 2;
    dispatcher.Start(rpc_opts);
    EXPECT_TRUE(server_net
                    .Register("server",
                              [this](const Message& m) {
                                dispatcher.HandleMessage(&server_net,
                                                         "server", m);
                              })
                    .ok());
    EXPECT_TRUE(client_net.Start().ok());
    client = std::make_unique<RpcClient>("client", &client_net);
    EXPECT_TRUE(WaitFor([&] { return client_net.PeerUp("server"); }, 3000));
  }
  ~BlobRpc() {
    client.reset();
    server_net.Shutdown();
    dispatcher.Stop();
  }

  /// Frame payload bytes of the server's OK reply carrying `body` bytes:
  /// [request_id u64][code u8][empty message lp][body lp][retry_after 0].
  static size_t ReplyFrameBytes(size_t body) {
    const size_t payload = 8 + 1 + 1 + VarintLength(body) + body + 1;
    return FramePayloadBytes(Message{RpcDispatcher::kResponseType, "server",
                                     "client", std::string(payload, 'x')});
  }

  static TcpNetworkOptions Opts(const std::string& id,
                                size_t max_frame_bytes) {
    TcpNetworkOptions o = Pair::Opts(id);
    o.heartbeat_interval_millis = 10000;
    o.peer_down_after_millis = 30000;
    o.max_frame_bytes = max_frame_bytes;
    return o;
  }
  TcpNetworkOptions ClientOpts() {
    EXPECT_TRUE(server_net.Start().ok());
    TcpNetworkOptions o = Opts("client", kDefaultMaxFrameBytes);
    o.peers.push_back(TcpPeer{"server", "127.0.0.1", server_net.listen_port()});
    return o;
  }

  std::string blob;
  std::atomic<int> calls{0};
  TcpNetwork server_net;
  TcpNetwork client_net;
  RpcDispatcher dispatcher;
  std::unique_ptr<RpcClient> client;
};

// A prove-sized reply arrives byte for byte, and the receiver's byte count
// is the whole frame even though the body now moves out of the frame
// buffer instead of being copied.
TEST(TcpNetworkTest, LargeRpcReplyArrivesWholeAndCountsTheFullFrame) {
  constexpr size_t kReply = 280000;
  BlobRpc rpc(kReply);
  const uint64_t before = rpc.client_net.tcp_stats().bytes_received;
  std::string response;
  Status s = rpc.client->Call("server", "rpc.blob", "", &response,
                              /*timeout_millis=*/5000);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(response == rpc.blob);
  EXPECT_EQ(rpc.client_net.tcp_stats().bytes_received - before,
            kFrameHeaderBytes + BlobRpc::ReplyFrameBytes(kReply));
}

// A reply over the server's frame cap used to be dropped at send, so the
// caller waited out its whole timeout and a retrying caller ran the method
// again. Now the caller hears at once why, and does not retry.
TEST(TcpNetworkTest, OverCapRpcReplyFailsFastNamingTheCap) {
  BlobRpc rpc(/*reply_bytes=*/100 << 10, /*server_max_frame_bytes=*/64 << 10);
  RetryPolicy policy = RetryPolicy::WithAttempts(3);
  policy.attempt_timeout_millis = 5000;
  const int64_t start = SteadyNowMillis();
  std::string response;
  Status s = rpc.client->Call("server", "rpc.blob", "", &response, policy);
  const int64_t elapsed = SteadyNowMillis() - start;
  ASSERT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("frame cap of 65536 bytes"), std::string::npos)
      << s.message();
  const std::string size = std::to_string(BlobRpc::ReplyFrameBytes(100 << 10));
  EXPECT_NE(s.message().find("reply of " + size + " bytes"), std::string::npos)
      << s.message();
  EXPECT_LT(elapsed, 2000);
  EXPECT_EQ(rpc.calls.load(), 1);
  EXPECT_EQ(rpc.server_net.tcp_stats().oversize_send_drops, 0u);
}

// A sender writes its frame itself only while nothing is queued ahead of
// it, and without blocking: when the receiver stalls, the socket buffers
// fill, inline writes stop part-way and the link's writer finishes them.
// Each sender's messages must still arrive whole and in order, with no
// reconnect, also while two threads send on the same link.
TEST(TcpNetworkTest, LargeFramesFromThreeSendersArriveWholeAndInOrder) {
  TcpNetworkOptions server_opts = Pair::Opts("server");
  server_opts.peer_down_after_millis = 10000;  // the stall is not silence
  TcpNetwork server_net(server_opts);
  ASSERT_TRUE(server_net.Start().ok());
  Mutex mu;
  std::vector<std::string> got;
  std::atomic<bool> stalled{false};
  ASSERT_TRUE(server_net
                  .RegisterWithInline(
                      "server",
                      [&](const Message& m) {
                        MutexLock lock(&mu);
                        got.push_back(m.payload);
                      },
                      [&](Message*) {
                        // Hold the reader thread once, so the client's
                        // socket buffers fill up behind it.
                        if (!stalled.exchange(true)) {
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(300));
                        }
                        return false;
                      })
                  .ok());
  TcpNetworkOptions client_opts = Pair::Opts("client");
  client_opts.peer_down_after_millis = 10000;
  client_opts.peers.push_back(
      TcpPeer{"server", "127.0.0.1", server_net.listen_port()});
  TcpNetwork client_net(client_opts);
  ASSERT_TRUE(client_net.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return client_net.PeerUp("server"); }, 3000));

  constexpr int kPerSender = 24;
  auto payload = [](int sender, int seq) {
    const size_t size = seq % 4 == 0 ? (2u << 20) : 16;
    std::string p = std::to_string(sender) + ":" + std::to_string(seq) + ":";
    p.resize(size, static_cast<char>('a' + (sender * 7 + seq) % 26));
    return p;
  };
  auto send_all = [&](int sender) {
    for (int seq = 0; seq < kPerSender; seq++) {
      client_net.Send(MakeMessage("gossip.digest", "client", "server",
                                  payload(sender, seq)));
    }
  };
  // Sender 0 alone meets the stalled reader: its inline writes stop
  // part-way. Senders 1 and 2 then race each other for the socket.
  send_all(0);
  std::thread other(send_all, 1);
  send_all(2);
  other.join();
  ASSERT_TRUE(WaitFor(
      [&] {
        MutexLock lock(&mu);
        return got.size() == 3 * kPerSender;
      },
      20000));

  MutexLock lock(&mu);
  int next[3] = {0, 0, 0};
  for (const std::string& p : got) {
    const int sender = p[0] - '0';
    ASSERT_TRUE(sender >= 0 && sender <= 2);
    ASSERT_EQ(p, payload(sender, next[sender])) << "sender " << sender;
    next[sender]++;
  }
  EXPECT_EQ(client_net.stats().messages_dropped, 0u);
  EXPECT_EQ(client_net.tcp_stats().disconnects, 0u);
  EXPECT_EQ(server_net.stats().frames_rejected, 0u);
}

TEST(TcpNetworkTest, InlineHookTakesMessagesOnTheReceivingThread) {
  TcpNetwork server_net(Pair::Opts("server"));
  ASSERT_TRUE(server_net.Start().ok());
  Mutex mu;
  std::vector<std::string> hooked, handled;
  std::thread::id hook_thread, handler_thread;
  std::atomic<bool> hook_busy{false};
  std::atomic<bool> hook_done{false};
  ASSERT_TRUE(server_net
                  .RegisterWithInline(
                      "server",
                      [&](const Message& m) {
                        MutexLock lock(&mu);
                        handled.push_back(m.payload);
                        handler_thread = std::this_thread::get_id();
                      },
                      [&](Message* m) {
                        if (m->type != "rpc.request") return false;
                        bool second;
                        {
                          MutexLock lock(&mu);
                          hooked.push_back(std::move(m->payload));
                          hook_thread = std::this_thread::get_id();
                          second = hooked.size() == 2;
                        }
                        if (second) {
                          hook_busy = true;
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(200));
                          hook_done = true;
                        }
                        return true;
                      })
                  .ok());
  TcpNetworkOptions client_opts = Pair::Opts("client");
  client_opts.peers.push_back(
      TcpPeer{"server", "127.0.0.1", server_net.listen_port()});
  TcpNetwork client_net(client_opts);
  ASSERT_TRUE(client_net.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return client_net.PeerUp("server"); }, 3000));

  client_net.Send(MakeMessage("rpc.request", "client", "server", "r1"));
  client_net.Send(MakeMessage("gossip.digest", "client", "server", "g1"));
  ASSERT_TRUE(WaitFor(
      [&] {
        MutexLock lock(&mu);
        return hooked.size() == 1 && handled.size() == 1;
      },
      3000));
  {
    MutexLock lock(&mu);
    EXPECT_EQ(hooked[0], "r1");
    EXPECT_EQ(handled[0], "g1");
    EXPECT_NE(hook_thread, handler_thread);
  }
  EXPECT_EQ(server_net.stats().messages_delivered, 2u);

  // Unregister does not return while a hook call is still running.
  client_net.Send(MakeMessage("rpc.request", "client", "server", "r2"));
  ASSERT_TRUE(WaitFor([&] { return hook_busy.load(); }, 3000));
  ASSERT_TRUE(server_net.Unregister("server").ok());
  EXPECT_TRUE(hook_done.load());
}

TEST(TcpNetworkTest, FaultShimDropsAndDelays) {
  TcpNetworkOptions server_opts = Pair::Opts("server");
  TcpNetwork server_net(server_opts);
  ASSERT_TRUE(server_net.Start().ok());
  std::atomic<int> delivered{0};
  ASSERT_TRUE(server_net
                  .Register("server", [&](const Message&) { delivered++; })
                  .ok());

  std::atomic<int> sent{0};
  TcpNetworkOptions client_opts = Pair::Opts("client");
  client_opts.peers.push_back(
      TcpPeer{"server", "127.0.0.1", server_net.listen_port()});
  client_opts.send_fault = [&](const Message&) {
    TcpNetworkOptions::Fault fault;
    fault.drop = (sent++ % 2) == 0;  // drop every other frame
    return fault;
  };
  TcpNetwork client_net(client_opts);
  ASSERT_TRUE(client_net.Start().ok());
  ASSERT_TRUE(WaitFor([&] { return client_net.PeerUp("server"); }, 3000));

  for (int i = 0; i < 10; i++) {
    client_net.Send(MakeMessage("gossip.digest", "client", "server", "x"));
  }
  ASSERT_TRUE(WaitFor([&] { return delivered.load() == 5; }, 3000));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(delivered.load(), 5);
  EXPECT_EQ(client_net.stats().random_drops, 5u);
}

}  // namespace
}  // namespace sebdb
