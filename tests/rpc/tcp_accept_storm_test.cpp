// Accept-loop survival (the PR-8 front-door bugfix): the TcpTransport
// listener must keep accepting after transient accept() failures —
// connection aborts (a client resetting while still in the backlog) and
// process fd exhaustion (EMFILE) — instead of silently returning and
// leaving every later client hanging. Plus: per-connection rx resources
// are reaped when the peer disconnects, not hoarded until shutdown.
#include "rpc/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/require.hpp"

namespace de::rpc {
namespace {

Payload tiny_frame(std::uint8_t tag) { return Payload{tag, 2, 3, 4}; }

/// Connects a raw TCP socket to loopback `port` and resets it immediately
/// (SO_LINGER {1, 0} makes close() send RST), so the listener sees either
/// an ECONNABORTED accept or an instantly-dead session.
void connect_and_reset(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const linger lg{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd);
}

/// Bounded receive that proves the LISTENER is alive: on timeout, dials a
/// fresh client and re-sends `tag`. A TcpTransport peer that loses one
/// connect/send to the storm's kernel-level aftershocks is marked dead for
/// good (sends silently no-op), so waiting forever on one specific client
/// socket turns a benign client-side race into a test hang.
std::optional<Frame> receive_redialing(TcpTransport& server, std::uint8_t tag,
                                       NodeId retry_node_base) {
  for (int attempt = 0; attempt < 20; ++attempt) {
    Frame out;
    if (server.receive_for(0, 500, out) == RecvStatus::kOk) return out;
    TcpTransport retry(retry_node_base + attempt);
    retry.set_peers({{0, PeerEndpoint{"127.0.0.1", server.port()}}});
    retry.send(Address{0, 0}, tiny_frame(tag));
    retry.shutdown();
  }
  return std::nullopt;
}

TEST(TcpAcceptStorm, SurvivesConnectionAbortStorm) {
  TcpTransport server(0);
  server.open_mailbox(0);

  // 50 clients connect and slam the door with an RST. Before the fix one
  // ECONNABORTED return code permanently ended the accept loop.
  for (int k = 0; k < 50; ++k) connect_and_reset(server.port());

  // A well-behaved client arriving after the storm must still get in.
  TcpTransport client(1);
  client.set_peers({{0, PeerEndpoint{"127.0.0.1", server.port()}}});
  client.send(Address{0, 0}, tiny_frame(7));
  const auto got = receive_redialing(server, 7, /*retry_node_base=*/100);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, tiny_frame(7));
  client.shutdown();
  server.shutdown();
}

TEST(TcpAcceptStorm, RecoversFromFdExhaustion) {
  TcpTransport server(0);
  server.open_mailbox(0);
  const std::uint16_t port = server.port();

  // Tighten the fd table, then hoard every remaining descriptor.
  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  rlimit tight = old_limit;
  tight.rlim_cur = 96;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> hoard;
  for (;;) {
    const int fd = ::dup(STDIN_FILENO);
    if (fd < 0) break;  // EMFILE: table full
    hoard.push_back(fd);
  }
  ASSERT_FALSE(hoard.empty());

  // One fd back for the client's connecting socket; the kernel completes
  // the handshake in the backlog, but the server's accept() now fails with
  // EMFILE — before the fix, fatally; after it, with retry + backoff.
  // The client is a raw socket speaking the wire framing by hand, with its
  // own retry loop: a TcpTransport client would share this process's
  // starved fd table, and one transient in-process fd use (thread startup,
  // /proc reads) stealing the single free slot marks its peer dead for
  // good — the frame silently vanishes and the test hangs. A real client
  // lives in another process and keeps dialing; model that.
  ::close(hoard.back());
  hoard.pop_back();
  std::thread sender([port] {
    int fd = -1;
    for (int k = 0; k < 4000 && fd < 0; ++k) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    // Wire framing: u32 payload length, u32 mailbox id, payload bytes.
    const Payload body = tiny_frame(9);
    std::uint8_t msg[8 + 4] = {};
    msg[0] = static_cast<std::uint8_t>(body.size());
    for (std::size_t i = 0; i < body.size(); ++i) msg[8 + i] = body[i];
    ASSERT_EQ(::send(fd, msg, sizeof(msg), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(msg)));
    ::close(fd);
  });

  // Let the accept loop hit EMFILE a number of times to prove it retries.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  for (const int fd : hoard) ::close(fd);
  hoard.clear();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_limit), 0);

  // With descriptors available again the pending connection is accepted
  // and the frame flows. Bounded wait: a lost frame must fail the test,
  // not hang the suite.
  Frame got;
  RecvStatus st = RecvStatus::kTimeout;
  for (int k = 0; k < 60 && st != RecvStatus::kOk; ++k) {
    st = server.receive_for(0, 500, got);
  }
  sender.join();
  ASSERT_EQ(st, RecvStatus::kOk);
  EXPECT_EQ(got, tiny_frame(9));

  // And the listener is still generally alive for brand-new clients.
  TcpTransport late(2);
  late.set_peers({{0, PeerEndpoint{"127.0.0.1", server.port()}}});
  late.send(Address{0, 0}, tiny_frame(11));
  const auto again = receive_redialing(server, 11, /*retry_node_base=*/200);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, tiny_frame(11));

  late.shutdown();
  server.shutdown();
}

TEST(TcpAcceptStorm, ReapsRxSessionsOnPeerDisconnect) {
  TcpTransport server(0);
  server.open_mailbox(0);

  {
    TcpTransport client(1);
    client.set_peers({{0, PeerEndpoint{"127.0.0.1", server.port()}}});
    client.send(Address{0, 0}, tiny_frame(1));
    ASSERT_TRUE(server.receive(0).has_value());
    EXPECT_EQ(server.live_rx_sessions(), 1u);
    client.shutdown();
  }

  // The peer hung up: its rx session must drain away without any server
  // shutdown. Bounded wait — the rx thread notices EOF on its own.
  for (int k = 0; k < 200 && server.live_rx_sessions() != 0; ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.live_rx_sessions(), 0u);

  // A fresh client after the reap: live sessions grow from the reaped 0
  // again (>= 1: the bounded receive may have re-dialed a helper client).
  TcpTransport client2(2);
  client2.set_peers({{0, PeerEndpoint{"127.0.0.1", server.port()}}});
  client2.send(Address{0, 0}, tiny_frame(2));
  const auto got = receive_redialing(server, 2, /*retry_node_base=*/300);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, tiny_frame(2));
  EXPECT_GE(server.live_rx_sessions(), 1u);
  client2.shutdown();
  server.shutdown();
}

TEST(TcpAcceptStorm, BacklogIsConfigurable) {
  // The old hardcoded listen(fd, 64) is now kDefaultBacklog with an
  // explicit knob; a tiny backlog still serves sequential clients.
  TcpTransport server(0, /*port=*/0, /*backlog=*/4);
  server.open_mailbox(0);
  for (int k = 0; k < 6; ++k) {
    TcpTransport client(1 + k);
    client.set_peers({{0, PeerEndpoint{"127.0.0.1", server.port()}}});
    client.send(Address{0, 0}, tiny_frame(static_cast<std::uint8_t>(k)));
    const auto got = receive_redialing(server, static_cast<std::uint8_t>(k),
                                       /*retry_node_base=*/400 + 32 * k);
    ASSERT_TRUE(got.has_value());
    client.shutdown();
  }
  EXPECT_GE(kDefaultBacklog, 128);  // regression: no more backlog-64 stalls
  server.shutdown();
}

}  // namespace
}  // namespace de::rpc
