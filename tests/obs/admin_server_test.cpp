// AdminServer: routing, query passing, error statuses, the unroute
// barrier, concurrent scrapes, hostile requests, and SloWindow percentile
// accounting.
#include "obs/admin.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/slo.hpp"

namespace de::obs {
namespace {

/// A loopback connection to `port` with a 5 s receive timeout (-1 on
/// failure).
int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `request` raw (half-closing afterwards when `half_close`) and
/// returns everything the server wrote back before closing ("" = nothing).
std::string exchange(std::uint16_t port, const std::string& request,
                     bool half_close) {
  const int fd = dial(port);
  EXPECT_GE(fd, 0);
  if (fd < 0) return "";
  // The server may close mid-send (oversized request): no SIGPIPE.
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  if (half_close) ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buf[1024];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST(AdminServer, RoutesAndStatusCodes) {
  AdminServer server;
  ASSERT_GT(server.port(), 0);
  server.route("/healthz", [](std::string_view) {
    return HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  });

  const auto ok = http_get(server.port(), "/healthz");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 200);
  EXPECT_EQ(ok->body, "ok\n");

  const auto missing = http_get(server.port(), "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);
}

TEST(AdminServer, QueryStringReachesHandler) {
  AdminServer server;
  std::string seen;
  server.route("/echo", [&seen](std::string_view query) {
    seen = std::string(query);
    return HttpResponse{200, "text/plain; charset=utf-8",
                        std::string(query) + "\n"};
  });
  const auto r = http_get(server.port(), "/echo?s=2.5&x=1");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  EXPECT_EQ(seen, "s=2.5&x=1");

  const auto bare = http_get(server.port(), "/echo");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->body, "\n");
}

TEST(QueryParam, WholeKeyMatchOnly) {
  // "ms=500" must not satisfy a lookup for "s" (substring trap).
  EXPECT_FALSE(query_param("ms=500", "s").has_value());
  EXPECT_FALSE(query_param("secs=3", "s").has_value());
  ASSERT_TRUE(query_param("s=2.5", "s").has_value());
  EXPECT_EQ(*query_param("s=2.5", "s"), "2.5");
  EXPECT_EQ(*query_param("ms=500&s=7", "s"), "7");
  EXPECT_EQ(*query_param("s=7&ms=500", "s"), "7");
  EXPECT_EQ(*query_param("a=1&s=&b=2", "s"), "");  // present, empty value
  EXPECT_FALSE(query_param("", "s").has_value());
  EXPECT_FALSE(query_param("s", "s").has_value());  // bare key, no '='
}

TEST(AdminServer, HandlerExceptionBecomes500) {
  AdminServer server;
  server.route("/boom", [](std::string_view) -> HttpResponse {
    throw std::runtime_error("handler bug");
  });
  const auto r = http_get(server.port(), "/boom");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 500);
}

TEST(AdminServer, UnrouteIsABarrier) {
  AdminServer server;
  // After unroute() returns, the captured flag must be safe to destroy:
  // no connection thread may still be inside the handler.
  std::atomic<bool> alive{true};
  server.route("/slow", [&alive](std::string_view) {
    EXPECT_TRUE(alive.load());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(alive.load());
    return HttpResponse{200, "text/plain; charset=utf-8", "done\n"};
  });
  std::thread scraper([port = server.port()] {
    for (int i = 0; i < 5; ++i) (void)http_get(port, "/slow");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.unroute("/slow");
  alive.store(false);  // would trip the handler's EXPECTs if it still ran
  const auto r = http_get(server.port(), "/slow");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 404);
  scraper.join();
}

TEST(AdminServer, ConcurrentScrapes) {
  AdminServer server;
  std::atomic<int> calls{0};
  server.route("/metrics", [&calls](std::string_view) {
    calls.fetch_add(1);
    return HttpResponse{200, "text/plain; charset=utf-8", "m 1\n"};
  });
  std::vector<std::thread> scrapers;
  std::atomic<int> ok{0};
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&ok, port = server.port()] {
      for (int i = 0; i < 8; ++i) {
        const auto r = http_get(port, "/metrics");
        if (r.has_value() && r->status == 200 && r->body == "m 1\n") {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : scrapers) t.join();
  EXPECT_EQ(ok.load(), 32);
  EXPECT_EQ(calls.load(), 32);
}

TEST(AdminServer, CloseIsIdempotentAndScrapesFailAfter) {
  AdminServer server;
  const auto port = server.port();
  server.route("/x", [](std::string_view) {
    return HttpResponse{200, "text/plain; charset=utf-8", "x"};
  });
  ASSERT_TRUE(http_get(port, "/x").has_value());
  server.close();
  server.close();
  EXPECT_FALSE(http_get(port, "/x").has_value());
}

TEST(AdminServer, HostileRequestsNeverReachAHandler) {
  AdminServer server;
  std::atomic<int> calls{0};
  server.route("/metrics", [&calls](std::string_view) {
    calls.fetch_add(1);
    return HttpResponse{200, "text/plain; charset=utf-8", "m 1\n"};
  });
  // 16 KiB and no terminator: the bounded read gives up, nobody answers.
  EXPECT_EQ(exchange(server.port(),
                     "GET /metrics HTTP/1.0\r\nX-Pad: " +
                         std::string(16 * 1024, 'a'),
                     /*half_close=*/false),
            "");
  // Closed before its terminator.
  EXPECT_EQ(exchange(server.port(), "GET /metrics HTTP/1.0\r\n",
                     /*half_close=*/true),
            "");
  // Not a GET.
  const std::string post =
      exchange(server.port(), "POST /metrics HTTP/1.0\r\n\r\n", false);
  EXPECT_EQ(post.rfind("HTTP/1.0 405 ", 0), 0u) << post;
  EXPECT_EQ(calls.load(), 0);
  // The server still serves.
  const auto ok = http_get(server.port(), "/metrics");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 200);
  EXPECT_EQ(calls.load(), 1);
}

TEST(AdminServer, IdleConnectionsDoNotBlockAScrape) {
  AdminServer server;
  std::atomic<int> calls{0};
  server.route("/metrics", [&calls](std::string_view) {
    calls.fetch_add(1);
    return HttpResponse{200, "text/plain; charset=utf-8", "m 1\n"};
  });
  std::vector<int> idle;
  for (int i = 0; i < 32; ++i) {
    const int fd = dial(server.port());
    ASSERT_GE(fd, 0);
    idle.push_back(fd);
  }
  const auto r = http_get(server.port(), "/metrics");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  EXPECT_EQ(calls.load(), 1);
  for (const int fd : idle) ::close(fd);
}

TEST(SloWindow, PercentilesAndViolations) {
  SloWindow slo(/*capacity=*/100, /*target_ms=*/50);
  for (int i = 1; i <= 100; ++i) slo.record_ms(i);
  const auto st = slo.stats();
  EXPECT_EQ(st.count, 100);
  EXPECT_EQ(st.window, 100);
  EXPECT_NEAR(st.p50_ms, 50, 1.0);
  EXPECT_NEAR(st.p95_ms, 95, 1.0);
  EXPECT_NEAR(st.p99_ms, 99, 1.0);
  EXPECT_EQ(st.target_ms, 50);
  EXPECT_EQ(st.violations, 50);  // 51..100 exceed the 50 ms target
}

TEST(SloWindow, RingEvictsOldSamples) {
  SloWindow slo(/*capacity=*/4, /*target_ms=*/0);
  for (int i = 0; i < 100; ++i) slo.record_ms(1000);
  for (int i = 0; i < 4; ++i) slo.record_ms(1);
  const auto st = slo.stats();
  EXPECT_EQ(st.count, 104);
  EXPECT_EQ(st.window, 4);
  // Only the last four samples remain: every percentile sees the 1s.
  EXPECT_DOUBLE_EQ(st.p99_ms, 1);
  EXPECT_EQ(st.violations, 0);  // no target configured
}

}  // namespace
}  // namespace de::obs
