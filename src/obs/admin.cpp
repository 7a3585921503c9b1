#include "obs/admin.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <shared_mutex>

#include "common/require.hpp"
#include "rpc/tcp_transport.hpp"

namespace de::obs {

namespace {

bool send_all(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    default: return "Unknown";
  }
}

void write_response(int fd, const HttpResponse& r) {
  std::string head = "HTTP/1.0 " + std::to_string(r.status) + " " +
                     reason_phrase(r.status) +
                     "\r\nContent-Type: " + r.content_type +
                     "\r\nContent-Length: " + std::to_string(r.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (send_all(fd, head.data(), head.size())) {
    send_all(fd, r.body.data(), r.body.size());
  }
}

void set_recv_timeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

// In-flight handler executions hold this shared; unroute()/close() take it
// exclusive, so returning from either means no thread is inside a dropped
// handler. Process-wide (not per-server) — admin traffic is rare and
// short, and it keeps the header free of <shared_mutex>.
std::shared_mutex& handler_mu() {
  static std::shared_mutex mu;
  return mu;
}

}  // namespace

std::optional<std::string_view> query_param(std::string_view query,
                                            std::string_view key) {
  std::size_t pos = 0;
  while (pos <= query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view item = query.substr(pos, amp - pos);
    if (item.size() > key.size() && item[key.size()] == '=' &&
        item.substr(0, key.size()) == key) {
      return item.substr(key.size() + 1);
    }
    if (amp == query.size()) break;
    pos = amp + 1;
  }
  return std::nullopt;
}

AdminServer::AdminServer(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  DE_REQUIRE(listen_fd_ >= 0, "admin: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, rpc::kDefaultBacklog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("admin: cannot bind loopback listener");
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

AdminServer::~AdminServer() { close(); }

void AdminServer::route(const std::string& path, AdminHandler handler) {
  std::lock_guard lk(mu_);
  routes_[path] = std::move(handler);
}

void AdminServer::unroute(const std::string& path) {
  {
    std::lock_guard lk(mu_);
    routes_.erase(path);
  }
  // Barrier: wait out any connection thread still inside the old handler.
  std::unique_lock handlers(handler_mu());
}

void AdminServer::reap_finished_locked(std::vector<std::thread>& out) {
  for (const auto id : conn_done_) {
    for (auto it = conn_threads_.begin(); it != conn_threads_.end(); ++it) {
      if (it->get_id() == id) {
        out.push_back(std::move(*it));
        conn_threads_.erase(it);
        break;
      }
    }
  }
  conn_done_.clear();
}

void AdminServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    std::vector<std::thread> finished;
    if (fd < 0) {
      const int err = errno;
      {
        std::lock_guard lk(mu_);
        if (down_) return;  // listener shut down: the only clean exit
        reap_finished_locked(finished);
      }
      for (auto& t : finished) t.join();
      // Same contract as the TCP front door: a failed accept() must never
      // end the loop for the life of the server. Aborted handshakes are
      // routine; fd/buffer exhaustion is transient.
      if (err == EINTR || err == ECONNABORTED || err == EPROTO) continue;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      return;  // genuinely fatal without shutdown
    }
    {
      std::lock_guard lk(mu_);
      if (down_) {
        ::close(fd);
        return;
      }
      reap_finished_locked(finished);
      conn_fds_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
    }
    for (auto& t : finished) t.join();
  }
}

void AdminServer::serve_connection(int fd) {
  // A stalled scraper holds one thread for at most this long.
  set_recv_timeout(fd, 2);

  std::string req;
  char buf[1024];
  bool complete = false;
  while (req.size() < 8192) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF, timeout, or error
    }
    req.append(buf, static_cast<std::size_t>(n));
    if (req.find("\r\n\r\n") != std::string::npos ||
        req.find("\n\n") != std::string::npos) {
      complete = true;
      break;
    }
  }

  if (complete) {
    // "GET /path?query HTTP/1.x" — method, one space, target.
    std::string_view line(req);
    line = line.substr(0, line.find_first_of("\r\n"));
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos) {
      write_response(fd, {400, "text/plain; charset=utf-8", "bad request\n"});
    } else if (line.substr(0, sp1) != "GET") {
      write_response(
          fd, {405, "text/plain; charset=utf-8", "GET only\n"});
    } else {
      std::string_view target =
          sp2 == std::string_view::npos
              ? line.substr(sp1 + 1)
              : line.substr(sp1 + 1, sp2 - sp1 - 1);
      std::string_view query;
      if (const std::size_t q = target.find('?');
          q != std::string_view::npos) {
        query = target.substr(q + 1);
        target = target.substr(0, q);
      }
      HttpResponse resp{404, "text/plain; charset=utf-8",
                        std::string(target) + " not found\n"};
      {
        // Shared-held across lookup AND invocation: if unroute() wins the
        // erase our lookup misses; if the lookup wins, unroute()'s
        // exclusive barrier blocks until the handler returns. Either way
        // no thread is inside a dropped handler once unroute() returns.
        std::shared_lock handlers(handler_mu());
        AdminHandler handler;
        {
          std::lock_guard lk(mu_);
          if (auto it = routes_.find(target); it != routes_.end()) {
            handler = it->second;
          }
        }
        if (handler) {
          try {
            resp = handler(query);
          } catch (const std::exception& e) {
            resp = {500, "text/plain; charset=utf-8",
                    std::string("handler error: ") + e.what() + "\n"};
          }
        }
      }
      write_response(fd, resp);
    }
  }

  // Deregister before closing so close() never touches a recycled fd, then
  // park this thread's id for the accept loop to reap the handle.
  std::lock_guard lk(mu_);
  std::erase(conn_fds_, fd);
  ::close(fd);
  conn_done_.push_back(std::this_thread::get_id());
}

void AdminServer::close() {
  std::vector<std::thread> conns;
  {
    std::lock_guard lk(mu_);
    if (down_) return;  // idempotent: a second call must not re-join
    down_ = true;
    routes_.clear();
    // Wake connection threads blocked in recv(); they close their own fd.
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    conns = std::move(conn_threads_);
    conn_done_.clear();
  }
  // Wake accept() with ::shutdown only; close the fd *after* the join so
  // the accept thread never reads a recycled fd number.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& t : conns) t.join();
  // Barrier for callers that tear down handler-captured state next.
  std::unique_lock handlers(handler_mu());
}

std::optional<HttpGetResult> http_get(std::uint16_t port,
                                      const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  set_recv_timeout(fd, 5);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }

  const std::string req =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (!send_all(fd, req.data(), req.size())) {
    ::close(fd);
    return std::nullopt;
  }

  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // "HTTP/1.0 200 OK\r\n...\r\n\r\n<body>"
  if (raw.rfind("HTTP/1.", 0) != 0) return std::nullopt;
  const std::size_t sp = raw.find(' ');
  if (sp == std::string::npos) return std::nullopt;
  HttpGetResult out;
  out.status = std::atoi(raw.c_str() + sp + 1);
  const std::size_t blank = raw.find("\r\n\r\n");
  if (blank == std::string::npos) return std::nullopt;
  out.body = raw.substr(blank + 4);
  return out;
}

}  // namespace de::obs
