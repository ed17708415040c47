#include "src/svc/daemon.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "src/core/fault.h"

namespace ckptsim::svc {

void serve_stream(CampaignServer& server, std::FILE* in, std::FILE* out) {
  std::mutex write_mu;
  const CampaignServer::Sink sink = [out, &write_mu](const std::string& line) {
    const std::lock_guard<std::mutex> lock(write_mu);
    std::fputs(line.c_str(), out);
    std::fputc('\n', out);
    std::fflush(out);
  };
  std::string line;
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c != '\n') {
      line += static_cast<char>(c);
      continue;
    }
    server.handle_line(line, sink);
    line.clear();
    if (server.shutdown_requested()) break;
  }
  if (!line.empty()) server.handle_line(line, sink);
  server.drain();
}

TcpDaemon::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

TcpDaemon::TcpDaemon(CampaignServer& server, std::uint16_t port) : server_(server) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw SimError(ErrorCode::kIoError,
                   std::string("ckptsimd: socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw SimError(ErrorCode::kIoError,
                   "ckptsimd: cannot listen on 127.0.0.1:" + std::to_string(port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
}

TcpDaemon::~TcpDaemon() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (Reader& r : readers_) {
    if (r.thread.joinable()) r.thread.join();
  }
}

void TcpDaemon::reap_readers() {
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (!it->conn->reader_done.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    it->thread.join();
    it = readers_.erase(it);
  }
}

void TcpDaemon::run(const std::atomic<bool>& stop) {
  // SIGTERM/SIGINT first puts the server into graceful drain: new sweep
  // requests get an explicit "draining" response while in-flight
  // replications park at their next snapshot boundary; the loop exits once
  // nothing is running.  A "shutdown" request keeps the old immediate exit.
  bool draining = false;
  while (!server_.shutdown_requested()) {
    reap_readers();
    if (stop.load(std::memory_order_relaxed) && !draining) {
      server_.begin_drain();
      draining = true;
    }
    if (draining && server_.drained()) break;
    pollfd pfd{listen_fd_, POLLIN, 0};
    // Short poll timeout so signal- and shutdown-flags are noticed promptly
    // even when no client ever connects.
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // Out of descriptors (EMFILE) the connection stays pending and poll
      // reports it again at once: wait for readers to free some instead of
      // spinning.
      if (errno != EINTR) std::this_thread::sleep_for(std::chrono::milliseconds(100));
      continue;
    }
    // The sink sends each response line on its own; with Nagle's algorithm
    // a line sent while the previous one is unacknowledged would wait for
    // the client's delayed ACK (40 ms or more on Linux).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Connection>(fd);
    readers_.push_back(Reader{conn, std::thread([this, conn] {
                                serve_connection(conn);
                                conn->reader_done.store(true, std::memory_order_release);
                              })});
  }
  // Unblock every reader (recv returns 0 after SHUT_RD) and join them so no
  // request arrives after this point; campaign sinks may still write to the
  // sockets until the caller stops the server — the shared_ptrs keep the
  // fds alive for them.
  for (const Reader& r : readers_) ::shutdown(r.conn->fd, SHUT_RD);
  for (Reader& r : readers_) r.thread.join();
  readers_.clear();
}

void TcpDaemon::serve_connection(const std::shared_ptr<Connection>& conn) {
  const CampaignServer::Sink sink = [conn](const std::string& line) {
    const std::lock_guard<std::mutex> lock(conn->write_mu);
    std::string framed = line;
    framed += '\n';
    std::size_t off = 0;
    while (off < framed.size()) {
      // MSG_NOSIGNAL: a client that hung up mid-campaign must not SIGPIPE
      // the daemon; the remaining lines are simply dropped.
      const ssize_t n =
          ::send(conn->fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  };
  std::string pending;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = pending.find('\n', start); nl != std::string::npos;
         nl = pending.find('\n', start)) {
      server_.handle_line(std::string_view(pending).substr(start, nl - start), sink);
      start = nl + 1;
    }
    pending.erase(0, start);
    if (server_.shutdown_requested()) break;
  }
}

}  // namespace ckptsim::svc
