#include "src/svc/daemon.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

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

namespace {

/// How long after a stop a drained loop may go on writing what its
/// connections have queued.
constexpr std::chrono::seconds kLastWrites{1};

/// One client socket, shared between the loop and the campaign sinks that
/// outlive its requests; the fd closes when the last reference drops.
struct Connection {
  Connection(int fd, int wake_fd) : fd(fd), wake_fd(wake_fd) {}
  ~Connection() { ::close(fd); }

  /// The sink: queue `line` and send what the socket takes of the queue,
  /// and wake the loop when bytes are left where none were.  Sending on
  /// every line, not only the first, lets a client that reads keep up with
  /// a burst from the loop itself (a sweep served from the cache), which
  /// cannot write the queue until the burst is over.
  void send_line(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mu);
    if (closed) return;
    const bool idle = out.empty();
    out += line;
    out += '\n';
    write_queued();
    if (out.empty()) return;              // the usual case: the line left on this thread
    if (idle) eventfd_write(wake_fd, 1);  // the loop polls for room from now on
    if (out.size() > TcpDaemon::kMaxQueuedBytes) {
      // A client that stopped reading is hung up rather than buffered
      // without bound; its campaigns run on and fill the cache.
      ::shutdown(fd, SHUT_RDWR);
      drop();
    }
  }

  /// The loop's write: what the socket takes of the queue, without
  /// blocking; after the `last` one the sinks drop their lines.  Returns
  /// whether bytes are left.
  bool flush(bool last = false) {
    const std::lock_guard<std::mutex> lock(mu);
    if (!out.empty()) write_queued();
    if (last) drop();
    return !out.empty();
  }

  /// Send what is queued without blocking.  Caller holds mu.
  void write_queued() {
    // MSG_NOSIGNAL: a client that hung up mid-campaign must not SIGPIPE the
    // daemon; its remaining lines are simply dropped.
    const ssize_t n = ::send(fd, out.data(), out.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n >= 0) {
      out.erase(0, static_cast<std::size_t>(n));
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      drop();
    }
  }

  /// Drop what is queued and every later line.  Caller holds mu.
  void drop() {
    closed = true;
    std::string().swap(out);
  }

  const int fd;
  const int wake_fd;
  std::string in;       ///< received bytes not yet framed (loop only)
  bool reading = true;  ///< until end of file or an error (loop only)
  std::mutex mu;
  std::string out;      ///< framed lines the socket has not taken (mu)
  bool closed = false;  ///< hung up, over the cap or run() returned: lines are dropped (mu)
};

/// Read what `conn` sent and hand each complete line to `server`.
void read_requests(CampaignServer& server, const std::shared_ptr<Connection>& conn) {
  char buf[65536];
  const ssize_t n = ::recv(conn->fd, buf, sizeof buf, MSG_DONTWAIT);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
  if (n <= 0) {
    // The end of the requests.  A client that half-closed still gets
    // every line its campaigns send.
    conn->reading = false;
    return;
  }
  conn->in.append(buf, static_cast<std::size_t>(n));
  const CampaignServer::Sink sink = [conn](const std::string& line) { conn->send_line(line); };
  std::size_t start = 0;
  for (std::size_t nl = conn->in.find('\n'); nl != std::string::npos;
       nl = conn->in.find('\n', start)) {
    try {
      server.handle_line(std::string_view(conn->in).substr(start, nl - start), sink);
    } catch (const std::exception& e) {
      // A request whose handling failed (a ledger append the disk
      // refused): answer it, id-less like an unparsable line, and serve
      // on.  The server has already unlisted the campaign.
      server.metrics().service().errors.fetch_add(1, std::memory_order_relaxed);
      sink(response_error("", e.what()));
    }
    start = nl + 1;
    if (server.shutdown_requested()) break;
  }
  conn->in.erase(0, start);
}

}  // namespace

TcpDaemon::TcpDaemon(CampaignServer& server, std::uint16_t port) : server_(server) {
  const auto fail = [this](const std::string& what) {
    const std::string why = std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    throw SimError(ErrorCode::kIoError, "ckptsimd: " + what + ": " + why);
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) fail("socket");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) fail("eventfd");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    fail("cannot listen on 127.0.0.1:" + std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
}

TcpDaemon::~TcpDaemon() {
  ::close(listen_fd_);
  ::close(wake_fd_);
}

void TcpDaemon::run(const std::atomic<bool>& stop) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::shared_ptr<Connection>> polled;  ///< the connection of fds[2 + i]
  std::vector<pollfd> fds;
  Clock::time_point accept_at{};  ///< out of descriptors, the listener rests until then
  // SIGTERM/SIGINT first puts the server into graceful drain: new sweep
  // requests get an explicit "draining" response while in-flight
  // replications park at their next snapshot boundary.  Once nothing is
  // running the loop exits when every queue is written, so a client that
  // reads gets every line, its op's "draining" included; or, for a client
  // that does not read, once kLastWrites has passed since the stop, so a
  // drain that took that long already is not held up further.  A
  // "shutdown" request keeps the old immediate exit.
  bool draining = false;
  Clock::time_point writes_end{};  ///< draining: from then on queued lines do not hold the exit
  while (!server_.shutdown_requested()) {
    const Clock::time_point now = Clock::now();
    if (stop.load(std::memory_order_relaxed) && !draining) {
      server_.begin_drain();
      draining = true;
      writes_end = now + kLastWrites;
    }
    // Before the flush: a drained server queues no more campaign lines, so
    // the flush below sees every one of them.
    const bool drained = draining && server_.drained();
    // Write what each socket takes of its queue, and poll each connection
    // only for what it can use: one that reads nothing more and has nothing
    // queued stays out, or a hung-up peer's POLLHUP would wake the loop
    // again and again.  Once no campaign sink holds it either, it leaves
    // the loop and its socket closes.
    const bool listening = now >= accept_at;
    fds.assign({pollfd{wake_fd_, POLLIN, 0}, pollfd{listening ? listen_fd_ : -1, POLLIN, 0}});
    polled.clear();
    bool any_queued = false;
    std::erase_if(conns, [&](const std::shared_ptr<Connection>& c) {
      // Only the loop makes new references, so a count of 1 stays 1.  Read
      // it first: a sink may queue a line, then let go.
      const bool held = c.use_count() > 1;
      const bool queued = c->flush();
      any_queued = any_queued || queued;
      if (!c->reading && !queued) return !held;
      const short events = static_cast<short>((c->reading ? POLLIN : 0) | (queued ? POLLOUT : 0));
      fds.push_back(pollfd{c->fd, events, 0});
      polled.push_back(c);
      return false;
    });
    if (drained && (!any_queued || now >= writes_end)) break;
    // A short timeout, so the stop and shutdown flags are noticed promptly
    // even when no client ever connects.
    const auto timeout = listening ? std::chrono::milliseconds(200)
                                   : std::chrono::ceil<std::chrono::milliseconds>(accept_at - now);
    const int ready = ::poll(fds.data(), fds.size(), static_cast<int>(timeout.count()));
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    eventfd_t woken = 0;
    if (fds[0].revents != 0) eventfd_read(wake_fd_, &woken);
    for (std::size_t i = 0; i < polled.size() && !server_.shutdown_requested(); ++i) {
      if (polled[i]->reading && (fds[2 + i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        read_requests(server_, polled[i]);
      }
    }
    if ((fds[1].revents & POLLIN) == 0) continue;
    for (int fd; (fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK)) >= 0;) {
      // The sink sends each response line on its own; with Nagle's
      // algorithm a line sent while the previous one is unacknowledged
      // would wait for the client's delayed ACK (40 ms or more on Linux).
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      conns.push_back(std::make_shared<Connection>(fd, wake_fd_));
    }
    // Out of descriptors (EMFILE) the connection stays pending and poll
    // reports it again at once: rest the listener instead of spinning, and
    // serve the connections there are until some close.
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
      accept_at = Clock::now() + std::chrono::milliseconds(100);
    }
  }
  // The last write; from here on the sinks drop their lines, and a socket
  // closes with the last campaign that holds it.
  for (const std::shared_ptr<Connection>& c : conns) c->flush(/*last=*/true);
}

}  // namespace ckptsim::svc
