#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <list>
#include <memory>
#include <mutex>
#include <thread>

#include "src/svc/server.h"

namespace ckptsim::svc {

/// Drive a CampaignServer from a line stream (ckptsimd --once): reads
/// newline-delimited requests from `in` until EOF, streams response lines
/// to `out` (write-serialized — campaign responses arrive on worker
/// threads), then drains the server.  The CI smoke test and the unit tests
/// use this mode to exercise the full request path without sockets.
void serve_stream(CampaignServer& server, std::FILE* in, std::FILE* out);

/// TCP transport of ckptsimd: listens on 127.0.0.1 (loopback only — the
/// daemon is a local compute service, not a network product), accepts any
/// number of concurrent clients, and feeds each connection's lines to the
/// shared CampaignServer.  Each connection gets a reader thread and a
/// write-serialized sink; response lines for a campaign go to the
/// connection that submitted it.  The accept loop joins the reader of a
/// closed connection on its next pass; the socket closes once no campaign
/// sink holds it.
class TcpDaemon {
 public:
  /// Binds and listens; `port` 0 picks an ephemeral port (read it back via
  /// port()).  Throws SimError(kIoError) when the socket cannot be set up.
  TcpDaemon(CampaignServer& server, std::uint16_t port);
  ~TcpDaemon();

  TcpDaemon(const TcpDaemon&) = delete;
  TcpDaemon& operator=(const TcpDaemon&) = delete;

  /// The bound port (resolved when constructed with port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accept loop.  Returns once `stop` becomes true (signal handler) or
  /// the server saw a "shutdown" request; on the way out every connection
  /// is shut down and its reader joined, so no thread touches the sockets
  /// after this returns.  Campaigns still running are left to the caller
  /// (CampaignServer::stop cancels them).
  void run(const std::atomic<bool>& stop);

 private:
  /// One client socket shared between its reader thread and the campaign
  /// sinks that outlive it; the fd closes when the last reference drops.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    int fd;
    std::mutex write_mu;
    std::atomic<bool> reader_done{false};  ///< raised as the reader returns
  };
  struct Reader {
    std::shared_ptr<Connection> conn;
    std::thread thread;
  };

  void serve_connection(const std::shared_ptr<Connection>& conn);
  /// Join the readers that returned and let go of their connections.
  void reap_readers();

  CampaignServer& server_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::list<Reader> readers_;  ///< touched by run() and the destructor only
};

}  // namespace ckptsim::svc
