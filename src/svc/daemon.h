#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>

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
/// shared CampaignServer.  One poll loop, on the thread that calls run(),
/// owns the listening socket and every connection: it reads without
/// blocking, frames lines, calls handle_line for each (a request whose
/// handling throws, a failed ledger append, gets an id-less "error" line
/// and the connection reads on), and writes what a connection has queued.
/// Response lines for a campaign go to the connection that submitted it.
/// A connection's sink never blocks: it sends what the socket takes on the
/// emitting thread, and queues the rest for the loop to write.  So a
/// client that stops reading holds no server thread; once its queue passes
/// kMaxQueuedBytes it is hung up and its later lines are dropped, while its
/// campaigns run on and fill the cache.  A connection leaves the loop once
/// it sends nothing more, has nothing left to write and no campaign sink
/// holds it; its socket closes with the last reference.
class TcpDaemon {
 public:
  /// Bytes a connection may have queued before it is shut down.
  static constexpr std::size_t kMaxQueuedBytes = std::size_t{4} << 20;

  /// Binds and listens; `port` 0 picks an ephemeral port (read it back via
  /// port()).  Throws SimError(kIoError) when the socket cannot be set up.
  TcpDaemon(CampaignServer& server, std::uint16_t port);
  ~TcpDaemon();

  TcpDaemon(const TcpDaemon&) = delete;
  TcpDaemon& operator=(const TcpDaemon&) = delete;

  /// The bound port (resolved when constructed with port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// The loop.  Returns after a "shutdown" request, or once `stop` became
  /// true (signal handler), the server drained and every queue is written
  /// (a client that does not read is given up on a second after the stop,
  /// or at once if the drain took longer).  On the
  /// way out each connection gets one last non-blocking write of its
  /// queue; from then on sinks drop their lines, so no thread sends on a
  /// socket or wakes the loop after this returns, and a socket closes with
  /// the last sink that holds it.  Campaigns still running are left to the
  /// caller (CampaignServer::stop cancels them).
  void run(const std::atomic<bool>& stop);

 private:
  CampaignServer& server_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: a sink queued bytes for the loop to write
  std::uint16_t port_ = 0;
};

}  // namespace ckptsim::svc
