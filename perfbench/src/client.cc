// Closed-loop ckptsimd client.  Each of --conns connections takes the next
// request of the list, sends it, and waits for its terminal line before
// sending another (--window raises the number in flight per connection;
// only the failure-accounting test uses that).  Every response line is
// timestamped on arrival and each request's terminal line is classified.

#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "trace.h"

namespace perfbench {
namespace {

struct Record {
  std::int64_t send_ns = 0;
  std::int64_t accepted_ns = 0;
  std::int64_t first_point_ns = 0;
  std::int64_t done_ns = 0;
  std::string terminal;  ///< done|error|rejected|draining|cancelled|lost
  std::string id;
  std::size_t conn = 0;
  std::size_t points = 0;
  std::size_t cached_points = 0;
  std::size_t point_errors = 0;
  std::size_t failed_points = 0;  ///< from the done line

  [[nodiscard]] bool failed() const {
    return terminal != "done" || failed_points > 0 || point_errors > 0;
  }
};

int dial(int port) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  throw std::runtime_error("cannot connect to 127.0.0.1:" + std::to_string(port));
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Buffered line reader over a socket; false at EOF or error.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  bool next(std::string* line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line->assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// Offset of the value of the first `"key":` in a response line, or npos.
/// Top-level keys come first in every line the daemon writes ("type",
/// "id", then the rest), so the first match is the top-level one.
std::size_t value_at(const std::string& line, const char* key) {
  const std::string pat = std::string("\"") + key + "\":";
  std::size_t at = line.find(pat);
  if (at == std::string::npos) return at;
  at += pat.size();
  while (at < line.size() && line[at] == ' ') ++at;
  return at;
}

std::string string_field(const std::string& line, const char* key) {
  const std::size_t at = value_at(line, key);
  if (at == std::string::npos || line[at] != '"') return "";
  return line.substr(at + 1, line.find('"', at + 1) - at - 1);
}

std::size_t uint_field(const std::string& line, const char* key) {
  const std::size_t at = value_at(line, key);
  return at == std::string::npos ? 0 : std::strtoull(line.c_str() + at, nullptr, 10);
}

bool true_field(const std::string& line, const char* key) {
  const std::size_t at = value_at(line, key);
  return at != std::string::npos && line.compare(at, 4, "true") == 0;
}

struct Shared {
  std::vector<std::string> requests;
  std::vector<Record> records;
  std::atomic<std::size_t> next{0};
  std::size_t window = 1;
  bool keep_points = false;
  std::mutex points_mu;
  std::vector<std::string> point_lines;
};

void run_connection(Shared& sh, std::size_t conn, int port) {
  const int fd = dial(port);
  LineReader reader(fd);
  std::deque<std::size_t> inflight;
  std::vector<std::string> kept;
  std::string line;
  for (;;) {
    while (inflight.size() < sh.window) {
      const std::size_t i = sh.next.fetch_add(1);
      if (i >= sh.requests.size()) break;
      Record& rec = sh.records[i];
      rec.conn = conn;
      rec.id = string_field(sh.requests[i], "id");
      rec.send_ns = now_ns();
      inflight.push_back(i);
      if (!send_all(fd, sh.requests[i] + "\n")) break;
    }
    if (inflight.empty()) break;
    if (!reader.next(&line)) {
      const std::int64_t t = now_ns();
      for (const std::size_t i : inflight) {
        sh.records[i].terminal = "lost";
        sh.records[i].done_ns = t;
      }
      break;
    }
    const std::int64_t t = now_ns();
    const std::string type = string_field(line, "type");
    const std::string id = string_field(line, "id");
    // The request a line answers: by id, else the oldest in flight not yet
    // accepted (a malformed request's error carries no id).
    auto it = inflight.end();
    for (auto j = inflight.begin(); j != inflight.end() && it == inflight.end(); ++j) {
      if (!id.empty() && sh.records[*j].id == id) it = j;
    }
    for (auto j = inflight.begin(); j != inflight.end() && it == inflight.end(); ++j) {
      if (sh.records[*j].accepted_ns == 0) it = j;
    }
    if (it == inflight.end()) it = inflight.begin();
    Record& rec = sh.records[*it];
    bool terminal = false;
    if (type == "accepted") {
      rec.accepted_ns = t;
    } else if (type == "point") {
      if (rec.first_point_ns == 0) rec.first_point_ns = t;
      ++rec.points;
      if (true_field(line, "cached")) ++rec.cached_points;
      if (sh.keep_points) kept.push_back(line);
    } else if (type == "error" && rec.accepted_ns != 0) {
      ++rec.point_errors;  // one failed point; the campaign goes on
    } else if (type == "done") {
      rec.failed_points = uint_field(line, "failed");
      terminal = true;
    } else if (type == "error" || type == "rejected" || type == "draining" ||
               type == "cancelled") {
      terminal = true;
    }
    if (terminal) {
      rec.terminal = type;
      rec.done_ns = t;
      inflight.erase(it);
    }
  }
  ::close(fd);
  if (sh.keep_points) {
    const std::lock_guard<std::mutex> lock(sh.points_mu);
    for (std::string& l : kept) sh.point_lines.push_back(std::move(l));
  }
}

/// Round trips of {"op":"ping"} on one connection, in microseconds.
std::vector<double> ping_rtts(int port, std::size_t count) {
  std::vector<double> rtts;
  if (count == 0) return rtts;
  const int fd = dial(port);
  LineReader reader(fd);
  std::string line;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t t0 = now_ns();
    if (!send_all(fd, "{\"op\":\"ping\"}\n") || !reader.next(&line)) break;
    rtts.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  ::close(fd);
  return rtts;
}

}  // namespace

int cmd_client(const ckptsim::report::Cli& cli) {
  Shared sh;
  sh.requests = read_lines(cli.value("--requests"));
  sh.records.resize(sh.requests.size());
  sh.window = static_cast<std::size_t>(cli.number("--window", 1));
  const std::string points_path = cli.value("--points");
  sh.keep_points = !points_path.empty();
  const int port = static_cast<int>(cli.number("--port", 0));
  const auto conns = static_cast<std::size_t>(cli.number("--conns", 1));

  const std::vector<double> pings =
      ping_rtts(port, static_cast<std::size_t>(cli.number("--pings", 0)));
  std::vector<std::thread> threads;
  std::vector<std::string> errors(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&sh, &errors, c, port] {
      try {
        run_connection(sh, c, port);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) std::cerr << "client: " << e << "\n";
  }

  std::ofstream out(cli.value("--out"));
  for (std::size_t i = 0; i < sh.records.size(); ++i) {
    const Record& r = sh.records[i];
    out << "{\"i\":" << i << ",\"conn\":" << r.conn << ",\"send_ns\":" << r.send_ns
        << ",\"accepted_ns\":" << r.accepted_ns << ",\"first_point_ns\":" << r.first_point_ns
        << ",\"done_ns\":" << r.done_ns << ",\"terminal\":\""
        << (r.terminal.empty() ? "lost" : r.terminal) << "\",\"points\":" << r.points
        << ",\"cached_points\":" << r.cached_points << ",\"point_errors\":" << r.point_errors
        << ",\"failed_points\":" << r.failed_points
        << ",\"failed\":" << (r.failed() || r.terminal.empty() ? "true" : "false") << "}\n";
  }
  if (sh.keep_points) {
    std::ofstream pts(points_path);
    for (const std::string& l : sh.point_lines) pts << l << "\n";
  }
  std::ostringstream s;
  s.precision(17);
  s << "{\"pings_us\":[";
  for (std::size_t i = 0; i < pings.size(); ++i) s << (i ? "," : "") << pings[i];
  s << "]}";
  std::cout << s.str() << std::endl;
  return out.good() ? 0 : 1;
}

}  // namespace perfbench
