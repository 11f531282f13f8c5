#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "net/protocol.h"

namespace perfbench {

namespace net = litho::net;

struct LoadGen::Conn {
  int fd = -1;
  std::vector<uint8_t> out;  // bytes queued for the socket
  size_t out_off = 0;
  std::vector<uint8_t> in;   // bytes received, not yet parsed
};

LoadGen::LoadGen(const Traffic& traffic, uint16_t port, int connections)
    : traffic_(traffic) {
  for (int i = 0; i < connections; ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c->fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(c->fd);
      throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(c));
  }
}

LoadGen::~LoadGen() {
  for (auto& c : conns_) ::close(c->fd);
}

void LoadGen::send(int conn, int entry, int phase, Clock::time_point due) {
  Record r;
  r.entry = entry;
  r.conn = conn;
  r.phase = phase;
  r.due = due;
  const uint64_t id = records_.size() + 1;
  Conn& c = *conns_[static_cast<size_t>(conn)];
  const std::vector<uint8_t>& frame =
      traffic_.entries[static_cast<size_t>(entry)].frame;
  const size_t base = c.out.size();
  c.out.insert(c.out.end(), frame.begin(), frame.end());
  for (int i = 0; i < 8; ++i) {  // request_id field, little-endian
    c.out[base + 8 + static_cast<size_t>(i)] =
        static_cast<uint8_t>((id >> (8 * i)) & 0xFF);
  }
  r.sent = Clock::now();
  records_.push_back(std::move(r));
  ++outstanding_;
  // Write eagerly; whatever the socket does not take waits for POLLOUT.
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      throw std::runtime_error("connection to doinn_serve lost on send");
    }
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
}

void LoadGen::handle_frame(int conn, const uint8_t* frame, size_t size) {
  net::FrameHeader h;
  if (!net::decode_header(frame, h)) {
    throw std::runtime_error("unparseable reply header from doinn_serve");
  }
  if (h.request_id == 0 || h.request_id > records_.size()) {
    throw std::runtime_error("reply for an unknown request id");
  }
  Record& r = records_[h.request_id - 1];
  if (r.outcome != Outcome::kPending || r.conn != conn) {
    throw std::runtime_error("duplicate or misrouted reply");
  }
  r.done = Clock::now();
  --outstanding_;
  const Entry& e = traffic_.entries[static_cast<size_t>(r.entry)];
  const uint8_t* payload = frame + net::kHeaderBytes;
  const size_t len = size - net::kHeaderBytes;
  switch (h.type) {
    case net::FrameType::kContour:
      r.outcome = !e.expect_error && len == e.expected.size() &&
                          std::memcmp(payload, e.expected.data(), len) == 0
                      ? Outcome::kOk
                      : Outcome::kMismatch;
      break;
    case net::FrameType::kBusy:
      r.outcome = Outcome::kBusy;
      break;
    case net::FrameType::kError:
      r.error.assign(reinterpret_cast<const char*>(payload), len);
      r.outcome = e.expect_error ? Outcome::kError : Outcome::kMismatch;
      break;
    default:
      throw std::runtime_error("unexpected reply frame type");
  }
}

std::vector<int> LoadGen::pump(int64_t timeout_us) {
  std::vector<pollfd> fds;
  for (auto& c : conns_) {
    short ev = POLLIN;
    if (c->out_off < c->out.size()) ev |= POLLOUT;
    fds.push_back({c->fd, ev, 0});
  }
  const timespec ts{static_cast<time_t>(timeout_us / 1000000),
                    static_cast<long>((timeout_us % 1000000) * 1000)};
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  std::vector<int> completed;
  if (ready <= 0) return completed;
  for (size_t i = 0; i < fds.size(); ++i) {
    Conn& c = *conns_[i];
    if (fds[i].revents & POLLOUT) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) c.out_off += static_cast<size_t>(n);
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    uint8_t buf[1 << 16];
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.insert(c.in.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error("doinn_serve closed a benchmark connection");
    }
    size_t off = 0;
    while (c.in.size() - off >= net::kHeaderBytes) {
      net::FrameHeader h;
      if (!net::decode_header(c.in.data() + off, h)) {
        throw std::runtime_error("unparseable reply header from doinn_serve");
      }
      const size_t total = net::kHeaderBytes + h.payload_bytes;
      if (c.in.size() - off < total) break;
      handle_frame(static_cast<int>(i), c.in.data() + off, total);
      completed.push_back(static_cast<int>(i));
      off += total;
    }
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
  }
  return completed;
}

void LoadGen::drain() {
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (outstanding_ > 0 && Clock::now() < deadline) pump(50000);
  for (Record& r : records_) {
    if (r.outcome == Outcome::kPending) r.outcome = Outcome::kLost;
  }
  outstanding_ = 0;
}

void LoadGen::run_steps(const std::vector<std::vector<int>>& per_conn,
                        int phase) {
  size_t steps = 0;
  for (const auto& seq : per_conn) steps = std::max(steps, seq.size());
  for (size_t k = 0; k < steps; ++k) {
    for (size_t c = 0; c < conns_.size() && c < per_conn.size(); ++c) {
      if (k < per_conn[c].size()) {
        send(static_cast<int>(c), per_conn[c][k], phase, Clock::now());
      }
    }
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (outstanding_ > 0 && Clock::now() < deadline) pump(50000);
  }
  drain();
}

void LoadGen::run_closed(double seconds, std::mt19937_64& rng, int phase) {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (size_t c = 0; c < conns_.size(); ++c) {
    send(static_cast<int>(c), traffic_.pick(rng), phase, Clock::now());
  }
  while (outstanding_ > 0) {
    for (const int c : pump(50000)) {
      const auto now = Clock::now();
      if (now < end) send(c, traffic_.pick(rng), phase, now);
    }
    if (Clock::now() > end + std::chrono::seconds(60)) break;
  }
  drain();
}

void LoadGen::run_open(const std::vector<std::pair<double, int>>& schedule,
                       int phase) {
  const auto start = Clock::now();
  size_t next = 0;
  while (next < schedule.size()) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     schedule[next].first));
    const auto now = Clock::now();
    if (now >= due) {
      send(static_cast<int>(next % conns_.size()), schedule[next].second,
           phase, due);
      ++next;
      continue;
    }
    const int64_t wait_us =
        std::chrono::duration_cast<std::chrono::microseconds>(due - now)
            .count();
    pump(std::max<int64_t>(0, wait_us));
  }
  drain();
}

}  // namespace perfbench
