// Single-threaded load generator over nonblocking loopback connections.
//
// One thread drives every connection with poll(): closed-loop clients send
// their next request when the previous reply arrives; the open-loop
// generator sends each request at its scheduled due time whatever the
// replies do, pipelining over the connections round-robin. Every reply is
// compared byte for byte with the reference payload of the request's entry.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "traffic.h"

namespace perfbench {

enum class Outcome : uint8_t {
  kPending,   ///< no reply yet (becomes kLost if the drain times out)
  kOk,        ///< CONTOUR identical to the reference
  kMismatch,  ///< reply disagrees with the reference (wrong bytes, or
              ///< CONTOUR/ERROR where the reference did the opposite)
  kError,     ///< ERROR reply the reference also produced
  kBusy,      ///< BUSY refusal
  kLost,      ///< never answered
};

struct Record {
  int entry = 0;
  int conn = 0;
  int phase = 0;
  Clock::time_point due{};   ///< open loop: schedule time; else == sent
  Clock::time_point sent{};
  Clock::time_point done{};
  Outcome outcome = Outcome::kPending;
  std::string error;  ///< ERROR reply text
};

class LoadGen {
 public:
  /// Opens @p connections loopback connections to @p port.
  LoadGen(const Traffic& traffic, uint16_t port, int connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Lock-step: at step k every connection c sends per_conn[c][k] at once,
  /// and step k+1 starts when every reply of step k is in.
  void run_steps(const std::vector<std::vector<int>>& per_conn, int phase);

  /// Closed loop for @p seconds: every connection keeps exactly one request
  /// outstanding, entries drawn from the traffic mix. Requests sent before
  /// the window ends are all awaited.
  void run_closed(double seconds, std::mt19937_64& rng, int phase);

  /// Open loop: schedule[i] = (offset in seconds from now, entry); requests
  /// go out round-robin over the connections at their due times.
  void run_open(const std::vector<std::pair<double, int>>& schedule,
                int phase);

  const std::vector<Record>& records() const { return records_; }

 private:
  struct Conn;

  void send(int conn, int entry, int phase, Clock::time_point due);
  /// Polls once for up to @p timeout_us; returns connections that
  /// completed a request.
  std::vector<int> pump(int64_t timeout_us);
  void handle_frame(int conn, const uint8_t* frame, size_t size);
  /// Waits up to 60 s for outstanding replies; the rest become kLost.
  void drain();

  const Traffic& traffic_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<Record> records_;
  size_t outstanding_ = 0;
};

}  // namespace perfbench
