// Loopback load generator speaking the framed wire protocol.
//
// The open loop sends on a precomputed Poisson schedule from one sender
// thread, with one receiver thread; every request is timed from its
// *scheduled* send time, so a stall also charges the requests queued
// behind it. The closed loop keeps a fixed number of pipelined requests
// in flight from the calling thread. A stats poller sends a type-6 stats
// frame every period on its own connection.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bnn/tensor.hpp"
#include "serve/server.hpp"
#include "trace.hpp"

namespace perfbench {

/// Tensor equality down to the bit pattern of every element.
[[nodiscard]] bool same_tensor(const eb::bnn::Tensor& a,
                               const eb::bnn::Tensor& b);

/// Blocking IPv4 loopback connection with a receive timeout; -1 when the
/// connection is refused.
[[nodiscard]] int connect_loopback(std::uint16_t port, int recv_timeout_ms);
/// Writes every byte of `bytes`; false on a socket error.
[[nodiscard]] bool send_all(int fd, const std::vector<std::uint8_t>& bytes);

/// Buffered reader handing out one whole length-prefixed frame at a time.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}
  /// Blocks until a whole frame is buffered, then points data/size at it
  /// (valid until the next call). False on EOF, error or timeout.
  bool next(const std::uint8_t*& data, std::size_t& size);

 private:
  int fd_;
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;  // first unconsumed byte
  std::size_t tail_ = 0;  // one past the last buffered byte
};

/// The requests a phase sends: request `id` carries inputs[input_for(id)]
/// and must come back equal to refs[input_for(id)].
struct WireTraffic {
  std::string model;
  const std::vector<eb::bnn::Tensor>* inputs = nullptr;
  const std::vector<eb::bnn::Tensor>* refs = nullptr;
  std::vector<std::size_t> order;  ///< Seeded pool indices, cycled by id.

  [[nodiscard]] std::size_t input_for(std::uint64_t id) const {
    return order[id % order.size()];
  }
};

/// One request's fate.
struct RequestRecord {
  double sched_us = 0.0;  ///< Scheduled send (open loop) or actual send.
  double send_us = 0.0;   ///< Actual send.
  double recv_us = 0.0;   ///< Response received; 0 = never.
  double queue_us = 0.0;  ///< ResponseFrame::queue_us.
  eb::serve::Status status = eb::serve::Status::kRejected;
  bool wrong = false;     ///< kOk but the output differs from the reference.

  [[nodiscard]] bool ok() const {
    return recv_us > 0.0 && status == eb::serve::Status::kOk && !wrong;
  }
};

struct PhaseResult {
  std::vector<RequestRecord> records;  ///< Indexed by id - first_id.
  std::vector<double> lag_ms;          ///< Open loop: send - scheduled.
  double start_us = 0.0;               ///< Phase start.
  double end_us = 0.0;                 ///< Last response (or give-up).
};

/// Open loop on connection `fd`: request first_id + i is due at
/// start + offsets_s[i]. With a tracer, records a "client.request" span
/// per request and times the wire codec calls.
[[nodiscard]] PhaseResult run_open_loop(int fd, const WireTraffic& traffic,
                                        std::uint64_t first_id,
                                        const std::vector<double>& offsets_s,
                                        Tracer* tracer);

/// Closed loop on connection `fd`: `count` requests, `window` of them in
/// flight. Nothing more is sent after `give_up_s` seconds; requests left
/// unsent count as failed.
[[nodiscard]] PhaseResult run_closed_loop(int fd, const WireTraffic& traffic,
                                          std::uint64_t first_id,
                                          std::size_t count, std::size_t window,
                                          double give_up_s);

/// Sends one stats request every `period_ms` on its own connection and
/// times each round trip, until stop().
class StatsPoller {
 public:
  StatsPoller(int fd, int period_ms, Tracer* tracer);
  ~StatsPoller();
  StatsPoller(const StatsPoller&) = delete;
  StatsPoller& operator=(const StatsPoller&) = delete;

  /// Stops polling and returns every round trip, milliseconds. A poll
  /// that fails counts in failures().
  std::vector<double> stop();
  [[nodiscard]] std::size_t failures() const { return failures_; }

 private:
  void loop();

  int fd_;
  int period_ms_;
  Tracer* tracer_;
  std::atomic<bool> stop_{false};
  std::vector<double> rtt_ms_;
  std::size_t failures_ = 0;
  std::thread thread_;  // last: started after the members it uses
};

}  // namespace perfbench
