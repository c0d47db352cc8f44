#include "wire_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "serve/wire.hpp"

namespace perfbench {

namespace wire = eb::serve::wire;
using eb::bnn::Tensor;

namespace {

wire::RequestFrame make_request(const WireTraffic& traffic, std::uint64_t id) {
  wire::RequestFrame req;
  req.request_id = id;
  req.cls = eb::serve::DeadlineClass::kInteractive;  // 100 ms default deadline
  req.model_id = traffic.model;
  req.tensor = (*traffic.inputs)[traffic.input_for(id)];
  return req;
}

// What one phase's client threads share.
struct PhaseCtx {
  const WireTraffic& traffic;
  std::uint64_t first_id;
  std::vector<RequestRecord>& records;
  Tracer* tracer;
  std::uint32_t enc_req = 0, dec_req = 0, enc_resp = 0, dec_resp = 0;

  PhaseCtx(const WireTraffic& t, std::uint64_t first,
           std::vector<RequestRecord>& recs, Tracer* tr)
      : traffic(t), first_id(first), records(recs), tracer(tr) {
    if (tracer != nullptr) {
      enc_req = tracer->name_id("wire.encode_request");
      dec_req = tracer->name_id("wire.decode_request");
      enc_resp = tracer->name_id("wire.encode_response");
      dec_resp = tracer->name_id("wire.decode_response");
    }
  }

  // Encodes request `id`; with a tracer also times the server-side decode
  // of the same bytes, so both request codec directions are measured on
  // the workload's own frames.
  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint64_t id) const {
    const wire::RequestFrame req = make_request(traffic, id);
    double t0 = now_us();
    std::vector<std::uint8_t> frame = wire::encode_request(req);
    if (tracer != nullptr) {
      tracer->record(enc_req, t0, 0, id);
      wire::RequestFrame back;
      std::size_t used = 0;
      t0 = now_us();
      (void)wire::decode_request(frame.data(), frame.size(), back, used);
      tracer->record(dec_req, t0, 0, id);
    }
    return frame;
  }

  // Decodes one response frame into its record (checking the output);
  // with a tracer also times re-encoding it, the server side of the
  // response codec.
  bool decode(const std::uint8_t* data, std::size_t size) const {
    wire::ResponseFrame resp;
    std::size_t used = 0;
    const double t0 = now_us();
    if (wire::decode_response(data, size, resp, used) !=
        wire::DecodeStatus::kOk) {
      return false;
    }
    const double recv = now_us();
    if (tracer != nullptr) {
      tracer->record(Span{dec_resp, 0, 0, resp.request_id, t0, recv});
      const double t1 = now_us();
      (void)wire::encode_response(resp);
      tracer->record(enc_resp, t1, 0, resp.request_id);
    }
    if (resp.request_id < first_id ||
        resp.request_id - first_id >= records.size()) {
      return false;
    }
    RequestRecord& rec = records[resp.request_id - first_id];
    rec.recv_us = recv;
    rec.status = resp.status;
    rec.queue_us = resp.queue_us;
    rec.wrong =
        resp.status == eb::serve::Status::kOk &&
        !same_tensor(resp.tensor,
                     (*traffic.refs)[traffic.input_for(resp.request_id)]);
    return true;
  }
};

// Reads `expected` responses from `fd` into the phase's records.
void receive(int fd, std::size_t expected, const PhaseCtx& ctx) {
  FrameReader reader(fd);
  for (std::size_t got = 0; got < expected; ++got) {
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
    if (!reader.next(data, size) || !ctx.decode(data, size)) {
      return;  // the rest stay unanswered and count as failed
    }
  }
}

}  // namespace

bool same_tensor(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

int connect_loopback(std::uint16_t port, int recv_timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = recv_timeout_ms / 1000;
  tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t k =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k <= 0) {
      return false;
    }
    off += static_cast<std::size_t>(k);
  }
  return true;
}

bool FrameReader::next(const std::uint8_t*& data, std::size_t& size) {
  for (;;) {
    const std::size_t have = tail_ - head_;
    if (have >= 4) {
      std::uint32_t body = 0;
      std::memcpy(&body, buf_.data() + head_, 4);  // little-endian hosts
      const std::size_t frame = std::size_t{4} + body;
      if (have >= frame) {
        data = buf_.data() + head_;
        size = frame;
        head_ += frame;
        return true;
      }
      if (head_ + frame > buf_.size()) {
        // Compact, then grow so the whole frame fits.
        std::memmove(buf_.data(), buf_.data() + head_, have);
        head_ = 0;
        tail_ = have;
        if (frame > buf_.size()) {
          buf_.resize(frame);
        }
      }
    } else if (head_ > 0 && buf_.size() - tail_ < 4) {
      std::memmove(buf_.data(), buf_.data() + head_, have);
      head_ = 0;
      tail_ = have;
    }
    if (buf_.size() - tail_ < 4096) {
      buf_.resize(buf_.size() + 65536);
    }
    const ssize_t k = ::recv(fd_, buf_.data() + tail_, buf_.size() - tail_, 0);
    if (k < 0 && errno == EINTR) {
      continue;
    }
    if (k <= 0) {
      return false;
    }
    tail_ += static_cast<std::size_t>(k);
  }
}

PhaseResult run_open_loop(int fd, const WireTraffic& traffic,
                          std::uint64_t first_id,
                          const std::vector<double>& offsets_s,
                          Tracer* tracer) {
  PhaseResult res;
  const std::size_t n = offsets_s.size();
  res.records.resize(n);
  res.lag_ms.reserve(n);
  const PhaseCtx ctx(traffic, first_id, res.records, tracer);
  res.start_us = now_us() + 1000.0;  // first arrival no earlier than 1 ms out
  for (std::size_t i = 0; i < n; ++i) {
    res.records[i].sched_us = res.start_us + offsets_s[i] * 1e6;
  }

  std::thread receiver;
  if (fd >= 0) {
    receiver = std::thread(receive, fd, n, std::cref(ctx));
  }
  const auto epoch = std::chrono::steady_clock::now() -
                     std::chrono::microseconds(static_cast<long long>(now_us()));
  for (std::size_t i = 0; i < n; ++i) {
    RequestRecord& rec = res.records[i];
    std::this_thread::sleep_until(
        epoch + std::chrono::microseconds(static_cast<long long>(rec.sched_us)));
    std::vector<std::uint8_t> frame = ctx.encode(first_id + i);
    rec.send_us = now_us();
    res.lag_ms.push_back((rec.send_us - rec.sched_us) / 1000.0);
    if (fd >= 0 && !send_all(fd, frame)) {
      ::shutdown(fd, SHUT_RD);  // release the receiver; the rest fail
    }
  }
  if (receiver.joinable()) {
    receiver.join();
  }
  res.end_us = now_us();
  if (tracer != nullptr) {
    const std::uint32_t name = tracer->name_id("client.request");
    for (std::size_t i = 0; i < n; ++i) {
      const RequestRecord& rec = res.records[i];
      if (rec.recv_us > 0.0) {
        tracer->record(Span{name, 0, 0, first_id + i, rec.send_us, rec.recv_us});
      }
    }
  }
  return res;
}

PhaseResult run_closed_loop(int fd, const WireTraffic& traffic,
                            std::uint64_t first_id, std::size_t count,
                            std::size_t window, double give_up_s) {
  PhaseResult res;
  res.records.resize(count);
  const PhaseCtx ctx(traffic, first_id, res.records, nullptr);
  res.start_us = now_us();
  const double give_up_us = res.start_us + give_up_s * 1e6;
  std::size_t next = 0;
  const auto send_next = [&] {
    RequestRecord& rec = res.records[next];
    std::vector<std::uint8_t> frame = ctx.encode(first_id + next);
    rec.send_us = now_us();
    rec.sched_us = rec.send_us;
    ++next;
    return send_all(fd, frame);
  };
  // Keep `window` requests in flight: one more goes out per response.
  std::size_t outstanding = 0;
  while (fd >= 0 && outstanding < window && next < count && send_next()) {
    ++outstanding;
  }
  FrameReader reader(fd);
  while (outstanding > 0) {
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
    if (!reader.next(data, size) || !ctx.decode(data, size)) {
      break;  // the rest stay unanswered and count as failed
    }
    --outstanding;
    if (next < count && now_us() < give_up_us) {
      if (!send_next()) {
        break;
      }
      ++outstanding;
    }
  }
  res.end_us = now_us();
  return res;
}

StatsPoller::StatsPoller(int fd, int period_ms, Tracer* tracer)
    : fd_(fd), period_ms_(period_ms), tracer_(tracer) {
  thread_ = std::thread([this] { loop(); });
}

StatsPoller::~StatsPoller() { (void)stop(); }

std::vector<double> StatsPoller::stop() {
  stop_.store(true);
  if (thread_.joinable()) {
    thread_.join();
  }
  return rtt_ms_;
}

void StatsPoller::loop() {
  FrameReader reader(fd_);
  const std::uint32_t name =
      tracer_ != nullptr ? tracer_->name_id("client.stats") : 0;
  auto tick = std::chrono::steady_clock::now();
  for (std::uint64_t id = 1; !stop_.load(); ++id) {
    tick += std::chrono::milliseconds(period_ms_);
    std::this_thread::sleep_until(tick);
    if (stop_.load()) {
      break;
    }
    wire::StatsFrame req;
    req.request_id = id;
    const double t0 = now_us();
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
    wire::StatsFrame resp;
    std::size_t used = 0;
    if (fd_ < 0 || !send_all(fd_, wire::encode_stats(req)) ||
        !reader.next(data, size) ||
        wire::decode_stats(data, size, resp, used) != wire::DecodeStatus::kOk ||
        !resp.response || resp.request_id != id) {
      ++failures_;
      if (fd_ < 0) {
        continue;
      }
      return;
    }
    rtt_ms_.push_back((now_us() - t0) / 1000.0);
    if (tracer_ != nullptr) {
      tracer_->record(name, t0, 0, id);
    }
  }
}

}  // namespace perfbench
