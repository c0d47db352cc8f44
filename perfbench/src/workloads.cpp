#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <span>

#include "arrivals.hpp"
#include "bnn/autotune.hpp"
#include "bnn/batch_runner.hpp"
#include "bnn/model_zoo.hpp"
#include "bnn/network.hpp"
#include "common/bitvec.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "device/noise.hpp"
#include "mapping/executor.hpp"
#include "mapping/tacitmap.hpp"
#include "serve/gateway.hpp"
#include "serve/tcp_frontend.hpp"
#include "summary.hpp"
#include "wire_client.hpp"

namespace perfbench {

namespace {

using eb::ThreadPool;
using eb::bnn::Network;
using eb::bnn::Tensor;

// Model weights are part of a workload's definition; only the inputs
// come from the run's seed.
constexpr std::uint64_t kModelSeed = 0x5EED0001;
constexpr std::size_t kPoolSize = 256;  // distinct inputs; > one batch
constexpr std::size_t kBatch = 64;
constexpr double kLatencyLimitMs = 100.0;  // interactive class deadline

// One fixed stream per (seed, purpose), so adding a draw for one purpose
// never shifts another's inputs.
eb::RngStream stream(std::uint64_t seed, std::uint64_t purpose) {
  return eb::RngStream(seed).fork(purpose, 0, 0);
}

double since_s(double t0_us) { return (now_us() - t0_us) / 1e6; }

double median_of(std::vector<double> xs) {
  return summarize(std::move(xs)).median;
}

constexpr std::size_t kWindows = 10;  // throughput and tail windows per phase

// The end-to-end metrics every workload reports (peak_rss_mb is added
// per process).
std::vector<Metric> end_to_end(const std::vector<double>& setup_s,
                               const Summary& latency, double samples_per_s,
                               std::size_t rate_samples) {
  return {
      {"setup_s", median_of(setup_s), "s", setup_s.size()},
      {"p50_ms", latency.median, "ms", latency.count},
      {"samples_per_s", samples_per_s, "1/s", rate_samples,
       "median over windows"},
  };
}

// Times back-to-back calls of a closed batch loop.
struct BatchTimes {
  std::vector<double> end_us;  // completion stamp per call
  std::vector<double> ms;      // duration per call
  double start_us = 0.0;
  double stop_us = 0.0;

  [[nodiscard]] Summary latency() const { return summarize(ms); }
  // Median over windows of samples per busy second.
  [[nodiscard]] double samples_per_s(std::size_t per_call) const {
    std::vector<double> rates;
    for (const auto& w :
         split_windows(end_us, ms, start_us, stop_us, kWindows)) {
      double busy_ms = 0.0;
      for (const double d : w) {
        busy_ms += d;
      }
      if (busy_ms > 0.0) {
        rates.push_back(static_cast<double>(per_call * w.size()) /
                        (busy_ms / 1e3));
      }
    }
    return median_of(std::move(rates));
  }
};

// Runs call(b) for b = 0, 1, ... until `seconds` have passed (at least
// once), timing each call; check(b) runs untimed after each.
template <typename Call, typename Check>
BatchTimes time_batches(double seconds, Call&& call, Check&& check) {
  BatchTimes t;
  t.start_us = now_us();
  const double end = t.start_us + seconds * 1e6;
  for (std::size_t b = 0; b == 0 || now_us() < end; ++b) {
    const double t0 = now_us();
    call(b);
    const double t1 = now_us();
    t.end_us.push_back(t1);
    t.ms.push_back((t1 - t0) / 1e3);
    check(b);
  }
  t.stop_us = now_us();
  return t;
}

// Inputs are 8-bit pixels k/255.
std::vector<Tensor> pixel_pool(const std::vector<std::size_t>& shape,
                               std::uint64_t seed) {
  eb::RngStream rng = stream(seed, 1);
  std::vector<Tensor> pool;
  pool.reserve(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    Tensor t(shape);
    for (std::size_t j = 0; j < t.size(); ++j) {
      t[j] = static_cast<double>(rng.uniform_int(0, 255)) / 255.0;
    }
    pool.push_back(std::move(t));
  }
  return pool;
}

// Seeded pool indices the traffic cycles through.
std::vector<std::size_t> pool_order(std::uint64_t seed, std::size_t n) {
  eb::RngStream rng = stream(seed, 2);
  std::vector<std::size_t> order(n);
  for (auto& i : order) {
    i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kPoolSize) - 1));
  }
  return order;
}

std::vector<Tensor> references(const Network& net,
                               const std::vector<Tensor>& inputs) {
  std::vector<Tensor> refs;
  refs.reserve(inputs.size());
  for (const Tensor& x : inputs) {
    refs.push_back(net.forward(x));
  }
  return refs;
}

// Per-layer spans around each Layer::forward_batch, under one span per
// batch: the same math as Network::forward_batch, one layer at a time.
class LayerProfiler {
 public:
  LayerProfiler(const Network& net, Tracer& tracer)
      : net_(net), tracer_(tracer) {
    const std::string prefix = "bnn." + net.name() + ".";
    batch_name_ = tracer.name_id(prefix + "batch");
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      layer_names_.push_back(tracer.name_id(prefix + net.layer(i).name()));
    }
  }

  std::vector<Tensor> forward(std::span<const Tensor> inputs,
                              ThreadPool& pool) {
    const std::uint64_t batch = tracer_.next_id();
    const double start = now_us();
    std::vector<Tensor> xs;
    for (std::size_t i = 0; i < net_.layer_count(); ++i) {
      const double t0 = now_us();
      xs = i == 0 ? net_.layer(0).forward_batch(inputs, pool)
                  : net_.layer(i).forward_batch(xs, pool);
      tracer_.record(layer_names_[i], t0, batch);
    }
    tracer_.record(Span{batch_name_, batch, 0, 0, start, now_us()});
    samples_.fetch_add(inputs.size());
    return xs;
  }

  // bnn.<model>.* from the recorded spans.
  void report(std::vector<Metric>& out) const {
    const auto totals = tracer_.totals();
    const std::string prefix = "bnn." + net_.name() + ".";
    const auto find = [&](const std::string& name) {
      const auto it = totals.find(name);
      return it == totals.end() ? SpanTotals{} : it->second;
    };
    const SpanTotals batch = find(prefix + "batch");
    const double batches = std::max<double>(1.0, static_cast<double>(batch.count));
    double covered_us = 0.0;
    double real_us = 0.0;
    double binary_us = 0.0;
    for (std::size_t i = 0; i < net_.layer_count(); ++i) {
      const auto spec = net_.layer(i).spec();
      const SpanTotals t = find(prefix + spec.name);
      out.push_back({prefix + spec.name + ".ms", t.self_us / batches / 1000.0,
                     "ms", batch.count});
      covered_us += t.total_us;
      if (spec.mac_count() == 0) {
        continue;
      }
      (spec.precision == eb::bnn::Precision::Int8 ? real_us : binary_us) +=
          t.self_us;
    }
    const auto spec = net_.spec();
    const double samples = static_cast<double>(samples_.load());
    out.push_back({prefix + "forward_ms", batch.total_us / batches / 1000.0,
                   "ms", batch.count});
    out.push_back({prefix + "real_share", real_us / batch.total_us, "ratio",
                   batch.count});
    out.push_back({prefix + "coverage", covered_us / batch.total_us, "ratio",
                   batch.count});
    out.push_back({prefix + "real_gmac_s",
                   static_cast<double>(spec.int8_macs()) * samples /
                       (real_us * 1e3),
                   "GMAC/s", batch.count});
    if (spec.binary_bit_ops() > 0) {
      out.push_back({prefix + "binary_gop_s",
                     static_cast<double>(spec.binary_bit_ops()) * samples /
                         (binary_us * 1e3),
                     "GOP/s", batch.count});
    }
  }

 private:
  const Network& net_;
  Tracer& tracer_;
  std::uint32_t batch_name_ = 0;
  std::vector<std::uint32_t> layer_names_;
  std::atomic<std::size_t> samples_{0};
};

// Fills the autotuner from empty for every batch-size class serving can
// hit (powers of two up to kBatch), as a fresh process would have to.
// Returns the seconds it took.
double warm_autotuner(const Network& net, const std::vector<Tensor>& inputs,
                      ThreadPool& pool) {
  eb::bnn::Autotuner::instance().clear();
  const double t0 = now_us();
  const eb::bnn::BatchRunner runner(net, pool, {kBatch, 0});
  for (std::size_t b = 1; b <= kBatch; b *= 2) {
    (void)net.forward_batch(std::span<const Tensor>(inputs.data(), b), pool);
  }
  return since_s(t0);
}

// ------------------------------------------------------------- wire ------

struct WireWorkload {
  const char* name;
  const char* model;
  std::vector<std::size_t> dims;
  double open_rate;         // open-loop arrivals per second (fixed)
  double open_share;        // share of the measured time in the open loop
  double closed_per_s;      // closed-phase requests per second of the phase
  std::size_t window;       // closed loop: requests in flight
  // Run the closed flood before the open loop, so that latencies are taken
  // on a server with the flood's uptime behind it.
  bool flood_first;
};

// One request connection and one stats connection; the client runs at
// most three threads (sender, receiver, stats poller), under nproc.
constexpr int kStatsPeriodMs = 100;

// The WireService decorator the traced run hands to TcpFrontend: times
// every submit_async -> completion and every fill_stats call.
class TracedService final : public eb::serve::WireService {
 public:
  struct Served {
    double start_us;
    double queue_us;
    std::size_t batch_size;
  };

  TracedService(eb::serve::Gateway& gateway, Tracer& tracer)
      : inner_(gateway),
        tracer_(tracer),
        service_name_(tracer.name_id("serve.service")),
        fill_name_(tracer.name_id("serve.fill_stats")) {}

  void submit_async(const std::string& model, Tensor input,
                    eb::serve::DeadlineClass cls, std::uint64_t deadline_us,
                    eb::serve::Completion done) override {
    const double t0 = now_us();
    const std::uint64_t seq = seq_.fetch_add(1) + 1;
    inner_.submit_async(
        model, std::move(input), cls, deadline_us,
        [this, t0, seq, done = std::move(done)](eb::serve::Result r) {
          tracer_.record(service_name_, t0, 0, seq);
          {
            std::lock_guard<std::mutex> lock(mu_);
            served_.push_back({t0, r.queue_us, r.batch_size});
          }
          done(std::move(r));
        });
  }

  void fill_stats(eb::serve::wire::StatsFrame& out) override {
    const double t0 = now_us();
    inner_.fill_stats(out);
    tracer_.record(fill_name_, t0);
  }

  eb::serve::wire::ModelAdminFrame handle_model_admin(
      const eb::serve::wire::ModelAdminFrame& req) override {
    return inner_.handle_model_admin(req);
  }

  [[nodiscard]] std::vector<Served> served() const {
    std::lock_guard<std::mutex> lock(mu_);
    return served_;
  }

 private:
  eb::serve::GatewayWireService inner_;
  Tracer& tracer_;
  std::uint32_t service_name_;
  std::uint32_t fill_name_;
  std::atomic<std::uint64_t> seq_{0};
  mutable std::mutex mu_;
  std::vector<Served> served_;
};

// Everything one wire set-up builds; torn down in reverse.
struct WireSession {
  std::unique_ptr<Network> net;
  std::unique_ptr<eb::serve::Gateway> gateway;
  std::unique_ptr<LayerProfiler> profiler;
  std::unique_ptr<TracedService> service;
  std::unique_ptr<eb::serve::TcpFrontend> frontend;
  int fd = -1;  // request connection
  int stats_fd = -1;
  double autotune_s = 0.0;

  WireSession() = default;
  WireSession(const WireSession&) = delete;
  WireSession& operator=(const WireSession&) = delete;
  ~WireSession() {
    if (fd >= 0) {
      ::close(fd);
    }
    if (stats_fd >= 0) {
      ::close(stats_fd);
    }
    // Stop the frontend, then drain the gateway, so no completion can
    // reach the decorator or the profiler after they are destroyed.
    if (frontend) {
      frontend->shutdown();
    }
    if (gateway) {
      gateway->shutdown();
    }
  }
};

// Model build, autotune warm-up, server start and connect.
std::unique_ptr<WireSession> open_session(const WireWorkload& w,
                                          const std::vector<Tensor>& inputs,
                                          Tracer* tracer) {
  auto s = std::make_unique<WireSession>();
  eb::Rng rng(kModelSeed);
  s->net = std::make_unique<Network>(eb::bnn::build_mlp(w.model, w.dims, rng));
  s->gateway = std::make_unique<eb::serve::Gateway>();
  s->autotune_s = warm_autotuner(*s->net, inputs, s->gateway->pool());
  if (tracer == nullptr) {
    s->gateway->register_model(w.model, *s->net);
    s->frontend = std::make_unique<eb::serve::TcpFrontend>(*s->gateway);
  } else {
    s->profiler = std::make_unique<LayerProfiler>(*s->net, *tracer);
    LayerProfiler* prof = s->profiler.get();
    eb::serve::ModelConfig mcfg;
    mcfg.input_size = w.dims.front();
    s->gateway->register_model(
        w.model,
        [prof](std::span<const Tensor> xs, ThreadPool& pool) {
          return prof->forward(xs, pool);
        },
        mcfg);
    s->service = std::make_unique<TracedService>(*s->gateway, *tracer);
    s->frontend = std::make_unique<eb::serve::TcpFrontend>(*s->service);
  }
  constexpr int kRecvTimeoutMs = 10000;
  s->fd = connect_loopback(s->frontend->port(), kRecvTimeoutMs);
  s->stats_fd = connect_loopback(s->frontend->port(), kRecvTimeoutMs);
  return s;
}

PassResult run_wire(const WireWorkload& w, const PassOptions& opt,
                    Tracer* tracer) {
  PassResult res;
  const std::vector<Tensor> inputs = pixel_pool({w.dims.front()}, opt.seed);

  std::vector<double> setup_s;
  std::unique_ptr<WireSession> session;
  for (int i = 0; i < opt.setups; ++i) {
    session.reset();
    const double t0 = now_us();
    session = open_session(w, inputs, tracer);
    setup_s.push_back(since_s(t0));
  }
  const std::vector<Tensor> refs = references(*session->net, inputs);
  WireTraffic traffic{w.model, &inputs, &refs, pool_order(opt.seed, 4096)};

  const double open_s = opt.seconds * w.open_share;
  const double closed_s = opt.seconds - open_s;
  const auto n_open = static_cast<std::size_t>(std::llround(w.open_rate * open_s));
  const auto n_closed =
      static_cast<std::size_t>(std::llround(w.closed_per_s * closed_s));
  const std::vector<double> schedule =
      poisson_schedule(w.open_rate, n_open, stream(opt.seed, 3).bits64());

  // Stats polls run through both phases, as a balancer's do.
  StatsPoller poller(session->stats_fd, kStatsPeriodMs, tracer);
  const auto flood = [&] {
    return run_closed_loop(session->fd, traffic, n_open, n_closed, w.window,
                           3.0 * closed_s + 5.0);
  };
  PhaseResult closed;
  if (w.flood_first) {
    closed = flood();
  }
  const PhaseResult open =
      run_open_loop(session->fd, traffic, 0, schedule, tracer);
  if (!w.flood_first) {
    closed = flood();
  }
  const std::vector<double> stats_rtt = poller.stop();

  // Open loop: latency from the scheduled send; a failed request counts
  // as missing the limit.
  std::vector<double> latency_ms;
  latency_ms.reserve(n_open);
  for (const RequestRecord& r : open.records) {
    double ms = ((r.recv_us > 0.0 ? r.recv_us : open.end_us) - r.sched_us) / 1e3;
    if (!r.ok()) {
      ms = std::max(ms, kLatencyLimitMs);
    }
    latency_ms.push_back(ms);
    res.failed += (!r.ok() || ms > kLatencyLimitMs) ? 1 : 0;
    res.correct = res.correct && !r.wrong;
  }
  // Closed loop: ok responses per second of wall time, per window.
  std::vector<double> ok_us;
  double closed_end_us = closed.start_us;
  for (const RequestRecord& r : closed.records) {
    if (r.ok()) {
      ok_us.push_back(r.recv_us);
    }
    res.failed += r.ok() ? 0 : 1;
    res.correct = res.correct && !r.wrong;
    closed_end_us = std::max(closed_end_us, r.recv_us);
  }
  std::vector<double> rates;
  const double width_s =
      (closed_end_us - closed.start_us) / 1e6 / static_cast<double>(kWindows);
  for (const auto& win : split_windows(ok_us, ok_us, closed.start_us,
                                       closed_end_us, kWindows)) {
    if (width_s > 0.0) {
      rates.push_back(static_cast<double>(win.size()) / width_s);
    }
  }
  // Every stats poll is an operation too.
  res.attempted = n_open + n_closed + stats_rtt.size() + poller.failures();
  res.failed += poller.failures();
  res.latency = summarize(latency_ms);

  if (tracer == nullptr) {
    res.metrics = end_to_end(setup_s, res.latency, median_of(std::move(rates)),
                             ok_us.size());
    return res;
  }

  // Traced: layer metrics. Serving figures cover the open-loop phase.
  std::vector<Metric>& m = res.metrics;
  session->profiler->report(m);
  m.push_back({"bnn.autotune_warm_s", session->autotune_s, "s", 1});
  const auto totals = tracer->totals();
  const std::uint32_t service_name = tracer->name_id("serve.service");
  const std::uint32_t client_name = tracer->name_id("client.request");
  const std::uint32_t fill_name = tracer->name_id("serve.fill_stats");
  std::vector<double> service_ms;
  std::vector<double> client_ms;
  std::vector<double> fill_ms;
  for (const Span& sp : tracer->spans()) {
    if (sp.name == fill_name) {
      fill_ms.push_back(sp.duration_us() / 1e3);
    }
    if (sp.start_us < open.start_us || sp.start_us > open.end_us) {
      continue;
    }
    if (sp.name == service_name) {
      service_ms.push_back(sp.duration_us() / 1e3);
    } else if (sp.name == client_name) {
      client_ms.push_back(sp.duration_us() / 1e3);
    }
  }
  std::vector<double> queue_ms;
  double batch_sum = 0.0;
  for (const auto& sv : session->service->served()) {
    if (sv.start_us >= open.start_us && sv.start_us <= open.end_us) {
      queue_ms.push_back(sv.queue_us / 1e3);
      batch_sum += static_cast<double>(sv.batch_size);
    }
  }
  const Summary service = summarize(service_ms);
  const Summary client = summarize(client_ms);
  const Summary queue = summarize(queue_ms);
  const Summary fill = summarize(fill_ms, 90.0);
  const Summary stats = summarize(stats_rtt, 90.0);

  const double t_metrics = now_us();
  const eb::serve::GatewaySnapshot snap = session->gateway->metrics();
  const double metrics_ms = (now_us() - t_metrics) / 1e3;
  std::size_t latency_samples = 0;
  std::size_t invalid = 0;
  for (std::size_t c = 0; c < snap.classes.size(); ++c) {
    latency_samples += snap.classes[c].completed;
    invalid += snap.invalid[c];
  }
  for (const auto& model : snap.models) {
    latency_samples += model.server.completed;
  }
  const auto fe = session->frontend->stats();

  m.push_back({"serve.service_p50_ms", service.median, "ms", service.count});
  m.push_back({"serve.service_p99_ms", service.tail, "ms", service.count});
  m.push_back({"serve.frontend_p50_ms", client.median - service.median, "ms",
               client.count});
  m.push_back({"serve.queue_p50_ms", queue.median, "ms", queue.count});
  m.push_back({"serve.queue_p99_ms", queue.tail, "ms", queue.count});
  m.push_back({"serve.batch_mean",
               batch_sum / std::max<double>(1.0, static_cast<double>(queue.count)),
               "requests", queue.count});
  m.push_back({"serve.fill_stats_p90_ms", fill.tail, "ms", fill.count});
  m.push_back({"serve.stats_p90_ms", stats.tail, "ms", stats.count});
  m.push_back({"serve.metrics_ms_end", metrics_ms, "ms", 1});
  m.push_back({"serve.latency_samples", static_cast<double>(latency_samples),
               "count", 1});
  m.push_back({"serve.rejected", static_cast<double>(snap.rejected), "count", 1});
  m.push_back({"serve.deadline_exceeded",
               static_cast<double>(snap.deadline_exceeded), "count", 1});
  m.push_back({"serve.invalid", static_cast<double>(invalid), "count", 1});
  m.push_back({"serve.frontend_kills",
               static_cast<double>(fe.overflow_kills + fe.stall_kills), "count",
               1});
  m.push_back({"serve.bytes_per_request",
               static_cast<double>(fe.bytes_read + fe.bytes_written) /
                   static_cast<double>(std::max<std::size_t>(1, fe.requests)),
               "bytes", fe.requests});
  const auto mean_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_us / static_cast<double>(it->second.count);
  };
  for (const char* codec : {"wire.encode_request", "wire.decode_request",
                            "wire.encode_response", "wire.decode_response"}) {
    const auto it = totals.find(codec);
    m.push_back({std::string(codec) + "_us", mean_us(codec), "us",
                 it == totals.end() ? 0 : it->second.count});
  }
  const Summary lag = summarize(open.lag_ms);
  m.push_back({"client.lag_p99_ms", lag.tail, "ms", lag.count});
  m.push_back({"client.sent", static_cast<double>(n_open + n_closed), "count", 1});
  return res;
}

// ---------------------------------------------------------- offline ------

PassResult run_offline_cnn1(const PassOptions& opt, Tracer* tracer) {
  PassResult res;
  const std::vector<Tensor> inputs = pixel_pool({1, 28, 28}, opt.seed);

  struct Setup {
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<Network> net;
    std::unique_ptr<eb::bnn::BatchRunner> runner;
    double autotune_s = 0.0;
  };
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < opt.setups; ++i) {
    setup.reset();
    const double t0 = now_us();
    setup = std::make_unique<Setup>();
    setup->pool = std::make_unique<ThreadPool>();
    eb::Rng rng(kModelSeed);
    setup->net = std::make_unique<Network>(eb::bnn::build_cnn1(rng));
    setup->autotune_s = warm_autotuner(*setup->net, inputs, *setup->pool);
    setup->runner = std::make_unique<eb::bnn::BatchRunner>(
        *setup->net, *setup->pool, eb::bnn::BatchRunnerConfig{kBatch, 0});
    setup_s.push_back(since_s(t0));
  }
  const Setup& s = *setup;
  const std::vector<Tensor> refs = references(*s.net, inputs);

  // Eight seeded batches of pool members, run round-robin.
  const std::vector<std::size_t> order = pool_order(opt.seed, 8 * kBatch);
  std::vector<std::vector<Tensor>> batches(8);
  for (std::size_t i = 0; i < order.size(); ++i) {
    batches[i / kBatch].push_back(inputs[order[i]]);
  }

  std::unique_ptr<LayerProfiler> profiler;
  if (tracer != nullptr) {
    profiler = std::make_unique<LayerProfiler>(*s.net, *tracer);
  }
  std::vector<Tensor> out;
  const BatchTimes times = time_batches(
      opt.seconds,
      [&](std::size_t b) {
        const std::vector<Tensor>& batch = batches[b % batches.size()];
        out = profiler ? profiler->forward(batch, *s.pool)
                       : s.runner->forward_all(batch);
      },
      [&](std::size_t b) {
        for (std::size_t i = 0; i < kBatch; ++i) {
          const std::size_t want = order[(b % batches.size()) * kBatch + i];
          const bool ok = i < out.size() && same_tensor(out[i], refs[want]);
          res.failed += ok ? 0 : 1;
          res.correct = res.correct && ok;
        }
        res.attempted += kBatch;
      });
  res.latency = times.latency();
  if (tracer == nullptr) {
    res.metrics = end_to_end(setup_s, res.latency,
                             times.samples_per_s(kBatch), res.attempted);
  } else {
    profiler->report(res.metrics);
    res.metrics.push_back({"bnn.autotune_warm_s", s.autotune_s, "s", 1});
  }
  return res;
}

// ----------------------------------------------------------- mapped ------

constexpr std::size_t kMappedIn = 512;   // m: input bits
constexpr std::size_t kMappedOut = 256;  // n: weight vectors
constexpr std::uint64_t kDeviceSeed = 0xD0C5;
constexpr std::uint64_t kProbeSeed = 0x9B0BE;

std::vector<eb::BitVec> bit_inputs(std::size_t n, eb::RngStream rng) {
  std::vector<eb::BitVec> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(eb::BitVec::random(kMappedIn, rng));
  }
  return xs;
}

PassResult run_mapped_optical(const PassOptions& opt, Tracer* tracer) {
  PassResult res;
  eb::Rng wrng(kModelSeed);
  const eb::BitMatrix weights = eb::BitMatrix::random(kMappedOut, kMappedIn, wrng);
  const eb::dev::GaussianReadNoise noise(0.01);

  struct Setup {
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<eb::map::MappedExecutor> exec;
    double program_s = 0.0;
  };
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < opt.setups; ++i) {
    setup.reset();
    const double t0 = now_us();
    setup = std::make_unique<Setup>();
    setup->pool = std::make_unique<ThreadPool>();
    const double t1 = now_us();
    // 256x256 crossbars, 16 wavelengths per pass.
    setup->exec = eb::map::make_mapped_executor("optical", weights,
                                                {256, 256, 16, kDeviceSeed});
    setup->program_s = since_s(t1);
    setup_s.push_back(since_s(t0));
  }
  const Setup& s = *setup;

  // Eight seeded batches from a 256-input pool.
  const std::vector<eb::BitVec> pool = bit_inputs(kPoolSize, stream(opt.seed, 1));
  const std::vector<std::size_t> order = pool_order(opt.seed, 8 * kBatch);
  std::vector<std::vector<eb::BitVec>> batches(8);
  for (std::size_t i = 0; i < order.size(); ++i) {
    batches[i / kBatch].push_back(pool[order[i]]);
  }
  const auto batch_stream = [&](std::size_t b) { return stream(opt.seed, 100 + b); };

  const std::uint32_t span_name =
      tracer != nullptr ? tracer->name_id("mapping.execute_batch") : 0;
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::vector<std::size_t>> first;
  const BatchTimes times = time_batches(
      opt.seconds,
      [&](std::size_t b) {
        eb::RngStream rng = batch_stream(b);
        const double t0 = now_us();
        out = s.exec->execute_batch(batches[b % batches.size()], noise, rng,
                                    s.pool.get());
        if (tracer != nullptr) {
          tracer->record(span_name, t0, 0, b + 1);
        }
      },
      [&](std::size_t b) {
        if (b == 0) {
          first = out;
        }
      });
  res.attempted = kBatch * times.ms.size();

  // Checks: the first batch equals a serial execute() loop on the same
  // stream, and a noise-free batch equals exact XNOR-popcount gold.
  {
    eb::RngStream rng = batch_stream(0);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const bool ok = s.exec->execute(batches[0][i], noise, rng, s.pool.get()) ==
                      first.at(i);
      res.failed += ok ? 0 : 1;
      res.correct = res.correct && ok;
    }
  }
  const std::vector<eb::BitVec> probe = bit_inputs(kBatch, eb::RngStream(kProbeSeed));
  std::vector<std::vector<std::size_t>> gold;
  for (const eb::BitVec& x : probe) {
    gold.push_back(weights.xnor_popcount_all(x));
  }
  {
    eb::RngStream rng(kProbeSeed);
    const auto ideal =
        s.exec->execute_batch(probe, eb::dev::NoNoise{}, rng, s.pool.get());
    for (std::size_t i = 0; i < kBatch; ++i) {
      const bool ok = ideal.at(i) == gold[i];
      res.failed += ok ? 0 : 1;
      res.correct = res.correct && ok;
    }
  }

  res.latency = times.latency();
  if (tracer == nullptr) {
    res.metrics = end_to_end(setup_s, res.latency,
                             times.samples_per_s(kBatch), res.attempted);
    return res;
  }

  // Simulated statistic: mean |noisy - exact| popcount on the fixed probe
  // batch and stream; it depends on no host timing and no run seed.
  double abs_err = 0.0;
  {
    eb::RngStream rng(kProbeSeed);
    const auto noisy = s.exec->execute_batch(probe, noise, rng, s.pool.get());
    for (std::size_t i = 0; i < kBatch; ++i) {
      for (std::size_t j = 0; j < kMappedOut; ++j) {
        abs_err += std::abs(static_cast<double>(noisy[i][j]) -
                            static_cast<double>(gold[i][j]));
      }
    }
  }
  const auto* optical = dynamic_cast<const eb::map::TacitMapOptical*>(s.exec.get());
  EB_REQUIRE(optical != nullptr, "optical backend is not TacitMapOptical");
  const std::size_t wdm = optical->config().wdm_capacity;
  const std::size_t passes = (kBatch + wdm - 1) / wdm;
  const std::size_t steps = optical->partition().crossbars();
  double busy_ms = 0.0;
  for (const double d : times.ms) {
    busy_ms += d;
  }
  const double mean_ms = busy_ms / static_cast<double>(times.ms.size());
  res.metrics = {
      {"mapping.execute_batch_ms", mean_ms, "ms", times.ms.size()},
      {"mapping.wdm_passes", static_cast<double>(passes), "count", 1},
      {"xbar.steps_per_input", static_cast<double>(steps), "count", 1},
      {"mapping.ns_per_xbar_step",
       mean_ms * 1e6 / static_cast<double>(kBatch * steps), "ns",
       times.ms.size()},
      {"mapping.program_s", s.program_s, "s", 1},
      {"mapping.popcount_mae",
       abs_err / static_cast<double>(kBatch * kMappedOut), "popcount",
       kBatch * kMappedOut},
  };
  return res;
}

const std::vector<WireWorkload>& wire_workloads() {
  static const std::vector<WireWorkload> w{
      {"wire_mlp1024", "serve-1024", {1024, 1024, 1024, 10}, 1000.0, 0.8, 6000.0, 128, false},
      {"wire_flood_tiny", "tiny-64", {64, 64, 10}, 10000.0, 0.5, 20000.0, 64, true},
  };
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"wire_mlp1024", "wire_flood_tiny",
                                              "offline_cnn1", "mapped_optical"};
  return names;
}

PassResult run_pass(const std::string& workload, const PassOptions& opt,
                    Tracer* tracer) {
  for (const WireWorkload& w : wire_workloads()) {
    if (workload == w.name) {
      return run_wire(w, opt, tracer);
    }
  }
  if (workload == "offline_cnn1") {
    return run_offline_cnn1(opt, tracer);
  }
  if (workload == "mapped_optical") {
    return run_mapped_optical(opt, tracer);
  }
  EB_REQUIRE(false, "unknown workload '" + workload + "'");
  return {};
}

}  // namespace perfbench
