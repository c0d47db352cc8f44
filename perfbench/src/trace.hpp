// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around calls into the
// program's public functions (a layer's forward_batch, a WireService
// call, a wire codec call, ...). They are kept in memory, reduced to
// self times and coverage at the end of the run, and optionally written
// out as one JSON object per line.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds on the steady clock since the first call in the process.
[[nodiscard]] double now_us();

struct Span {
  std::uint32_t name = 0;     ///< Tracer::name_id of the span's name.
  std::uint64_t id = 0;       ///< Unique, > 0.
  std::uint64_t parent = 0;   ///< Enclosing span's id; 0 = root.
  std::uint64_t request = 0;  ///< Request the span served; 0 = none.
  double start_us = 0.0;
  double end_us = 0.0;

  [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

/// Per-name totals over a set of spans.
struct SpanTotals {
  std::size_t count = 0;
  double total_us = 0.0;  ///< Sum of durations.
  double self_us = 0.0;   ///< Sum of durations minus child coverage.
};

/// Thread-safe span store with a fixed capacity (spans past it are
/// counted as dropped, never stored).
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = std::size_t{1} << 21);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Interned id of `name` (stable for the tracer's lifetime).
  [[nodiscard]] std::uint32_t name_id(const std::string& name);
  /// Fresh span id for a span whose children must name it as parent.
  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1); }

  /// Stores one finished span (s.id == 0 gets a fresh id).
  void record(Span s);
  /// Convenience: records [start_us, now) under `name`.
  void record(std::uint32_t name, double start_us, std::uint64_t parent = 0,
              std::uint64_t request = 0);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::size_t dropped() const;

  /// Totals per span name, with self time = duration minus the union-free
  /// sum of direct children's durations (children never overlap here:
  /// each parent's children run one after another on one thread).
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Writes every span as one JSON object per line. Returns false when
  /// the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace perfbench
