#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(std::min<std::size_t>(capacity, std::size_t{1} << 16));
}

std::uint32_t Tracer::name_id(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::record(Span s) {
  if (s.id == 0) {
    s.id = next_id();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(s);
}

void Tracer::record(std::uint32_t name, double start_us, std::uint64_t parent,
                    std::uint64_t request) {
  record(Span{name, 0, parent, request, start_us, now_us()});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<Span>& all = spans_;
  std::unordered_map<std::uint64_t, double> child_us;
  for (const Span& s : all) {
    if (s.parent != 0) {
      child_us[s.parent] += s.duration_us();
    }
  }
  std::map<std::string, SpanTotals> out;
  for (const Span& s : all) {
    SpanTotals& t = out[names_[s.name]];
    ++t.count;
    t.total_us += s.duration_us();
    const auto it = child_us.find(s.id);
    t.self_us += s.duration_us() - (it == child_us.end() ? 0.0 : it->second);
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 names_[s.name].c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start_us,
                 s.end_us);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
