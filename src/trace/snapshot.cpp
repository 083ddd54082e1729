#include "trace/snapshot.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "trace/histogram.hpp"
#include "trace/json_check.hpp"
#include "trace/trace.hpp"

namespace hs::trace {

namespace {

/// Integral values print as integers so counters stay exact.
std::string snap_json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  if (std::nearbyint(v) == v && std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

void write_snapshot_json(std::ostream& os, std::string_view name,
                         std::uint64_t sequence) {
  const double uptime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - process_epoch())
          .count();
  const auto metrics = metrics_snapshot();
  const auto histograms = histograms_snapshot();

  os << "{\n  \"schema\": \"hs.snapshot.v1\",\n  \"name\": \""
     << json_escape(name) << "\",\n  \"sequence\": " << sequence
     << ",\n  \"uptime_ms\": " << snap_json_number(uptime_ms)
     << ",\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << "    {\"name\": \"" << json_escape(metrics[i].first)
       << "\", \"value\": " << snap_json_number(metrics[i].second) << "}"
       << (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"histograms\": [\n";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i].second;
    os << "    {\"name\": \"" << json_escape(histograms[i].first)
       << "\", \"count\": " << h.count
       << ", \"sum_ms\": " << snap_json_number(h.sum * 1e3)
       << ", \"min_ms\": " << snap_json_number(h.min * 1e3)
       << ", \"mean_ms\": " << snap_json_number(h.mean() * 1e3)
       << ", \"p50_ms\": " << snap_json_number(h.p50() * 1e3)
       << ", \"p90_ms\": " << snap_json_number(h.p90() * 1e3)
       << ", \"p95_ms\": " << snap_json_number(h.p95() * 1e3)
       << ", \"p99_ms\": " << snap_json_number(h.p99() * 1e3)
       << ", \"max_ms\": " << snap_json_number(h.max * 1e3) << "}"
       << (i + 1 < histograms.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

bool write_snapshot_json_file(const std::string& path, std::string_view name,
                              std::uint64_t sequence) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os) return false;
    write_snapshot_json(os, name, sequence);
    if (!os) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

SnapshotExporter::SnapshotExporter(Options options)
    : options_(std::move(options)) {
  options_.period_seconds = std::max(options_.period_seconds, 0.01);
  thread_ = std::thread([this] { loop(); });
}

SnapshotExporter::~SnapshotExporter() { stop(); }

void SnapshotExporter::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stop_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // Final snapshot after the thread is gone: the registry state at stop.
  if (write_snapshot_json_file(options_.path, options_.name,
                               exports_.load(std::memory_order_relaxed) + 1)) {
    exports_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SnapshotExporter::loop() {
  const auto period = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(options_.period_seconds));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, period, [this] { return stop_; })) break;
    lock.unlock();
    const std::uint64_t seq = exports_.load(std::memory_order_relaxed) + 1;
    if (write_snapshot_json_file(options_.path, options_.name, seq)) {
      exports_.fetch_add(1, std::memory_order_relaxed);
    }
    lock.lock();
  }
}

}  // namespace hs::trace
