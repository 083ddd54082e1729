#include "trace/flight_recorder.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "trace/json_check.hpp"
#include "util/log.hpp"

namespace hs::trace {

#if HS_TRACE_ENABLED

namespace {

/// One thread's ring. Only the owning thread writes; the mutex is
/// uncontended on the hot path and taken briefly by snapshot/reset.
struct FlightRing {
  std::mutex m;
  std::vector<FlightEvent> slots;  ///< fixed capacity, set at creation
  std::size_t head = 0;            ///< next write position
  std::uint64_t written = 0;       ///< lifetime count (>= surviving)
  std::uint32_t tid = 0;
};

struct FlightRegistry {
  FlightRegistry() : epoch(std::chrono::steady_clock::now()) {}

  std::chrono::steady_clock::time_point epoch;
  std::atomic<std::size_t> budget_bytes{32 * 1024};
  std::mutex mu;  ///< guards rings
  std::vector<std::unique_ptr<FlightRing>> rings;
  std::uint32_t next_tid = 1;
};

FlightRegistry& flight_registry() {
  static FlightRegistry r;
  return r;
}

FlightRing& local_ring() {
  thread_local FlightRing* ring = [] {
    FlightRegistry& r = flight_registry();
    auto owned = std::make_unique<FlightRing>();
    const std::size_t budget =
        std::max(sizeof(FlightEvent) * 8,
                 r.budget_bytes.load(std::memory_order_relaxed));
    owned->slots.resize(budget / sizeof(FlightEvent));
    std::lock_guard<std::mutex> lock(r.mu);
    owned->tid = r.next_tid++;
    r.rings.push_back(std::move(owned));
    return r.rings.back().get();
  }();
  return *ring;
}

std::int64_t flight_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - flight_registry().epoch)
      .count();
}

}  // namespace

void flight_event(const char* kind, std::int64_t a, std::int64_t b,
                  std::string_view detail) {
  FlightRing& ring = local_ring();
  std::lock_guard<std::mutex> lock(ring.m);
  FlightEvent& ev = ring.slots[ring.head];
  ev.t_ns = flight_now_ns();
  ev.tid = ring.tid;
  ev.job = util::current_job_tag();
  ev.kind = kind;
  ev.a = a;
  ev.b = b;
  const std::size_t n = std::min(detail.size(), kFlightDetailBytes - 1);
  std::memcpy(ev.detail, detail.data(), n);
  ev.detail[n] = '\0';
  ring.head = (ring.head + 1) % ring.slots.size();
  ++ring.written;
}

void set_flight_budget_bytes(std::size_t bytes) {
  flight_registry().budget_bytes.store(bytes, std::memory_order_relaxed);
}

std::size_t flight_budget_bytes() {
  return flight_registry().budget_bytes.load(std::memory_order_relaxed);
}

std::vector<FlightEvent> flight_snapshot() {
  FlightRegistry& r = flight_registry();
  std::vector<FlightEvent> out;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto& ring : r.rings) {
      std::lock_guard<std::mutex> rl(ring->m);
      const std::size_t cap = ring->slots.size();
      const std::size_t surviving =
          static_cast<std::size_t>(std::min<std::uint64_t>(ring->written, cap));
      // Oldest first: when the ring wrapped, the oldest survivor is at
      // head (the next overwrite target); otherwise at 0.
      const std::size_t start = ring->written >= cap ? ring->head : 0;
      for (std::size_t i = 0; i < surviving; ++i) {
        out.push_back(ring->slots[(start + i) % cap]);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.t_ns < y.t_ns;
                   });
  return out;
}

std::uint64_t flight_recorded_total() {
  FlightRegistry& r = flight_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t total = 0;
  for (const auto& ring : r.rings) {
    std::lock_guard<std::mutex> rl(ring->m);
    total += ring->written;
  }
  return total;
}

void reset_flight_recorder() {
  FlightRegistry& r = flight_registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings) {
    std::lock_guard<std::mutex> rl(ring->m);
    ring->head = 0;
    ring->written = 0;
  }
}

#endif  // HS_TRACE_ENABLED

void write_flight_json(std::ostream& os, std::string_view reason) {
  const std::vector<FlightEvent> events = flight_snapshot();
  os << "{\n  \"schema\": \"hs.flight.v1\",\n  \"reason\": \""
     << json_escape(reason) << "\",\n  \"recorded_total\": "
     << flight_recorded_total() << ",\n  \"events\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& ev = events[i];
    char ts[64];
    std::snprintf(ts, sizeof ts, "%.3f", static_cast<double>(ev.t_ns) / 1e3);
    os << "    {\"t_us\": " << ts << ", \"tid\": " << ev.tid << ", \"job\": "
       << ev.job << ", \"kind\": \"" << json_escape(ev.kind)
       << "\", \"a\": " << ev.a << ", \"b\": " << ev.b << ", \"detail\": \""
       << json_escape(ev.detail) << "\"}";
    os << (i + 1 < events.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

bool write_flight_json_file(const std::string& path, std::string_view reason) {
  std::ofstream os(path);
  if (!os) return false;
  write_flight_json(os, reason);
  return static_cast<bool>(os);
}

namespace {

// Signal-dump state: plain statics written once by
// install_flight_signal_dump before any handler can fire.
std::string g_signal_dump_path;  // NOLINT

void flight_signal_handler(int sig) {
  char reason[64];
  std::snprintf(reason, sizeof reason, "fatal signal %d", sig);
  write_flight_json_file(g_signal_dump_path, reason);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void install_flight_signal_dump(const std::string& path) {
  g_signal_dump_path = path;
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    std::signal(sig, flight_signal_handler);
  }
}

}  // namespace hs::trace
