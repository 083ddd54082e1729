#include "trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <tuple>

#include "trace/flight_recorder.hpp"
#include "trace/histogram.hpp"
#include "trace/json_check.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace hs::trace {

namespace {

/// Integral values print as integers so counters stay exact in JSON.
[[maybe_unused]] std::string json_number(double v) {
  char buf[64];
  if (std::nearbyint(v) == v && std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

}  // namespace

#if HS_TRACE_ENABLED

namespace {

bool env_enabled() {
  const char* env = std::getenv("HS_TRACE");
  if (env == nullptr) return false;
  return std::strcmp(env, "1") == 0 || std::strcmp(env, "true") == 0 ||
         std::strcmp(env, "on") == 0;
}

/// One thread's event store. Only the owning thread appends, so the mutex
/// is uncontended on the hot path; snapshot()/reset() take it briefly.
struct ThreadBuf {
  std::mutex m;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
  int depth = 0;  ///< touched only by the owning thread
};

struct Recorder {
  Recorder() : enabled(env_enabled()), epoch(std::chrono::steady_clock::now()) {}

  std::atomic<bool> enabled;
  std::chrono::steady_clock::time_point epoch;

  std::mutex mu;  ///< guards bufs and the metric registries
  std::vector<std::unique_ptr<ThreadBuf>> bufs;
  std::uint32_t next_tid = 1;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

ThreadBuf& local_buf() {
  thread_local ThreadBuf* buf = [] {
    Recorder& r = recorder();
    std::lock_guard<std::mutex> lock(r.mu);
    r.bufs.push_back(std::make_unique<ThreadBuf>());
    // Pre-size the event store so the hot path never pays a reallocation
    // move cascade mid-measurement (~100 bytes/event, so this is ~100 KB
    // per *traced* thread; untraced threads never reach here).
    r.bufs.back()->events.reserve(1024);
    r.bufs.back()->tid = r.next_tid++;
    return r.bufs.back().get();
  }();
  return *buf;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - recorder().epoch)
      .count();
}

}  // namespace

bool enabled() { return recorder().enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) {
  recorder().enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& buf : r.bufs) {
    std::lock_guard<std::mutex> bl(buf->m);
    buf->events.clear();
  }
  for (auto& [name, c] : r.counters) c->reset();
  for (auto& [name, g] : r.gauges) g->reset();
  reset_histograms();
  reset_flight_recorder();
  r.epoch = std::chrono::steady_clock::now();
}

std::size_t event_count() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  std::size_t n = 0;
  for (auto& buf : r.bufs) {
    std::lock_guard<std::mutex> bl(buf->m);
    n += buf->events.size();
  }
  return n;
}

std::vector<TraceEvent> snapshot() {
  Recorder& r = recorder();
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto& buf : r.bufs) {
      std::lock_guard<std::mutex> bl(buf->m);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                                     : a.depth < b.depth;
                   });
  return out;
}

Counter& counter(std::string_view name) {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    it = r.counters.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& gauge(std::string_view name) {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.gauges.find(name);
  if (it == r.gauges.end()) {
    it = r.gauges.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, double>> metrics_snapshot() {
  Recorder& r = recorder();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(r.counters.size() + r.gauges.size());
  for (const auto& [name, c] : r.counters) {
    out.emplace_back(name, static_cast<double>(c->value()));
  }
  for (const auto& [name, g] : r.gauges) out.emplace_back(name, g->value());
  std::sort(out.begin(), out.end());
  return out;
}

// ---- Span -------------------------------------------------------------------

Span::Span(std::string_view name, std::string_view cat) {
  if (!enabled()) return;
  ThreadBuf& buf = local_buf();
  buf_ = &buf;
  depth_ = buf.depth++;
  job_ = util::current_job_tag();
  name_.assign(name);
  cat_.assign(cat);
  start_ns_ = now_ns();
  active_ = true;
}

Span::Span(Span&& other) noexcept
    : active_(other.active_),
      depth_(other.depth_),
      arg_count_(other.arg_count_),
      job_(other.job_),
      start_ns_(other.start_ns_),
      buf_(other.buf_),
      name_(std::move(other.name_)),
      cat_(std::move(other.cat_)),
      args_(std::move(other.args_)) {
  other.active_ = false;
}

Span::~Span() { end(); }

void Span::end() {
  if (!active_) return;
  active_ = false;
  const std::int64_t dur = now_ns() - start_ns_;
  ThreadBuf& buf = *static_cast<ThreadBuf*>(buf_);
  buf.depth--;
  TraceEvent ev;
  ev.name = std::move(name_);
  ev.cat = std::move(cat_);
  ev.tid = buf.tid;
  ev.depth = depth_;
  ev.job = job_;
  ev.start_ns = start_ns_;
  ev.dur_ns = dur;
  if (arg_count_ > 0) {
    ev.args.assign(std::make_move_iterator(args_.begin()),
                   std::make_move_iterator(args_.begin() + arg_count_));
  }
  ev.arg_count = arg_count_;
  std::lock_guard<std::mutex> lock(buf.m);
  buf.events.push_back(std::move(ev));
}

void Span::arg(const char* key, double value) {
  if (!active_ || arg_count_ >= kMaxSpanArgs) return;
  TraceArg& a = args_[static_cast<std::size_t>(arg_count_++)];
  a.key = key;
  a.is_num = true;
  a.num = value;
}

void Span::arg(const char* key, std::string_view value) {
  if (!active_ || arg_count_ >= kMaxSpanArgs) return;
  TraceArg& a = args_[static_cast<std::size_t>(arg_count_++)];
  a.key = key;
  a.is_num = false;
  a.str.assign(value);
}

// ---- sinks ------------------------------------------------------------------

void write_chrome_trace(std::ostream& os) {
  const std::vector<TraceEvent> events = snapshot();
  const auto metrics = metrics_snapshot();
  std::int64_t last_ns = 0;
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const TraceEvent& ev : events) {
    sep();
    char ts[64], dur[64];
    std::snprintf(ts, sizeof ts, "%.3f", static_cast<double>(ev.start_ns) / 1e3);
    std::snprintf(dur, sizeof dur, "%.3f", static_cast<double>(ev.dur_ns) / 1e3);
    os << "    {\"name\": \"" << json_escape(ev.name) << "\", \"cat\": \""
       << json_escape(ev.cat) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << ev.tid << ", \"ts\": " << ts << ", \"dur\": " << dur;
    if (ev.arg_count > 0 || ev.job != 0) {
      os << ", \"args\": {";
      for (int i = 0; i < ev.arg_count; ++i) {
        const TraceArg& a = ev.args[static_cast<std::size_t>(i)];
        if (i > 0) os << ", ";
        os << "\"" << json_escape(a.key) << "\": ";
        if (a.is_num) {
          os << json_number(a.num);
        } else {
          os << "\"" << json_escape(a.str) << "\"";
        }
      }
      if (ev.job != 0) {
        if (ev.arg_count > 0) os << ", ";
        os << "\"job\": " << ev.job;
      }
      os << "}";
    }
    os << "}";
    last_ns = std::max(last_ns, ev.start_ns + ev.dur_ns);
  }
  // Counter samples at the end of the timeline so Perfetto shows the final
  // registry state as a track per metric.
  for (const auto& [name, value] : metrics) {
    sep();
    char ts[64];
    std::snprintf(ts, sizeof ts, "%.3f", static_cast<double>(last_ns) / 1e3);
    os << "    {\"name\": \"" << json_escape(name)
       << "\", \"cat\": \"metric\", \"ph\": \"C\", \"pid\": 1, \"tid\": 0, "
          "\"ts\": "
       << ts << ", \"args\": {\"value\": " << json_number(value) << "}}";
  }
  os << "\n  ]\n}\n";
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  return static_cast<bool>(os);
}

namespace {

struct SpanAggregate {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;  ///< total minus the direct children's time
  std::int64_t max_ns = 0;
};

/// Each event's self time: its duration minus its direct children's, the
/// children being the same thread's spans one level deeper that begin
/// while it is open (TraceEvent::depth is recorded at begin time).
std::vector<std::int64_t> self_times(const std::vector<TraceEvent>& events) {
  std::vector<std::int64_t> self(events.size());
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    self[i] = events[i].dur_ns;
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const TraceEvent& x = events[a];
    const TraceEvent& y = events[b];
    return std::tie(x.tid, x.start_ns, x.depth) <
           std::tie(y.tid, y.start_ns, y.depth);
  });
  std::vector<std::size_t> open;  // enclosing spans of the current thread
  for (std::size_t k = 0; k < order.size(); ++k) {
    const TraceEvent& ev = events[order[k]];
    if (k > 0 && events[order[k - 1]].tid != ev.tid) open.clear();
    while (!open.empty() && events[open.back()].depth >= ev.depth) {
      open.pop_back();
    }
    if (!open.empty() && events[open.back()].depth == ev.depth - 1) {
      self[open.back()] -= ev.dur_ns;
    }
    open.push_back(order[k]);
  }
  return self;
}

std::vector<std::pair<std::string, SpanAggregate>> aggregate_spans(
    const std::vector<TraceEvent>& events) {
  const std::vector<std::int64_t> self = self_times(events);
  std::map<std::string, SpanAggregate> by_name;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    SpanAggregate& agg = by_name[ev.cat + ":" + ev.name];
    agg.count += 1;
    agg.total_ns += ev.dur_ns;
    agg.self_ns += self[i];
    agg.max_ns = std::max(agg.max_ns, ev.dur_ns);
  }
  std::vector<std::pair<std::string, SpanAggregate>> out(by_name.begin(),
                                                         by_name.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });
  return out;
}

}  // namespace

void write_metrics_json(std::ostream& os, std::string_view name) {
  const auto aggregates = aggregate_spans(snapshot());
  const auto metrics = metrics_snapshot();
  os << "{\n  \"name\": \"" << json_escape(name) << "\",\n  \"results\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& [span_name, agg] : aggregates) {
    sep();
    os << "    {\"bench\": \"span:" << json_escape(span_name) << "\", "
       << "\"count\": " << agg.count << ", \"total_us\": "
       << json_number(static_cast<double>(agg.total_ns) / 1e3)
       << ", \"mean_us\": "
       << json_number(static_cast<double>(agg.total_ns) / 1e3 /
                      static_cast<double>(std::max<std::uint64_t>(1, agg.count)))
       << ", \"max_us\": "
       << json_number(static_cast<double>(agg.max_ns) / 1e3) << "}";
  }
  if (!metrics.empty()) {
    sep();
    os << "    {\"bench\": \"counters\"";
    for (const auto& [metric_name, value] : metrics) {
      os << ", \"" << json_escape(metric_name) << "\": " << json_number(value);
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

bool write_metrics_json_file(const std::string& path, std::string_view name) {
  std::ofstream os(path);
  if (!os) return false;
  write_metrics_json(os, name);
  return static_cast<bool>(os);
}

void print_summary(std::ostream& os) {
  const auto aggregates = aggregate_spans(snapshot());
  // Share is of self time, so nested rows do not count their children
  // twice and the column sums to 100 %.
  double self_sum_ns = 0;
  for (const auto& [name, agg] : aggregates) {
    self_sum_ns += static_cast<double>(agg.self_ns);
  }
  util::Table table(
      {"Span (cat:name)", "Count", "Total", "Self", "Mean", "Max", "Share"});
  for (const auto& [name, agg] : aggregates) {
    const double t = static_cast<double>(agg.total_ns);
    const double self = static_cast<double>(agg.self_ns);
    table.add_row(
        {name, std::to_string(agg.count), util::format_duration(t / 1e9),
         util::format_duration(self / 1e9),
         util::format_duration(t / 1e9 /
                               static_cast<double>(std::max<std::uint64_t>(
                                   1, agg.count))),
         util::format_duration(static_cast<double>(agg.max_ns) / 1e9),
         util::Table::num(self_sum_ns > 0 ? 100.0 * self / self_sum_ns : 0.0,
                          1) +
             "%"});
  }
  table.print(os, "Trace summary (wall time per span kind)");

  const auto metrics = metrics_snapshot();
  if (!metrics.empty()) {
    util::Table counters({"Counter / gauge", "Value"});
    for (const auto& [name, value] : metrics) {
      counters.add_row({name, json_number(value)});
    }
    os << "\n";
    counters.print(os, "Metric registry");
  }
}

#else  // HS_TRACE_ENABLED == 0

Counter& counter(std::string_view) {
  static Counter dummy;
  return dummy;
}

Gauge& gauge(std::string_view) {
  static Gauge dummy;
  return dummy;
}

void write_chrome_trace(std::ostream& os) {
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n  ]\n}\n";
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  return static_cast<bool>(os);
}

void write_metrics_json(std::ostream& os, std::string_view name) {
  os << "{\n  \"name\": \"" << json_escape(name) << "\",\n  \"results\": [\n  ]\n}\n";
}

bool write_metrics_json_file(const std::string& path, std::string_view name) {
  std::ofstream os(path);
  if (!os) return false;
  write_metrics_json(os, name);
  return static_cast<bool>(os);
}

void print_summary(std::ostream& os) {
  os << "tracing compiled out (HS_TRACE=OFF)\n";
}

#endif  // HS_TRACE_ENABLED

}  // namespace hs::trace
