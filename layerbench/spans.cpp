#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <utility>

#include "net/protocol.hpp"

namespace lb {

int SpanLog::add(std::string name, std::uint64_t request, int parent,
                 double start_ms, double end_ms) {
  spans_.push_back(SpanRecord{std::move(name), request, parent, start_ms, end_ms});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_times_ms(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"span\":" << i << ",\"name\":\"" << hs::net::json_escape(s.name)
        << "\",\"request\":" << s.request << ",\"parent\":" << s.parent
        << ",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
        << ",\"self_ms\":" << self[i] << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<double> self_times_ms(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) continue;
    const SpanRecord& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start_ms, p.start_ms);
    const double hi = std::min(s.end_ms, p.end_ms);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ms() - covered;
  }
  return self;
}

std::vector<SpanRecord> from_trace_events(
    const std::vector<hs::trace::TraceEvent>& events) {
  std::vector<SpanRecord> spans;
  spans.reserve(events.size());
  // Per thread, the innermost open span at each nesting depth. Events come
  // sorted by start time, so a parent always precedes its children.
  std::map<std::uint32_t, std::vector<int>> open;
  for (const hs::trace::TraceEvent& e : events) {
    const double start = static_cast<double>(e.start_ns) * 1e-6;
    const double end = static_cast<double>(e.start_ns + e.dur_ns) * 1e-6;
    std::vector<int>& stack = open[e.tid];
    const auto depth = static_cast<std::size_t>(std::max(0, e.depth));
    int parent = -1;
    if (depth > 0 && depth - 1 < stack.size()) {
      const int candidate = stack[depth - 1];
      const SpanRecord& p = spans[static_cast<std::size_t>(candidate)];
      if (p.start_ms <= start && end <= p.end_ms) parent = candidate;
    }
    spans.push_back(SpanRecord{e.cat + ":" + e.name, e.job, parent, start, end});
    stack.resize(depth + 1);
    stack[depth] = static_cast<int>(spans.size()) - 1;
  }
  return spans;
}

LayerSumCheck check_layer_sum(const std::vector<SpanRecord>& spans,
                              double tolerance_ms) {
  const std::vector<double> self = self_times_ms(spans);
  std::map<std::uint64_t, std::pair<double, double>> per_request;  // root, sum
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.request == 0) continue;
    auto& [root, sum] = per_request[s.request];
    if (s.parent < 0) root += s.duration_ms();
    sum += self[i];
  }
  LayerSumCheck check;
  check.requests = per_request.size();
  for (const auto& [request, totals] : per_request) {
    const double err = std::fabs(totals.second - totals.first);
    check.max_error_ms = std::max(check.max_error_ms, err);
    if (err > tolerance_ms) ++check.violations;
  }
  return check;
}

}  // namespace lb
