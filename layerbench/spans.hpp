// The benchmark's own span log, recorded around each call into a layer,
// and the self-time arithmetic shared with the spans hs::trace emits.
//
// A span's self time is its duration minus the part of its interval that
// its direct children cover (the union of their intervals, clipped to the
// parent), so nested spans are never counted twice. For a request tree
// whose children nest inside their parents and whose siblings do not
// overlap, the self times add up to the root span's duration exactly;
// check_layer_sum turns that into the benchmark's layer-sum invariant.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace lb {

struct SpanRecord {
  std::string name;
  std::uint64_t request = 0;  ///< one id per request; 0 = not request-scoped
  int parent = -1;            ///< index into the same log, -1 for a root
  double start_ms = 0;
  double end_ms = 0;
  double duration_ms() const { return end_ms - start_ms; }
};

class SpanLog {
 public:
  /// Appends a span and returns its index (for use as a parent).
  int add(std::string name, std::uint64_t request, int parent,
          double start_ms, double end_ms);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Writes one JSON object per span, with its self time, to `path`.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
};

/// Self time of every span, index-aligned with `spans`.
std::vector<double> self_times_ms(const std::vector<SpanRecord>& spans);

/// Converts hs::trace events into span records: each event's parent is
/// the innermost enclosing event on the same thread one nesting level up.
std::vector<SpanRecord> from_trace_events(
    const std::vector<hs::trace::TraceEvent>& events);

/// How far a request's self times may miss its root span. Result frames
/// print worker durations with six significant digits.
inline constexpr double kLayerSumToleranceMs = 0.05;

struct LayerSumCheck {
  std::size_t requests = 0;
  std::size_t violations = 0;  ///< requests whose self times miss the total
  double max_error_ms = 0;     ///< largest |sum of self times - root span|
};

/// Layer-sum invariant over every request tree in `spans`: the self times
/// of a request's spans must add up to its root span's duration within
/// `tolerance_ms`.
LayerSumCheck check_layer_sum(const std::vector<SpanRecord>& spans,
                              double tolerance_ms);

}  // namespace lb
