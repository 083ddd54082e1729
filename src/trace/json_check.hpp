// Minimal JSON parser for validating the trace sinks' output.
//
// The Chrome-trace and metrics exporters hand-serialize JSON; this parser
// closes the loop so tests and the hsi-profile CLI can parse the files
// back and check both syntactic validity and the expected schema without
// an external dependency. It is a strict RFC-8259 subset parser (no
// comments, no trailing commas) sized for trace files, not a general
// library: numbers become doubles, objects keep insertion order.
//
// It also holds the one JSON string escaper every hand-serializing writer
// in the library uses (trace, flight recorder, snapshots, serve, net).
//
// This header is compiled unconditionally (independent of HS_TRACE) so an
// HS_TRACE=OFF build can still validate the empty documents it writes.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hs::trace {

/// Escapes `s` for use inside a JSON string literal: quote, backslash,
/// \n, \r and \t get their short escapes, other control characters
/// \u00XX (RFC 8259 minimal set).
std::string json_escape(std::string_view s);

}  // namespace hs::trace

namespace hs::trace::json {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is(Kind k) const { return kind == k; }

  /// First member with `key`, or nullptr (objects only).
  const Value* find(std::string_view key) const;
};

/// Parses a complete JSON document (one value plus trailing whitespace).
/// On failure returns nullopt and, when `error` is non-null, a message
/// with the byte offset of the problem.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// Schema check for an exported Chrome trace: a top-level object with a
/// `traceEvents` array whose entries carry name/ph/ts (and dur for "X"
/// complete events).
bool validate_chrome_trace(std::string_view text, std::string* error = nullptr);

/// Schema check for the BENCH_*.json metrics shape: a top-level object
/// with a string `name` and a `results` array of objects, each with a
/// string `bench` and numeric values otherwise.
bool validate_metrics_json(std::string_view text, std::string* error = nullptr);

/// Schema check for "hs.snapshot.v1" (trace/snapshot.hpp): object with
/// string name, numeric sequence/uptime_ms, a `metrics` array of
/// {name, value} and a `histograms` array whose rows carry count plus the
/// *_ms summary fields.
bool validate_snapshot_json(std::string_view text,
                            std::string* error = nullptr);

/// Schema check for "hs.flight.v1" (trace/flight_recorder.hpp): object
/// with string reason, numeric recorded_total, and an `events` array of
/// {t_us, tid, job, kind, a, b, detail} rows.
bool validate_flight_json(std::string_view text, std::string* error = nullptr);

/// Schema check for "hs.timeline.v1" (serve/timeline.hpp): object with
/// numeric id, string name/kind/state, numeric attempts/queue_ms/exec_ms/
/// total_ms, and an `events` array of {t_ms, what} rows.
bool validate_timeline_json(std::string_view text,
                            std::string* error = nullptr);

}  // namespace hs::trace::json
