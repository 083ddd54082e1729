#include "serve/request.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <system_error>

#include "trace/json_check.hpp"

namespace hs::serve {

namespace {

using trace::json::Value;
using trace::json_escape;

bool set_error(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

/// Requires an integral-valued number in [lo, hi].
bool get_int_field(const Value& v, const std::string& key, long long lo,
                   long long hi, long long* out, std::string* error) {
  if (!v.is(Value::Kind::Number)) {
    return set_error(error, "'" + key + "' must be a number");
  }
  const double d = v.number;
  if (!std::isfinite(d) || d != std::floor(d) || d < static_cast<double>(lo) ||
      d > static_cast<double>(hi)) {
    return set_error(error, "'" + key + "' out of range");
  }
  *out = static_cast<long long>(d);
  return true;
}

/// Shared parser behind the file-mode and frame-mode entry points. When
/// `out_client` is non-null the `"id"` key is accepted and captured there;
/// otherwise it is an unknown key like any other.
bool parse_request_impl(std::string_view line, std::string* error,
                        JobSpec* out_spec, ParsedRequest* out_client) {
  std::string parse_error;
  const auto doc = trace::json::parse(line, &parse_error);
  if (!doc) {
    return set_error(error, "invalid JSON: " + parse_error);
  }
  if (!doc->is(Value::Kind::Object)) {
    return set_error(error, "request must be a JSON object");
  }

  JobSpec spec;
  bool have_kind = false;
  for (const auto& [key, value] : doc->object) {
    long long n = 0;
    if (out_client && key == "id") {
      if (!get_int_field(value, key, 0, (1ll << 62), &n, error)) return false;
      out_client->client_id = static_cast<std::uint64_t>(n);
      out_client->has_client_id = true;
    } else if (key == "name") {
      if (!value.is(Value::Kind::String)) {
        set_error(error, "'name' must be a string");
        return false;
      }
      spec.name = value.string;
    } else if (key == "kind") {
      if (!value.is(Value::Kind::String)) {
        set_error(error, "'kind' must be a string");
        return false;
      }
      const auto kind = parse_job_kind(value.string);
      if (!kind) {
        set_error(error, "unknown kind '" + value.string + "'");
        return false;
      }
      spec.kind = *kind;
      have_kind = true;
    } else if (key == "priority") {
      if (!value.is(Value::Kind::String)) {
        set_error(error, "'priority' must be a string");
        return false;
      }
      const auto priority = parse_priority(value.string);
      if (!priority) {
        set_error(error, "unknown priority '" + value.string + "'");
        return false;
      }
      spec.priority = *priority;
    } else if (key == "deadline_ms") {
      // Non-finite values sneak past a bare `< 0` check: 1e999 parses to
      // +inf (and NaN compares false to everything), then overflows the
      // steady_clock duration cast when the deadline is armed.
      if (!value.is(Value::Kind::Number) || !std::isfinite(value.number) ||
          value.number < 0) {
        set_error(error, "'deadline_ms' must be a finite non-negative number");
        return false;
      }
      spec.deadline_seconds = value.number / 1000.0;
    } else if (key == "retries") {
      if (!get_int_field(value, key, 0, 1000, &n, error)) return false;
      spec.max_retries = static_cast<int>(n);
    } else if (key == "envi") {
      if (!value.is(Value::Kind::String)) {
        set_error(error, "'envi' must be a string");
        return false;
      }
      spec.scene.envi_path = value.string;
    } else if (key == "size") {
      if (!get_int_field(value, key, 1, 1 << 20, &n, error)) return false;
      spec.scene.width = static_cast<int>(n);
      spec.scene.height = static_cast<int>(n);
    } else if (key == "width") {
      if (!get_int_field(value, key, 1, 1 << 20, &n, error)) return false;
      spec.scene.width = static_cast<int>(n);
    } else if (key == "height") {
      if (!get_int_field(value, key, 1, 1 << 20, &n, error)) return false;
      spec.scene.height = static_cast<int>(n);
    } else if (key == "bands") {
      if (!get_int_field(value, key, 1, 1 << 16, &n, error)) return false;
      spec.scene.bands = static_cast<int>(n);
    } else if (key == "seed") {
      if (!get_int_field(value, key, 0, (1ll << 62), &n, error)) {
        return false;
      }
      spec.scene.seed = static_cast<std::uint64_t>(n);
    } else if (key == "se") {
      if (!get_int_field(value, key, 0, 64, &n, error)) return false;
      spec.se_radius = static_cast<int>(n);
    } else if (key == "endmembers") {
      if (!get_int_field(value, key, 1, 256, &n, error)) return false;
      spec.endmembers = static_cast<int>(n);
    } else if (key == "workers") {
      if (!get_int_field(value, key, 0, 4096, &n, error)) return false;
      spec.workers = static_cast<std::size_t>(n);
    } else if (key == "chunk_texel_budget") {
      if (!get_int_field(value, key, 0, (1ll << 62), &n, error)) {
        return false;
      }
      spec.chunk_texel_budget = static_cast<std::uint64_t>(n);
    } else if (key == "half") {
      if (!value.is(Value::Kind::Bool)) {
        set_error(error, "'half' must be a boolean");
        return false;
      }
      spec.half_precision = value.boolean;
    } else {
      set_error(error, "unknown key '" + key + "'");
      return false;
    }
  }
  if (!have_kind) {
    return set_error(error, "missing required key 'kind'");
  }
  *out_spec = std::move(spec);
  return true;
}

/// Prefixes an already-set error message with its source label, so "conn 3"
/// or "requests.jsonl:7" diagnostics read the same everywhere.
void label_error(std::string* error, std::string_view source) {
  if (error && !source.empty()) {
    *error = std::string(source) + ": " + *error;
  }
}

}  // namespace

std::string to_request_line(const JobSpec& spec,
                            std::optional<std::uint64_t> client_id) {
  std::ostringstream os;
  os << '{';
  if (client_id) os << "\"id\":" << *client_id << ',';
  if (!spec.name.empty()) {
    os << "\"name\":\"" << json_escape(spec.name) << "\",";
  }
  os << "\"kind\":\"" << to_string(spec.kind) << "\""
     << ",\"priority\":\"" << to_string(spec.priority) << "\"";
  if (spec.deadline_seconds > 0 && std::isfinite(spec.deadline_seconds)) {
    os << ",\"deadline_ms\":"
       << std::setprecision(std::numeric_limits<double>::max_digits10)
       << spec.deadline_seconds * 1000.0;
  }
  if (spec.max_retries > 0) os << ",\"retries\":" << spec.max_retries;
  if (!spec.scene.envi_path.empty()) {
    os << ",\"envi\":\"" << json_escape(spec.scene.envi_path) << "\"";
  }
  // The synthetic-scene fields stay in the fingerprint even for ENVI jobs
  // (seed feeds the endmember generator), so always emit them.
  os << ",\"width\":" << spec.scene.width
     << ",\"height\":" << spec.scene.height
     << ",\"bands\":" << spec.scene.bands
     << ",\"seed\":" << spec.scene.seed
     << ",\"se\":" << spec.se_radius
     << ",\"endmembers\":" << spec.endmembers
     << ",\"workers\":" << spec.workers
     << ",\"chunk_texel_budget\":" << spec.chunk_texel_budget
     << ",\"half\":" << (spec.half_precision ? "true" : "false") << '}';
  return os.str();
}

std::optional<JobSpec> parse_request_line(std::string_view line,
                                          std::string* error,
                                          std::string_view source) {
  JobSpec spec;
  if (!parse_request_impl(line, error, &spec, nullptr)) {
    label_error(error, source);
    return std::nullopt;
  }
  return spec;
}

std::optional<ParsedRequest> parse_request_frame(std::string_view line,
                                                 std::string* error,
                                                 std::string_view source) {
  ParsedRequest req;
  if (!parse_request_impl(line, error, &req.spec, &req)) {
    label_error(error, source);
    return std::nullopt;
  }
  return req;
}

RequestBatch read_requests(std::istream& in, std::string_view source) {
  RequestBatch batch;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::string error;
    const std::string line_source =
        source.empty() ? std::string()
                       : std::string(source) + ":" + std::to_string(line_no);
    if (auto spec = parse_request_line(line, &error, line_source)) {
      batch.jobs.push_back(std::move(*spec));
    } else {
      batch.errors.emplace_back(line_no, error);
    }
  }
  return batch;
}

RequestBatch read_request_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open request file: " + path);
  return read_requests(in, path);
}

std::optional<FaultSpec> parse_fault_spec(std::string_view arg,
                                          std::string* error) {
  const auto fail = [error](const std::string& what) -> std::optional<FaultSpec> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  if (arg.empty()) return fail("--fault needs substr[:n]");

  FaultSpec spec;
  spec.substr = std::string(arg);
  const std::size_t colon = arg.rfind(':');
  if (colon != std::string_view::npos && colon + 1 < arg.size()) {
    const std::string_view tail = arg.substr(colon + 1);
    const bool all_digits =
        tail.find_first_not_of("0123456789") == std::string_view::npos;
    if (all_digits) {
      int n = 0;
      const auto r = std::from_chars(tail.data(), tail.data() + tail.size(), n);
      if (r.ec == std::errc::result_out_of_range) {
        return fail("--fault attempt count out of range: '" +
                    std::string(tail) + "'");
      }
      if (n == 0) return fail("--fault attempt count must be >= 1");
      spec.attempts = n;
      spec.substr = std::string(arg.substr(0, colon));
      if (spec.substr.empty()) {
        return fail("--fault substring is empty (got ':" + std::string(tail) +
                    "')");
      }
    }
  }
  return spec;
}

}  // namespace hs::serve
