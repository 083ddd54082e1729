#include "trace/json_check.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>
#include <system_error>

namespace hs::trace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace hs::trace

namespace hs::trace::json {

namespace {

constexpr int kMaxDepth = 128;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error{};

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return parse_object(out, depth);
    if (c == '[') return parse_array(out, depth);
    if (c == '"') {
      out.kind = Value::Kind::String;
      return parse_string(out.string);
    }
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') return parse_null(out);
    return parse_number(out);
  }

  bool parse_object(Value& out, int depth) {
    out.kind = Value::Kind::Object;
    ++pos;  // '{'
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      Value v;
      if (!parse_value(v, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return consume('}');
    }
  }

  bool parse_array(Value& out, int depth) {
    out.kind = Value::Kind::Array;
    ++pos;  // '['
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      Value v;
      if (!parse_value(v, depth + 1)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return consume(']');
    }
  }

  bool parse_string(std::string& out) {
    if (pos >= text.size() || text[pos] != '"') return fail("expected string");
    ++pos;
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) return fail("bad escape");
        const char e = text[pos];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 >= text.size()) return fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = text[pos + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            pos += 4;
            // The exporters only escape control characters; decode the
            // BMP code point as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return fail("bad escape");
        }
        ++pos;
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      out += c;
      ++pos;
    }
    return fail("unterminated string");
  }

  bool parse_bool(Value& out) {
    out.kind = Value::Kind::Bool;
    if (text.substr(pos, 4) == "true") {
      out.boolean = true;
      pos += 4;
      return true;
    }
    if (text.substr(pos, 5) == "false") {
      out.boolean = false;
      pos += 5;
      return true;
    }
    return fail("expected true/false");
  }

  bool parse_null(Value& out) {
    out.kind = Value::Kind::Null;
    if (text.substr(pos, 4) == "null") {
      pos += 4;
      return true;
    }
    return fail("expected null");
  }

  bool parse_number(Value& out) {
    out.kind = Value::Kind::Number;
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    auto digits = [&] {
      const std::size_t before = pos;
      while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
      return pos > before;
    };
    const std::size_t int_start = pos;
    if (!digits()) return fail("expected number");
    // RFC 8259: no leading zeros ("01" is invalid, "0", "0.5" are fine).
    if (pos - int_start > 1 && text[int_start] == '0') {
      pos = int_start;
      return fail("leading zero in number");
    }
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      if (!digits()) return fail("expected fraction digits");
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (!digits()) return fail("expected exponent digits");
    }
    // std::from_chars, not strtod: JSON's decimal point is always '.',
    // while strtod follows the process locale (under de_DE it expects ','
    // and would truncate "1.5" to 1). The grammar above already validated
    // the token, so from_chars consumes all of it.
    const char* tb = text.data() + start;
    const char* te = text.data() + pos;
    double v = 0.0;
    if (std::from_chars(tb, te, v).ec == std::errc::result_out_of_range) {
      // Outside double's range. Mirror strtod: overflow to +-inf,
      // underflow to +-0. long double's wider exponent range decides
      // which side any practical token falls on; beyond even that, the
      // exponent's sign does.
      long double lv = 0.0L;
      if (std::from_chars(tb, te, lv).ec == std::errc()) {
        v = static_cast<double>(lv);
      } else {
        const std::string_view token(tb, static_cast<std::size_t>(te - tb));
        const std::size_t e = token.find_first_of("eE");
        const bool tiny =
            e != std::string_view::npos && token[e + 1] == '-';
        v = tiny ? 0.0 : std::numeric_limits<double>::infinity();
        if (token.front() == '-') v = -v;
      }
    }
    out.number = v;
    return true;
  }
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  Parser p{text};
  Value root;
  if (!p.parse_value(root, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing content at offset " + std::to_string(p.pos);
    }
    return std::nullopt;
  }
  return root;
}

namespace {

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

bool validate_chrome_trace(std::string_view text, std::string* error) {
  std::string parse_error;
  const auto doc = parse(text, &parse_error);
  if (!doc) return set_error(error, "invalid JSON: " + parse_error);
  if (!doc->is(Value::Kind::Object)) {
    return set_error(error, "top level is not an object");
  }
  const Value* events = doc->find("traceEvents");
  if (events == nullptr || !events->is(Value::Kind::Array)) {
    return set_error(error, "missing traceEvents array");
  }
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const Value& ev = events->array[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (!ev.is(Value::Kind::Object)) return set_error(error, at + " is not an object");
    const Value* name = ev.find("name");
    const Value* ph = ev.find("ph");
    const Value* ts = ev.find("ts");
    if (name == nullptr || !name->is(Value::Kind::String)) {
      return set_error(error, at + " missing string name");
    }
    if (ph == nullptr || !ph->is(Value::Kind::String)) {
      return set_error(error, at + " missing string ph");
    }
    if (ts == nullptr || !ts->is(Value::Kind::Number)) {
      return set_error(error, at + " missing numeric ts");
    }
    if (ph->string == "X") {
      const Value* dur = ev.find("dur");
      if (dur == nullptr || !dur->is(Value::Kind::Number) || dur->number < 0) {
        return set_error(error, at + " complete event missing non-negative dur");
      }
    }
  }
  return true;
}

bool validate_metrics_json(std::string_view text, std::string* error) {
  std::string parse_error;
  const auto doc = parse(text, &parse_error);
  if (!doc) return set_error(error, "invalid JSON: " + parse_error);
  if (!doc->is(Value::Kind::Object)) {
    return set_error(error, "top level is not an object");
  }
  const Value* name = doc->find("name");
  if (name == nullptr || !name->is(Value::Kind::String)) {
    return set_error(error, "missing string name");
  }
  const Value* results = doc->find("results");
  if (results == nullptr || !results->is(Value::Kind::Array)) {
    return set_error(error, "missing results array");
  }
  for (std::size_t i = 0; i < results->array.size(); ++i) {
    const Value& row = results->array[i];
    const std::string at = "results[" + std::to_string(i) + "]";
    if (!row.is(Value::Kind::Object)) return set_error(error, at + " is not an object");
    const Value* bench = row.find("bench");
    if (bench == nullptr || !bench->is(Value::Kind::String)) {
      return set_error(error, at + " missing string bench");
    }
    for (const auto& [key, value] : row.object) {
      if (key == "bench") continue;
      if (!value.is(Value::Kind::Number)) {
        return set_error(error, at + "." + key + " is not numeric");
      }
    }
  }
  return true;
}

namespace {

/// Parses `text`, checks the top level is an object whose "schema" member
/// equals `schema`, and leaves the document in `doc`.
bool parse_versioned(std::string_view text, std::string_view schema,
                     std::optional<Value>& doc, std::string* error) {
  std::string parse_error;
  doc = parse(text, &parse_error);
  if (!doc) return set_error(error, "invalid JSON: " + parse_error);
  if (!doc->is(Value::Kind::Object)) {
    return set_error(error, "top level is not an object");
  }
  const Value* s = doc->find("schema");
  if (s == nullptr || !s->is(Value::Kind::String) || s->string != schema) {
    return set_error(error,
                     "missing schema \"" + std::string(schema) + "\"");
  }
  return true;
}

bool require_number(const Value& obj, std::string_view key,
                    const std::string& at, std::string* error) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is(Value::Kind::Number)) {
    set_error(error, at + " missing numeric " + std::string(key));
    return false;
  }
  return true;
}

bool require_string(const Value& obj, std::string_view key,
                    const std::string& at, std::string* error) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is(Value::Kind::String)) {
    set_error(error, at + " missing string " + std::string(key));
    return false;
  }
  return true;
}

/// Finds `key` as an array member, or fails.
const Value* require_array(const Value& obj, std::string_view key,
                           const std::string& at, std::string* error) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is(Value::Kind::Array)) {
    set_error(error, at + " missing array " + std::string(key));
    return nullptr;
  }
  return v;
}

}  // namespace

bool validate_snapshot_json(std::string_view text, std::string* error) {
  std::optional<Value> doc;
  if (!parse_versioned(text, "hs.snapshot.v1", doc, error)) return false;
  if (!require_string(*doc, "name", "top level", error)) return false;
  if (!require_number(*doc, "sequence", "top level", error)) return false;
  if (!require_number(*doc, "uptime_ms", "top level", error)) return false;
  const Value* metrics = require_array(*doc, "metrics", "top level", error);
  if (metrics == nullptr) return false;
  for (std::size_t i = 0; i < metrics->array.size(); ++i) {
    const Value& row = metrics->array[i];
    const std::string at = "metrics[" + std::to_string(i) + "]";
    if (!row.is(Value::Kind::Object)) {
      return set_error(error, at + " is not an object");
    }
    if (!require_string(row, "name", at, error)) return false;
    if (!require_number(row, "value", at, error)) return false;
  }
  const Value* hists = require_array(*doc, "histograms", "top level", error);
  if (hists == nullptr) return false;
  for (std::size_t i = 0; i < hists->array.size(); ++i) {
    const Value& row = hists->array[i];
    const std::string at = "histograms[" + std::to_string(i) + "]";
    if (!row.is(Value::Kind::Object)) {
      return set_error(error, at + " is not an object");
    }
    if (!require_string(row, "name", at, error)) return false;
    for (const char* key : {"count", "sum_ms", "min_ms", "mean_ms", "p50_ms",
                            "p90_ms", "p95_ms", "p99_ms", "max_ms"}) {
      if (!require_number(row, key, at, error)) return false;
    }
  }
  return true;
}

bool validate_flight_json(std::string_view text, std::string* error) {
  std::optional<Value> doc;
  if (!parse_versioned(text, "hs.flight.v1", doc, error)) return false;
  if (!require_string(*doc, "reason", "top level", error)) return false;
  if (!require_number(*doc, "recorded_total", "top level", error)) {
    return false;
  }
  const Value* events = require_array(*doc, "events", "top level", error);
  if (events == nullptr) return false;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const Value& ev = events->array[i];
    const std::string at = "events[" + std::to_string(i) + "]";
    if (!ev.is(Value::Kind::Object)) {
      return set_error(error, at + " is not an object");
    }
    for (const char* key : {"t_us", "tid", "job", "a", "b"}) {
      if (!require_number(ev, key, at, error)) return false;
    }
    if (!require_string(ev, "kind", at, error)) return false;
    if (!require_string(ev, "detail", at, error)) return false;
  }
  return true;
}

bool validate_timeline_json(std::string_view text, std::string* error) {
  std::optional<Value> doc;
  if (!parse_versioned(text, "hs.timeline.v1", doc, error)) return false;
  for (const char* key : {"id", "attempts", "queue_ms", "exec_ms", "run_ms",
                          "total_ms"}) {
    if (!require_number(*doc, key, "top level", error)) return false;
  }
  for (const char* key : {"name", "kind", "priority", "state"}) {
    if (!require_string(*doc, key, "top level", error)) return false;
  }
  const Value* cached = doc->find("cached");
  if (cached == nullptr || !cached->is(Value::Kind::Bool)) {
    return set_error(error, "top level missing boolean cached");
  }
  const Value* events = require_array(*doc, "events", "top level", error);
  if (events == nullptr) return false;
  double prev_t = -1;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const Value& ev = events->array[i];
    const std::string at = "events[" + std::to_string(i) + "]";
    if (!ev.is(Value::Kind::Object)) {
      return set_error(error, at + " is not an object");
    }
    if (!require_number(ev, "t_ms", at, error)) return false;
    if (!require_string(ev, "what", at, error)) return false;
    const double t = ev.find("t_ms")->number;
    if (t < prev_t) return set_error(error, at + " out of order");
    prev_t = t;
  }
  return true;
}

}  // namespace hs::trace::json
