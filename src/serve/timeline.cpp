#include "serve/timeline.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "trace/json_check.hpp"

namespace hs::serve {

namespace {

using trace::json_escape;

std::string ms(double seconds) {
  if (!std::isfinite(seconds)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e3);
  return buf;
}

}  // namespace

void write_timeline_json(std::ostream& os, const JobResult& r) {
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(r.output_hash));
  os << "{\n  \"schema\": \"hs.timeline.v1\",\n  \"id\": " << r.id
     << ",\n  \"name\": \"" << json_escape(r.name)
     << "\",\n  \"kind\": \"" << to_string(r.kind)
     << "\",\n  \"priority\": \"" << to_string(r.priority)
     << "\",\n  \"state\": \"" << to_string(r.state)
     << "\",\n  \"detail\": \"" << json_escape(r.detail)
     << "\",\n  \"attempts\": " << r.attempts
     << ",\n  \"cached\": " << (r.cached ? "true" : "false")
     << ",\n  \"queue_ms\": " << ms(r.queue_seconds)
     << ",\n  \"exec_ms\": " << ms(r.exec_seconds)
     << ",\n  \"run_ms\": " << ms(r.run_seconds)
     << ",\n  \"total_ms\": " << ms(r.queue_seconds + r.run_seconds)
     << ",\n  \"output_hash\": \"" << hash << "\",\n  \"events\": [\n";
  for (std::size_t i = 0; i < r.timeline.size(); ++i) {
    const TimelineEvent& ev = r.timeline[i];
    os << "    {\"t_ms\": " << ms(ev.t_seconds) << ", \"what\": \""
       << json_escape(ev.what) << "\", \"detail\": \""
       << json_escape(ev.detail) << "\"}"
       << (i + 1 < r.timeline.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

bool write_timeline_json_file(const std::string& path, const JobResult& r) {
  std::ofstream os(path);
  if (!os) return false;
  write_timeline_json(os, r);
  return static_cast<bool>(os);
}

std::string timeline_filename(const JobResult& r) {
  return "timeline_job" + std::to_string(r.id) + ".json";
}

}  // namespace hs::serve
