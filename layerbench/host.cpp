#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "net/protocol.hpp"

namespace lb {

std::string cpu_pressure() {
  std::ifstream in("/proc/pressure/cpu");
  std::string line;
  if (!in || !std::getline(in, line)) return "unavailable";
  return line;
}

double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double ticks[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (double& t : ticks) {
    if (!(in >> t)) return 0;
  }
  return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string host_stamp_json(const std::string& workload,
                            const std::string& pressure_before,
                            const std::string& pressure_after, double steal_s) {
  using hs::net::json_escape;
  std::ostringstream os;
  os << "{\"host\":{\"workload\":\"" << json_escape(workload)
     << "\",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"compiler\":\"" << json_escape(LAYERBENCH_COMPILER)
     << "\",\"build_type\":\"" << json_escape(LAYERBENCH_BUILD_TYPE)
     << "\",\"hs_trace\":\"" << LAYERBENCH_HS_TRACE
     << "\",\"cpu_pressure_before\":\"" << json_escape(pressure_before)
     << "\",\"cpu_pressure_after\":\"" << json_escape(pressure_after)
     << "\",\"steal_s\":" << steal_s << "}}";
  return os.str();
}

namespace {

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double self_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_seconds(ru.ru_utime) + timeval_seconds(ru.ru_stime);
}

double children_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return timeval_seconds(ru.ru_utime) + timeval_seconds(ru.ru_stime);
}

double pid_cpu_seconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  if (!in || !std::getline(in, text)) return 0;
  // The command name (field 2) may contain spaces; fields resume after
  // its closing parenthesis. utime and stime are fields 14 and 15.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(text.substr(close + 2));
  std::string skip;
  for (int field = 3; field < 14; ++field) fields >> skip;
  double utime = 0, stime = 0;
  if (!(fields >> utime >> stime)) return 0;
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double pid_rss_mb(int pid, bool peak) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  const std::string key = peak ? "VmHWM:" : "VmRSS:";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::strtod(line.c_str() + key.size(), nullptr) / 1024;
  }
  return 0;
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

}  // namespace lb
