// Shared vocabulary of the layered benchmark: run configuration, the
// metric map every workload fills, and clock helpers.
//
// Every workload fills both metric sets; main() prints the end-to-end set
// for an untraced run and the per-layer set for a traced one. A per-layer
// metric whose layer is not on a workload's path (no shard tier in
// scene-512, say) is reported as 0.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string served_path;  ///< hsi-served binary the shard tier spawns
  std::string out_dir;      ///< spans, shard state and host stamp land here
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> problems;
  Metrics end_to_end;
  Metrics per_layer;

  void problem(std::string what) { problems.push_back(std::move(what)); }
};

RunResult run_scene_512(const RunConfig& cfg);
RunResult run_sensor_stream(const RunConfig& cfg);
RunResult run_fleet_tiny(const RunConfig& cfg);

}  // namespace lb
