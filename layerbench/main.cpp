// layerbench: the layered HyperStream benchmark binary (run by run.py).
//
//   layerbench --workload <scene-512|sensor-stream|fleet-tiny> --seed <n>
//              --seconds <s> --trace <0|1> --served <hsi-served> --out <dir>
//   layerbench --golden <first-seed> <last-seed>
//
// Prints a host stamp line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when
// an output check failed.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>

#include "core/amc_gpu.hpp"
#include "core/structuring_element.hpp"
#include "host.hpp"
#include "layerbench.hpp"
#include "net/protocol.hpp"
#include "probes.hpp"

namespace {

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Prints the golden.hpp rows for scene-512 seeds first..last.
int print_golden(std::uint64_t first, std::uint64_t last) {
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const hs::core::AmcGpuReport r = hs::core::morphology_gpu(
        lb::synthetic_scene(512, 512, 128, seed), hs::core::StructuringElement::square(1),
        hs::core::AmcGpuOptions{});
    const std::uint64_t h = lb::morph_witness(r);
    std::printf("    {%llu, 0x%llxULL, %a, %lluULL, %lluULL, %lluULL},\n",
                static_cast<unsigned long long>(seed), static_cast<unsigned long long>(h),
                r.modeled_seconds,
                static_cast<unsigned long long>(r.totals.cache.accesses),
                static_cast<unsigned long long>(r.totals.cache.hits),
                static_cast<unsigned long long>(r.totals.cache.misses));
    std::printf("    // exec {%lluULL, %lluULL, %lluULL} chunks %zu\n",
                static_cast<unsigned long long>(r.totals.exec.alu_instructions),
                static_cast<unsigned long long>(r.totals.exec.tex_fetches),
                static_cast<unsigned long long>(r.totals.exec.tex_fetch_bytes),
                r.chunk_count);
    std::fflush(stdout);
  }
  return 0;
}

int usage(const std::string& why) {
  std::cerr << "layerbench: " << why
            << "\nusage: layerbench --workload <scene-512|sensor-stream|fleet-tiny> "
               "--seed <n> --seconds <s> --trace <0|1> --served <path> --out <dir>\n"
               "       layerbench --golden <first-seed> <last-seed>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  lb::RunConfig cfg;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--golden") {
      std::uint64_t first = 0, last = 0;
      if (i + 2 >= argc || !parse_number(argv[i + 1], first) ||
          !parse_number(argv[i + 2], last) || last < first) {
        return usage("--golden needs two seeds, first <= last");
      }
      return print_golden(first, last);
    }
    if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      if (!parse_number(value, cfg.seed)) return usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!parse_number(value, cfg.seconds) || !(cfg.seconds > 0)) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      trace = value == "1";
    } else if (flag == "--served") {
      cfg.served_path = value;
    } else if (flag == "--out") {
      cfg.out_dir = value;
    } else {
      return usage("unknown flag " + std::string(flag));
    }
  }
  if (trace < 0 || cfg.out_dir.empty()) return usage("--trace and --out are required");
  cfg.trace = trace == 1;
  std::filesystem::create_directories(cfg.out_dir);

  const std::string pressure_before = lb::cpu_pressure();
  const double steal_before = lb::steal_seconds();
  lb::RunResult result;
  try {
    if (cfg.workload == "scene-512") {
      result = lb::run_scene_512(cfg);
    } else if (cfg.workload == "sensor-stream") {
      if (cfg.served_path.empty()) return usage("sensor-stream needs --served");
      result = lb::run_sensor_stream(cfg);
    } else if (cfg.workload == "fleet-tiny") {
      if (cfg.served_path.empty()) return usage("fleet-tiny needs --served");
      result = lb::run_fleet_tiny(cfg);
    } else {
      return usage("unknown workload '" + cfg.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "layerbench: " << cfg.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  std::cout << lb::host_stamp_json(cfg.workload, pressure_before, lb::cpu_pressure(),
                                   lb::steal_seconds() - steal_before)
            << "\n";

  const lb::Metrics& metrics = cfg.trace ? result.per_layer : result.end_to_end;
  std::string body;
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) result.problem(name + " is not finite");
    body += body.empty() ? "" : ", ";
    body += "\"" + hs::net::json_escape(name) + "\": {\"value\": " +
            number(std::isfinite(m.value) ? m.value : 0) + ", \"unit\": \"" +
            hs::net::json_escape(m.unit) + "\"}";
  }
  for (const std::string& p : result.problems) {
    std::cerr << "layerbench: check failed: " << p << "\n";
  }
  const bool correct = result.problems.empty() && result.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": {" << body << "}}" << std::endl;
  return correct ? 0 : 1;
}
