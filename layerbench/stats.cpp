#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace lb {

std::optional<double> percentile(std::vector<double> values, double q) {
  if (values.empty() || q < 0 || q > 1) return std::nullopt;
  const double n = static_cast<double>(values.size());
  if (q > 0.5 && std::floor(n * (1 - q) + 1e-9) <
                     static_cast<double>(kMinSamplesBeyond)) {
    return std::nullopt;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * (n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5).value_or(0);
}

void write_samples_json(const std::string& path,
                        const std::map<std::string, std::vector<double>>& samples) {
  std::ofstream out(path);
  out << "{";
  const char* sep = "";
  for (const auto& [name, values] : samples) {
    out << sep << "\"" << name << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(values[i]) ? values[i] : -1.0);
      out << (i ? ", " : "") << buf;
    }
    out << "]";
    sep = ", ";
  }
  out << "}\n";
}

}  // namespace lb
