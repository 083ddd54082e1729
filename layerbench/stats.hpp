// Order statistics with the benchmark's sample-size rule: a percentile
// above the median is reported only when at least ten samples lie beyond
// it, so a p90 needs 100 samples.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lb {

inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Linear-interpolated percentile, q in [0, 1]. nullopt for an empty
/// sample, and for q > 0.5 when fewer than kMinSamplesBeyond samples lie
/// beyond the requested rank.
std::optional<double> percentile(std::vector<double> values, double q);

/// Median; 0 for an empty sample.
double median(std::vector<double> values);

/// Writes the raw samples behind a run's metrics as one JSON object of
/// named arrays, so other estimators can be computed offline.
void write_samples_json(const std::string& path,
                        const std::map<std::string, std::vector<double>>& samples);

}  // namespace lb
