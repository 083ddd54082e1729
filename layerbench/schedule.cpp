#include "schedule.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <string>

namespace lb {

namespace {

double uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1p-53;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Independent generator streams derived from one workload seed.
constexpr std::uint64_t kArrivalStream = 1;
constexpr std::uint64_t kMixStream = 2;

std::mt19937_64 stream_rng(std::uint64_t seed, std::uint64_t stream) {
  return std::mt19937_64(splitmix64(seed ^ splitmix64(stream)));
}

hs::serve::JobSpec sized_job(hs::serve::JobKind kind, int size, int bands,
                             std::uint64_t seed) {
  hs::serve::JobSpec spec;
  spec.kind = kind;
  spec.scene.width = size;
  spec.scene.height = size;
  spec.scene.bands = bands;
  spec.scene.seed = seed;
  return spec;
}

}  // namespace

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double duration_s) {
  const auto count = static_cast<std::size_t>(std::llround(rate_per_s * duration_s));
  std::vector<double> due;
  if (count == 0) return due;
  // Exponential gaps rescaled to span the window: the arrival times of a
  // Poisson process conditioned on `count` arrivals, so every seed offers
  // exactly the same load.
  std::mt19937_64 rng = stream_rng(seed, kArrivalStream);
  std::vector<double> gaps(count + 1);
  double total = 0;
  for (double& g : gaps) {
    g = -std::log1p(-uniform01(rng));
    total += g;
  }
  double t = 0;
  due.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    t += gaps[i];
    due.push_back(duration_s * t / total);
  }
  return due;
}

std::uint64_t scene_seed(std::uint64_t workload_seed, std::uint64_t index) {
  // Request seeds travel as JSON numbers, exact only below 2^53; consecutive
  // offsets from a seeded base keep a run's seeds distinct.
  constexpr std::uint64_t kExact = 1ull << 53;
  return (splitmix64(workload_seed) % kExact + index) % kExact;
}

std::vector<PlannedJob> sensor_mix(std::uint64_t seed, std::size_t count) {
  std::mt19937_64 rng = stream_rng(seed, kMixStream);
  std::vector<PlannedJob> jobs;
  std::vector<std::size_t> uniques;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double pick = uniform01(rng);
    const double which = uniform01(rng);
    PlannedJob job;
    if (!uniques.empty() && pick < 0.25) {
      const std::size_t n = uniques.size();
      const std::size_t earlier =
          uniques[std::min(n - 1, static_cast<std::size_t>(which * static_cast<double>(n)))];
      job.spec = jobs[earlier].spec;
      job.repeat_of = static_cast<long>(earlier);
    } else {
      const auto kind = which < 2.0 / 3.0 ? hs::serve::JobKind::Morphology
                                          : hs::serve::JobKind::Classify;
      job.spec = sized_job(kind, 64, 32, scene_seed(seed, i));
      uniques.push_back(i);
    }
    job.spec.name = "s" + std::to_string(i);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

hs::serve::JobSpec fleet_job(std::uint64_t workload_seed, std::uint64_t index) {
  hs::serve::JobSpec spec = sized_job(hs::serve::JobKind::Morphology, 32, 16,
                                      scene_seed(workload_seed, index));
  spec.name = "f" + std::to_string(index);
  return spec;
}

}  // namespace lb
