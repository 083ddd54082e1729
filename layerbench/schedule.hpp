// Seeded inputs: Poisson arrival schedules and the job mixes the serving
// workloads send. Everything here is a pure function of its seed, built
// on std::mt19937_64 (whose output sequence the C++ standard fixes) with
// hand-written uniform/exponential transforms, so schedules reproduce
// across standard libraries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/job.hpp"

namespace lb {

/// Due times (seconds from the schedule start, increasing, below
/// `duration_s`) of a Poisson process with `rate_per_s` arrivals per second,
/// conditioned on exactly round(rate_per_s * duration_s) arrivals.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double duration_s);

/// Scene seed of a workload's index-th request: distinct for distinct
/// indices, and below 2^53 so it survives a JSON round trip.
std::uint64_t scene_seed(std::uint64_t workload_seed, std::uint64_t index);

/// One request of a serving workload; `repeat_of` names the earlier
/// request whose spec it repeats exactly, or -1 for a unique request.
struct PlannedJob {
  hs::serve::JobSpec spec;
  long repeat_of = -1;
};

/// The sensor-stream mix: 64x64x32 scenes, two thirds morphology and one
/// third classify; a quarter of requests exactly repeat a uniformly chosen
/// earlier unique request, the rest carry unique scene seeds.
std::vector<PlannedJob> sensor_mix(std::uint64_t seed, std::size_t count);

/// The fleet-tiny request: a 32x32x16 morphology job with a unique seed.
hs::serve::JobSpec fleet_job(std::uint64_t workload_seed, std::uint64_t index);

}  // namespace lb
