// Per-layer probes shared by the workloads: the canonical per-layer
// metric list, the engine-side layers measured by direct calls on a
// workload's scene shape (gpusim kernels, stream chunks, core stages and
// unmixing), and the witness hashes the serving workloads check against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/amc_gpu.hpp"
#include "hsi/cube.hpp"
#include "layerbench.hpp"
#include "serve/job.hpp"
#include "trace/trace.hpp"

namespace lb {

/// Every per-layer metric, named with its unit and set to 0. Workloads
/// overwrite the ones their layers produce.
Metrics zero_layer_metrics();

/// stream.*, core.* and the gpusim span totals from the hs::trace spans
/// of one or more traced morphology_gpu calls (medians over calls), with
/// each call checked against the layer-sum invariant. Returns the padded
/// size of the first chunk, or {0, 0} without spans.
std::pair<int, int> pipeline_layers(const std::vector<hs::trace::TraceEvent>& events,
                                    RunResult& result);

/// gpusim.* by drawing the normalization, cumulative-distance and MEI
/// kernels once each per repetition on a `width` x `height` viewport cut
/// from `cube`, with the texture-cache model on and off.
void gpusim_layers(const hs::hsi::HyperCube& cube, int width, int height,
                   Metrics& layer);

/// core.unmix_ms: median wall time of unmix_gpu on `cube`.
void unmix_layer(const hs::hsi::HyperCube& cube, std::uint64_t seed, Metrics& layer);

/// Runs traced morphology_gpu calls on `cube` and fills the stream, core
/// and gpusim layers from them (the serving workloads' engine probe).
void engine_layers(const hs::hsi::HyperCube& cube, std::uint64_t seed,
                   RunResult& result);

/// The seeded synthetic scene the serving layer generates for a job.
hs::hsi::HyperCube synthetic_scene(int width, int height, int bands, std::uint64_t seed);

/// The server's witness of a morphology run: FNV-1a over mei, then db.
std::uint64_t morph_witness(const hs::core::AmcGpuReport& report);

/// Lowercase hex without leading zeros, as result frames print hashes.
std::string hex(std::uint64_t value);

/// The witness a served job must report: the output hash the server
/// computes, from a direct pipeline call with the same options.
std::uint64_t expected_output_hash(const hs::serve::JobSpec& spec);

/// Median wall time of generating the spec's synthetic scene.
double scene_gen_seconds(const hs::serve::JobSpec& spec, int repeats);

}  // namespace lb
