#include "probes.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "core/shaders.hpp"
#include "core/structuring_element.hpp"
#include "core/unmix_gpu.hpp"
#include "gpusim/assembler.hpp"
#include "gpusim/gpu_device.hpp"
#include "hsi/synthetic.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace lb {

namespace gs = hs::gpusim;

Metrics zero_layer_metrics() {
  const std::pair<const char*, const char*> names[] = {
      {"hsi.scene_gen_s", "s"},
      {"gpusim.pass_ms.cumdist", "ms"},
      {"gpusim.pass_ms.mei", "ms"},
      {"gpusim.pass_ms.normalize", "ms"},
      {"gpusim.replay_share.cumdist", "frac"},
      {"gpusim.replay_share.mei", "frac"},
      {"gpusim.tex_hit_rate", "frac"},
      {"gpusim.draw_ms", "ms"},
      {"gpusim.xfer_ms", "ms"},
      {"stream.chunks", "count"},
      {"stream.chunk_ms", "ms"},
      {"stream.exec_self_ms", "ms"},
      {"core.pipeline_self_ms", "ms"},
      {"core.stage_self_ms.stream_upload", "ms"},
      {"core.stage_self_ms.normalization", "ms"},
      {"core.stage_self_ms.cumulative_distance", "ms"},
      {"core.stage_self_ms.maximum_minimum", "ms"},
      {"core.stage_self_ms.compute_sid", "ms"},
      {"core.stage_self_ms.stream_download", "ms"},
      {"core.unmix_ms", "ms"},
      {"cache.result_hit_ratio", "frac"},
      {"cache.scene_hit_ratio", "frac"},
      {"cache.program_hit_ratio", "frac"},
      {"cache.result_evictions", "count"},
      {"serve.submit_us_p50", "us"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p90", "ms"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.rss_kb_per_job", "KiB"},
      {"net.front_ms_p50", "ms"},
      {"net.decode_us", "us"},
      {"net.encode_us", "us"},
      {"shard.hop_ms_p50", "ms"},
      {"shard.spawn_s", "s"},
      {"shard.deaths", "count"},
      {"shard.rerouted", "count"},
      {"trace.overhead_frac", "frac"},
      {"gen.sent", "count"},
      {"gen.succeeded", "count"},
      {"gen.failed", "count"},
      {"gen.jobs_per_s", "1/s"},
      {"gen.latency_p50_ms", "ms"},
      {"gen.late_ms_p90", "ms"},
      {"gen.latency_p90_ms", "ms"},
      {"layers.requests", "count"},
      {"layers.sum_err_ms", "ms"},
  };
  Metrics m;
  for (const auto& [name, unit] : names) m[name] = Metric{0, unit};
  return m;
}

std::pair<int, int> pipeline_layers(const std::vector<hs::trace::TraceEvent>& events,
                                    RunResult& result) {
  Metrics& layer = result.per_layer;
  std::vector<SpanRecord> spans = from_trace_events(events);
  // Tag every span below a pipeline root with that call's request id.
  std::vector<int> root_of(spans.size(), -1);
  std::uint64_t calls = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p < 0) {
      if (spans[i].name == "pipeline:amc_gpu") {
        root_of[i] = static_cast<int>(i);
        spans[i].request = ++calls;
      }
    } else if (root_of[static_cast<std::size_t>(p)] >= 0) {
      root_of[i] = root_of[static_cast<std::size_t>(p)];
      spans[i].request = spans[static_cast<std::size_t>(root_of[i])].request;
    }
  }
  if (calls == 0) return {0, 0};
  const std::vector<double> self = self_times_ms(spans);

  // Per call: self time summed by metric, chunk count.
  std::map<std::uint64_t, std::map<std::string, double>> per_call;
  std::vector<double> chunk_ms;
  std::pair<int, int> padded{0, 0};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.request == 0) continue;
    auto& sums = per_call[s.request];
    const std::string& name = s.name;
    std::string metric;
    if (name.rfind("pipeline:", 0) == 0 || name.rfind("chunk:", 0) == 0) {
      metric = "core.pipeline_self_ms";
    } else if (name.rfind("stage:", 0) == 0) {
      metric = "core.stage_self_ms." + name.substr(6);
    } else if (name.rfind("stage_pass:", 0) == 0) {
      metric = "stream.exec_self_ms";
    } else if (name.rfind("pass:", 0) == 0) {
      metric = "gpusim.draw_ms";
    } else if (name.rfind("xfer:", 0) == 0) {
      metric = "gpusim.xfer_ms";
    }
    if (!metric.empty()) sums[metric] += self[i];
    if (name == "chunk:chunk") {
      chunk_ms.push_back(s.duration_ms());
      sums["stream.chunks"] += 1;
      if (padded.first == 0) {
        for (const hs::trace::TraceArg& a : events[i].args) {
          if (std::string_view(a.key) == "padded_width") padded.first = static_cast<int>(a.num);
          if (std::string_view(a.key) == "padded_height") padded.second = static_cast<int>(a.num);
        }
      }
    }
  }
  std::map<std::string, std::vector<double>> samples;
  for (const auto& [call, sums] : per_call) {
    for (const auto& [metric, value] : sums) samples[metric].push_back(value);
  }
  for (const auto& [metric, values] : samples) {
    if (layer.count(metric)) layer[metric].value = median(values);
  }
  layer["stream.chunk_ms"].value = median(chunk_ms);

  const LayerSumCheck check = check_layer_sum(spans, kLayerSumToleranceMs);
  layer["layers.requests"].value += static_cast<double>(check.requests);
  layer["layers.sum_err_ms"].value = std::max(layer["layers.sum_err_ms"].value,
                                              check.max_error_ms);
  if (check.violations > 0) {
    result.problem(std::to_string(check.violations) +
                   " pipeline calls break the layer-sum invariant");
  }
  return padded;
}

namespace {

struct KernelRun {
  double normalize_ms = 0;
  double cumdist_ms = 0;
  double mei_ms = 0;
  gs::TextureCacheStats cache;
};

// Draws the Figure-4 kernel chain once on one band group of a viewport cut
// from the cube (so every input holds realistic values, including the
// data-dependent MEI offsets), then re-draws the three measured kernels.
KernelRun run_kernels(const hs::hsi::HyperCube& cube, int width, int height,
                      bool texture_cache) {
  using gs::float4;
  using gs::TextureFormat;
  gs::SimConfig sim;
  sim.texture_cache = texture_cache;
  gs::Device dev(gs::geforce_7800_gtx(), sim);

  const hs::core::StructuringElement se = hs::core::StructuringElement::square(1);
  std::vector<float4> cumdist_consts, minmax_consts;
  for (const auto& [dx, dy] : se.offsets) {
    const auto fx = static_cast<float>(dx);
    const auto fy = static_cast<float>(dy);
    cumdist_consts.push_back({fx, fy, 0.f, 0.f});
    minmax_consts.push_back({fx, fy, fx, fy});
  }
  namespace sh = hs::core::shaders;
  const auto clear = gs::assemble_or_die("clear", sh::clear_source());
  const auto band_sum = gs::assemble_or_die("band_sum", sh::band_sum_source());
  const auto normalize = gs::assemble_or_die("normalize", sh::normalize_source());
  const auto log = gs::assemble_or_die("log", sh::log_source());
  const auto cumdist = gs::assemble_or_die(
      "cumdist_fused", sh::cumulative_distance_fused_source(se.size()));
  const auto minmax = gs::assemble_or_die("minmax_offsets",
                                          sh::minmax_offsets_source(se.size()));
  const auto mei = gs::assemble_or_die("mei", sh::mei_source());

  std::vector<float4> raw(static_cast<std::size_t>(width) * static_cast<std::size_t>(height));
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const int cx = std::min(x, cube.width() - 1);
      const int cy = std::min(y, cube.height() - 1);
      raw[static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
          static_cast<std::size_t>(x)] = {cube.at(cx, cy, 0), cube.at(cx, cy, 1),
                                          cube.at(cx, cy, 2), cube.at(cx, cy, 3)};
    }
  }
  const auto rgba = [&] { return dev.create_texture(width, height, TextureFormat::RGBA32F); };
  const auto scalar = [&] { return dev.create_texture(width, height, TextureFormat::R32F); };
  const gs::TextureHandle t_raw = rgba(), t_norm = rgba(), t_log = rgba(),
                          t_off = rgba();
  const gs::TextureHandle t_sum0 = scalar(), t_sum1 = scalar(), t_db0 = scalar(),
                          t_db1 = scalar(), t_mei0 = scalar(), t_mei1 = scalar();
  dev.upload(t_raw, std::span<const float4>(raw));

  using H = gs::TextureHandle;
  const auto draw = [&](const gs::FragmentProgram& prog, std::initializer_list<H> in,
                        std::span<const float4> consts, H out) {
    const std::vector<H> inputs(in);
    const H outputs[1] = {out};
    return dev.draw(prog, inputs, consts, outputs);
  };
  const auto timed = [&](const gs::FragmentProgram& prog, std::initializer_list<H> in,
                         std::span<const float4> consts, H out, double& ms) {
    const Clock::time_point t0 = Clock::now();
    const gs::PassStats stats = draw(prog, in, consts, out);
    ms = seconds_between(t0, Clock::now()) * 1e3;
    return stats;
  };

  draw(clear, {}, {}, t_sum0);
  draw(band_sum, {t_raw, t_sum0}, {}, t_sum1);
  draw(normalize, {t_raw, t_sum1}, {}, t_norm);
  draw(log, {t_norm}, {}, t_log);
  draw(clear, {}, {}, t_db0);
  draw(cumdist, {t_norm, t_log, t_db0}, cumdist_consts, t_db1);
  draw(minmax, {t_db1}, minmax_consts, t_off);
  draw(clear, {}, {}, t_mei0);
  draw(mei, {t_norm, t_log, t_off, t_mei0}, {}, t_mei1);

  KernelRun run;
  run.cache += timed(normalize, {t_raw, t_sum1}, {}, t_norm, run.normalize_ms).cache;
  run.cache += timed(cumdist, {t_norm, t_log, t_db0}, cumdist_consts, t_db1,
                     run.cumdist_ms).cache;
  run.cache += timed(mei, {t_norm, t_log, t_off, t_mei0}, {}, t_mei1, run.mei_ms).cache;
  return run;
}

}  // namespace

void gpusim_layers(const hs::hsi::HyperCube& cube, int width, int height,
                   Metrics& layer) {
  if (width <= 0 || height <= 0) {
    width = cube.width();
    height = cube.height();
  }
  constexpr int kRepeats = 5;
  std::vector<double> norm[2], cum[2], mei[2];
  gs::TextureCacheStats cache;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (int c = 0; c < 2; ++c) {
      const KernelRun run = run_kernels(cube, width, height, /*texture_cache=*/c == 1);
      norm[c].push_back(run.normalize_ms);
      cum[c].push_back(run.cumdist_ms);
      mei[c].push_back(run.mei_ms);
      if (c == 1 && rep == 0) cache = run.cache;
    }
  }
  layer["gpusim.pass_ms.normalize"].value = median(norm[1]);
  layer["gpusim.pass_ms.cumdist"].value = median(cum[1]);
  layer["gpusim.pass_ms.mei"].value = median(mei[1]);
  layer["gpusim.replay_share.cumdist"].value = 1 - median(cum[0]) / median(cum[1]);
  layer["gpusim.replay_share.mei"].value = 1 - median(mei[0]) / median(mei[1]);
  layer["gpusim.tex_hit_rate"].value =
      cache.accesses == 0 ? 0
                          : static_cast<double>(cache.hits) / static_cast<double>(cache.accesses);
}

void unmix_layer(const hs::hsi::HyperCube& cube, std::uint64_t seed, Metrics& layer) {
  const auto endmembers = hs::serve::synthetic_endmembers(4, cube.bands(), seed);
  const hs::core::AmcGpuOptions opt;
  hs::core::unmix_gpu(cube, endmembers, opt);  // warm-up
  std::vector<double> ms;
  const Clock::time_point start = Clock::now();
  while (ms.size() < 2 || (ms.size() < 9 && seconds_between(start, Clock::now()) < 0.5)) {
    const Clock::time_point t0 = Clock::now();
    hs::core::unmix_gpu(cube, endmembers, opt);
    ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  layer["core.unmix_ms"].value = median(ms);
}

void engine_layers(const hs::hsi::HyperCube& cube, std::uint64_t seed,
                   RunResult& result) {
  const hs::core::StructuringElement se = hs::core::StructuringElement::square(1);
  const hs::core::AmcGpuOptions opt;
  hs::core::morphology_gpu(cube, se, opt);  // warm-up, untraced
  hs::trace::reset();
  hs::trace::set_enabled(true);
  for (int i = 0; i < 5; ++i) hs::core::morphology_gpu(cube, se, opt);
  hs::trace::set_enabled(false);
  const auto [pw, ph] = pipeline_layers(hs::trace::snapshot(), result);
  hs::trace::reset();
  gpusim_layers(cube, pw, ph, result.per_layer);
  unmix_layer(cube, seed, result.per_layer);
}

hs::hsi::HyperCube synthetic_scene(int width, int height, int bands, std::uint64_t seed) {
  hs::hsi::SceneConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.bands = bands;
  cfg.seed = seed;
  return std::move(hs::hsi::generate_indian_pines_scene(cfg).cube);
}

std::uint64_t morph_witness(const hs::core::AmcGpuReport& report) {
  const auto& m = report.morph;
  const std::uint64_t h =
      hs::serve::fnv1a(m.mei.data(), m.mei.size() * sizeof(float), hs::serve::fnv1a(nullptr, 0));
  return hs::serve::fnv1a(m.db.data(), m.db.size() * sizeof(float), h);
}

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << value;
  return os.str();
}

std::uint64_t expected_output_hash(const hs::serve::JobSpec& spec) {
  const hs::serve::SceneSpec& sc = spec.scene;
  const hs::hsi::HyperCube cube = synthetic_scene(sc.width, sc.height, sc.bands, sc.seed);
  hs::core::AmcGpuOptions opt;
  opt.workers = spec.workers;
  opt.chunk_texel_budget = spec.chunk_texel_budget;
  opt.half_precision = spec.half_precision;
  opt.sim.worker_threads = 1;  // verification runs several jobs at once
  // The server chains the labels of a classify/unmix job after mei and db.
  std::uint64_t hash = hs::serve::fnv1a(nullptr, 0);
  if (spec.kind != hs::serve::JobKind::Unmix) {
    hash = morph_witness(hs::core::morphology_gpu(
        cube, hs::core::StructuringElement::square(spec.se_radius), opt));
  }
  if (spec.kind != hs::serve::JobKind::Morphology) {
    const auto endmembers =
        hs::serve::synthetic_endmembers(spec.endmembers, cube.bands(), sc.seed);
    const std::vector<int> labels = hs::core::unmix_gpu(cube, endmembers, opt).labels;
    hash = hs::serve::fnv1a(labels.data(), labels.size() * sizeof(int), hash);
  }
  return hash;
}

double scene_gen_seconds(const hs::serve::JobSpec& spec, int repeats) {
  const hs::serve::SceneSpec& sc = spec.scene;
  std::vector<double> s;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    synthetic_scene(sc.width, sc.height, sc.bands, sc.seed);
    s.push_back(seconds_between(t0, Clock::now()));
  }
  return median(s);
}

}  // namespace lb
