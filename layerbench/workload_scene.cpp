// scene-512: the paper's Figure-4 pipeline at paper scale. One caller runs
// core::morphology_gpu back to back (a closed loop) on a seeded
// 512x512x128 synthetic scene with a 3x3 structuring element and
// library-default AmcGpuOptions.
#include <iterator>
#include <optional>
#include <sstream>

#include "core/morphology.hpp"
#include "core/structuring_element.hpp"
#include "golden.hpp"
#include "host.hpp"
#include "layerbench.hpp"
#include "probes.hpp"
#include "serve/job.hpp"
#include "stats.hpp"

namespace lb {

namespace {

constexpr int kSize = 512;
constexpr int kBands = 128;
// Each set-up generates the scene and makes one warm-up call; setup_s is
// the median CPU time of these.
constexpr int kSetups = 3;
constexpr std::size_t kMinCalls = 3;

bool same_statistics(const hs::core::AmcGpuReport& a, const hs::core::AmcGpuReport& b) {
  const auto& x = a.totals;
  const auto& y = b.totals;
  return a.modeled_seconds == b.modeled_seconds && a.chunk_count == b.chunk_count &&
         x.passes == y.passes && x.fragments == y.fragments &&
         x.exec.alu_instructions == y.exec.alu_instructions &&
         x.exec.tex_fetches == y.exec.tex_fetches &&
         x.exec.tex_fetch_bytes == y.exec.tex_fetch_bytes &&
         x.cache.accesses == y.cache.accesses && x.cache.hits == y.cache.hits &&
         x.cache.misses == y.cache.misses && x.bytes_written == y.bytes_written &&
         x.modeled_pass_seconds == y.modeled_pass_seconds;
}

struct Phase {
  std::vector<double> call_s;
  std::vector<double> call_cpu_s;
  double cpu_s = 0;
  std::size_t mismatches = 0;
};

Phase measure(const hs::hsi::HyperCube& cube, const hs::core::AmcGpuReport& reference,
              std::uint64_t reference_witness, double seconds) {
  const hs::core::StructuringElement se = hs::core::StructuringElement::square(1);
  const hs::core::AmcGpuOptions opt;
  Phase phase;
  const double cpu0 = self_cpu_seconds();
  const Clock::time_point start = Clock::now();
  while (phase.call_s.size() < kMinCalls ||
         seconds_between(start, Clock::now()) < seconds) {
    const double c0 = self_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const hs::core::AmcGpuReport r = hs::core::morphology_gpu(cube, se, opt);
    phase.call_s.push_back(seconds_between(t0, Clock::now()));
    phase.call_cpu_s.push_back(self_cpu_seconds() - c0);
    if (morph_witness(r) != reference_witness || !same_statistics(r, reference)) {
      ++phase.mismatches;
    }
  }
  phase.cpu_s = self_cpu_seconds() - cpu0;
  return phase;
}

hs::hsi::HyperCube make_scene(std::uint64_t seed) {
  return synthetic_scene(kSize, kSize, kBands, seed);
}

void check_pin(const Scene512Golden& pin, const hs::core::AmcGpuReport& r,
               RunResult& result) {
  const std::uint64_t w = morph_witness(r);
  if (w != pin.output_hash || r.modeled_seconds != pin.modeled_seconds ||
      r.totals.cache.accesses != pin.cache_accesses ||
      r.totals.cache.hits != pin.cache_hits || r.totals.cache.misses != pin.cache_misses) {
    std::ostringstream os;
    os << "seed " << pin.seed << " differs from its pin: witness " << hex(w) << " modeled "
       << std::hexfloat << r.modeled_seconds << std::defaultfloat << " cache "
       << r.totals.cache.accesses << "/" << r.totals.cache.hits << "/" << r.totals.cache.misses;
    result.problem(os.str());
  }
}

// The reference call checked against independent sources: data-independent
// counters pinned for the shape, the CPU mirror of the kernels, and the
// per-seed pins. A seed without a pin gets its pin checked on a pinned
// seed's scene instead.
void verify_reference(const hs::hsi::HyperCube& cube, std::uint64_t seed,
                      const hs::core::AmcGpuReport& ref, RunResult& result) {
  const auto& exec = ref.totals.exec;
  if (exec.alu_instructions != kScene512Exec.alu_instructions ||
      exec.tex_fetches != kScene512Exec.tex_fetches ||
      exec.tex_fetch_bytes != kScene512Exec.tex_fetch_bytes ||
      ref.chunk_count != kScene512Chunks) {
    result.problem("ExecCounters/chunks differ from the pinned 512x512x128 values: alu=" +
                   std::to_string(exec.alu_instructions) + " fetches=" +
                   std::to_string(exec.tex_fetches) + " fetch_bytes=" +
                   std::to_string(exec.tex_fetch_bytes) + " chunks=" +
                   std::to_string(ref.chunk_count));
  }
  const hs::core::MorphOutputs mirror =
      hs::core::morphology_vectorized(cube, hs::core::StructuringElement::square(1));
  if (mirror.mei != ref.morph.mei || mirror.db != ref.morph.db ||
      mirror.erosion_index != ref.morph.erosion_index ||
      mirror.dilation_index != ref.morph.dilation_index) {
    result.problem("GPU outputs are not bit-identical to morphology_vectorized");
  }
  if (const Scene512Golden* pin = find_scene512_golden(seed)) {
    check_pin(*pin, ref, result);
    return;
  }
  const Scene512Golden& pin = kScene512Golden[seed % std::size(kScene512Golden)];
  check_pin(pin,
            hs::core::morphology_gpu(make_scene(pin.seed),
                                     hs::core::StructuringElement::square(1),
                                     hs::core::AmcGpuOptions{}),
            result);
}

}  // namespace

RunResult run_scene_512(const RunConfig& cfg) {
  RunResult result;
  result.per_layer = zero_layer_metrics();
  std::vector<double> setup_cpu_s, gen_s;
  std::optional<hs::hsi::HyperCube> cube;
  std::optional<hs::core::AmcGpuReport> reference;
  for (int k = 0; k < kSetups; ++k) {
    cube.reset();
    reference.reset();
    const double cpu0 = self_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    cube.emplace(make_scene(cfg.seed));
    gen_s.push_back(seconds_between(t0, Clock::now()));
    reference.emplace(hs::core::morphology_gpu(
        *cube, hs::core::StructuringElement::square(1), hs::core::AmcGpuOptions{}));
    setup_cpu_s.push_back(self_cpu_seconds() - cpu0);
  }
  const std::uint64_t ref_witness = morph_witness(*reference);

  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const Phase base = measure(*cube, *reference, ref_witness, untraced_s);
  std::vector<double> latency_ms;
  for (double s : base.call_s) latency_ms.push_back(s * 1e3);
  double busy_s = 0;
  for (double s : base.call_s) busy_s += s;
  const auto calls = static_cast<double>(base.call_s.size());

  Metrics& e2e = result.end_to_end;
  e2e["cpu_ms_per_job"] = {base.cpu_s * 1e3 / calls, "ms"};
  e2e["setup_s"] = {median(setup_cpu_s), "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  write_samples_json(cfg.out_dir + "/scene-512-samples.json",
                     {{"call_s", base.call_s}, {"call_cpu_s", base.call_cpu_s},
                      {"setup_cpu_s", setup_cpu_s}, {"scene_gen_s", gen_s}});
  result.attempted = base.call_s.size();
  result.failed = base.mismatches;

  Metrics& layer = result.per_layer;
  layer["gen.latency_p50_ms"].value = median(latency_ms);
  layer["gen.jobs_per_s"].value = calls / busy_s;
  layer["hsi.scene_gen_s"].value = median(gen_s);
  layer["gen.sent"].value = calls;
  layer["gen.succeeded"].value = calls - static_cast<double>(base.mismatches);
  layer["gen.failed"].value = static_cast<double>(base.mismatches);
  if (const auto p90 = percentile(latency_ms, 0.9)) layer["gen.latency_p90_ms"].value = *p90;
  if (cfg.trace) {
    hs::trace::reset();
    hs::trace::set_enabled(true);
    const Phase traced = measure(*cube, *reference, ref_witness, cfg.seconds / 2);
    hs::trace::set_enabled(false);
    result.attempted += traced.call_s.size();
    result.failed += traced.mismatches;
    hs::trace::write_chrome_trace_file(cfg.out_dir + "/scene-512-trace.json");
    const auto [pw, ph] = pipeline_layers(hs::trace::snapshot(), result);
    hs::trace::reset();
    layer["trace.overhead_frac"].value = median(traced.call_s) / median(base.call_s) - 1;
    gpusim_layers(*cube, pw, ph, layer);
    unmix_layer(*cube, cfg.seed, layer);
  }

  if (base.mismatches > 0) {
    result.problem(std::to_string(base.mismatches) +
                   " calls differ from the warm-up call's outputs or statistics");
  }
  verify_reference(*cube, cfg.seed, *reference, result);
  if (!result.problems.empty()) result.failed = result.attempted;
  return result;
}

}  // namespace lb
