#include "gpusim/gpu_device.hpp"

#include <algorithm>
#include <cstring>

#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace hs::gpusim {

namespace {
std::size_t resolve_threads(const SimConfig& config, int pipes) {
  if (config.worker_threads > 0) return config.worker_threads;
  return util::ThreadPool::clamp_to_hardware(static_cast<std::size_t>(pipes));
}

/// Attaches the pass statistics to its trace span: the modeled time next
/// to the span's own wall duration, the work counters, and both DRAM
/// traffic estimates (cache-miss bytes and compulsory unique-tile bytes).
void annotate_pass_span(trace::Span& span, const PassStats& stats) {
  if (!span.active()) return;
  span.arg("width", stats.width);
  span.arg("height", stats.height);
  span.arg("fragments", static_cast<double>(stats.fragments));
  span.arg("alu_instructions", static_cast<double>(stats.exec.alu_instructions));
  span.arg("tex_fetches", static_cast<double>(stats.exec.tex_fetches));
  span.arg("cache_hits", static_cast<double>(stats.cache.hits));
  span.arg("cache_misses", static_cast<double>(stats.cache.misses));
  span.arg("cache_miss_bytes", static_cast<double>(stats.cache_miss_bytes));
  span.arg("dram_tile_bytes", static_cast<double>(stats.unique_tile_bytes));
  span.arg("bytes_written", static_cast<double>(stats.bytes_written));
  span.arg("modeled_us", stats.modeled_seconds * 1e6);
}
}  // namespace

bool parse_exec_engine(std::string_view name, ExecEngine& out) {
  if (name == "interpreter") {
    out = ExecEngine::Interpreter;
  } else if (name == "soa") {
    out = ExecEngine::Soa;
  } else {
    return false;
  }
  return true;
}

const char* exec_engine_name(ExecEngine engine) {
  switch (engine) {
    case ExecEngine::Interpreter: return "interpreter";
    case ExecEngine::Soa: return "soa";
  }
  return "?";
}

Device::Device(DeviceProfile profile, SimConfig config)
    : profile_(std::move(profile)),
      config_(config),
      program_cache_(config.program_cache_capacity),
      pool_(resolve_threads(config, profile_.fragment_pipes)) {
  HS_ASSERT(profile_.fragment_pipes > 0);
  program_cache_.set_shared_store(config_.shared_programs);
  TextureCacheConfig cache_config;
  cache_config.total_bytes = profile_.tex_cache_bytes_per_pipe;
  pipe_caches_.reserve(static_cast<std::size_t>(profile_.fragment_pipes));
  for (int p = 0; p < profile_.fragment_pipes; ++p) {
    pipe_caches_.emplace_back(cache_config);
  }
}

TextureHandle Device::create_texture(int width, int height, TextureFormat format,
                                     AddressMode address) {
  auto tex = std::make_unique<Texture2D>(width, height, format, address);
  const std::uint64_t bytes = tex->size_bytes();
  if (config_.enforce_memory_limit &&
      memory_used_ + bytes > profile_.video_memory_bytes) {
    throw GpuOutOfMemory("allocation of " + std::to_string(bytes) +
                         " bytes exceeds video memory (" +
                         std::to_string(profile_.video_memory_bytes - memory_used_) +
                         " free)");
  }
  memory_used_ += bytes;

  // Reuse a free slot if any; otherwise append.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].texture) {
      slots_[i].texture = std::move(tex);
      return static_cast<TextureHandle>(i + 1);
    }
  }
  slots_.push_back(Slot{std::move(tex)});
  return static_cast<TextureHandle>(slots_.size());
}

void Device::destroy_texture(TextureHandle handle) {
  Texture2D& tex = slot(handle);
  memory_used_ -= tex.size_bytes();
  slots_[handle - 1].texture.reset();
}

Texture2D& Device::slot(TextureHandle handle) const {
  HS_ASSERT_MSG(handle != 0 && handle <= slots_.size(), "invalid texture handle");
  auto& ptr = const_cast<Slot&>(slots_[handle - 1]).texture;
  HS_ASSERT_MSG(ptr != nullptr, "texture handle already destroyed");
  return *ptr;
}

Texture2D& Device::texture(TextureHandle handle) { return slot(handle); }
const Texture2D& Device::texture(TextureHandle handle) const { return slot(handle); }

std::uint64_t Device::video_memory_free() const {
  return profile_.video_memory_bytes > memory_used_
             ? profile_.video_memory_bytes - memory_used_
             : 0;
}

void Device::upload(TextureHandle handle, std::span<const float4> texels) {
  trace::Span span("upload", "xfer");
  Texture2D& tex = slot(handle);
  HS_ASSERT(channels_of(tex.format()) == 4);
  HS_ASSERT(texels.size() == static_cast<std::size_t>(tex.width()) *
                                 static_cast<std::size_t>(tex.height()));
  float* out = tex.raw().data();
  if (is_half_format(tex.format())) {
    for (std::size_t i = 0; i < texels.size(); ++i) {
      const float4 v = texels[i];
      out[i * 4 + 0] = quantize_half(v.x);
      out[i * 4 + 1] = quantize_half(v.y);
      out[i * 4 + 2] = quantize_half(v.z);
      out[i * 4 + 3] = quantize_half(v.w);
    }
  } else {
    // float4 is four contiguous floats; full-precision upload is one copy.
    static_assert(sizeof(float4) == 4 * sizeof(float));
    std::memcpy(out, texels.data(), texels.size() * sizeof(float4));
  }
  const std::uint64_t bytes = tex.size_bytes();
  const double modeled = model_upload_time(profile_.bus, bytes);
  totals_.transfer.upload_bytes += bytes;
  totals_.transfer.uploads += 1;
  totals_.transfer.modeled_upload_seconds += modeled;
  span.arg("bytes", static_cast<double>(bytes));
  span.arg("modeled_us", modeled * 1e6);
}

void Device::upload(TextureHandle handle, std::span<const float> scalars) {
  trace::Span span("upload", "xfer");
  Texture2D& tex = slot(handle);
  HS_ASSERT(channels_of(tex.format()) == 1);
  HS_ASSERT(scalars.size() == static_cast<std::size_t>(tex.width()) *
                                  static_cast<std::size_t>(tex.height()));
  if (is_half_format(tex.format())) {
    for (std::size_t i = 0; i < scalars.size(); ++i) {
      tex.raw()[i] = quantize_half(scalars[i]);
    }
  } else {
    std::copy(scalars.begin(), scalars.end(), tex.raw().begin());
  }
  const std::uint64_t bytes = tex.size_bytes();
  const double modeled = model_upload_time(profile_.bus, bytes);
  totals_.transfer.upload_bytes += bytes;
  totals_.transfer.uploads += 1;
  totals_.transfer.modeled_upload_seconds += modeled;
  span.arg("bytes", static_cast<double>(bytes));
  span.arg("modeled_us", modeled * 1e6);
}

std::vector<float4> Device::download(TextureHandle handle) {
  trace::Span span("download", "xfer");
  Texture2D& tex = slot(handle);
  HS_ASSERT(channels_of(tex.format()) == 4);
  const std::size_t n = static_cast<std::size_t>(tex.width()) *
                        static_cast<std::size_t>(tex.height());
  std::vector<float4> out(n);
  static_assert(sizeof(float4) == 4 * sizeof(float));
  std::memcpy(static_cast<void*>(out.data()), tex.raw().data(),
              n * sizeof(float4));
  const std::uint64_t bytes = tex.size_bytes();
  const double modeled = model_download_time(profile_.bus, bytes);
  totals_.transfer.download_bytes += bytes;
  totals_.transfer.downloads += 1;
  totals_.transfer.modeled_download_seconds += modeled;
  span.arg("bytes", static_cast<double>(bytes));
  span.arg("modeled_us", modeled * 1e6);
  return out;
}

std::vector<float> Device::download_scalar(TextureHandle handle) {
  trace::Span span("download", "xfer");
  Texture2D& tex = slot(handle);
  HS_ASSERT(channels_of(tex.format()) == 1);
  std::vector<float> out(tex.raw().begin(), tex.raw().end());
  const std::uint64_t bytes = tex.size_bytes();
  const double modeled = model_download_time(profile_.bus, bytes);
  totals_.transfer.download_bytes += bytes;
  totals_.transfer.downloads += 1;
  totals_.transfer.modeled_download_seconds += modeled;
  span.arg("bytes", static_cast<double>(bytes));
  span.arg("modeled_us", modeled * 1e6);
  return out;
}

Device::BoundPass Device::bind_pass(const FragmentProgram& program,
                                    std::span<const TextureHandle> inputs,
                                    std::span<const float4> constants,
                                    std::span<const TextureHandle> outputs) {
  HS_ASSERT_MSG(!outputs.empty(), "draw requires at least one output");
  HS_ASSERT_MSG(program.max_tex_unit() < static_cast<int>(inputs.size()),
                "program samples an unbound texture unit");
  HS_ASSERT_MSG(program.max_constant() < static_cast<int>(constants.size()),
                "program reads an unbound constant");
  HS_ASSERT_MSG(program.max_output() < static_cast<int>(outputs.size()),
                "program writes an unbound render target");

  // Stream-model feedback rule: a pass may not sample its own targets.
  for (TextureHandle out : outputs) {
    for (TextureHandle in : inputs) {
      HS_ASSERT_MSG(out != in,
                    "render target is also bound as input (ping-pong required)");
    }
  }

  BoundPass bound;
  Texture2D& target0 = slot(outputs[0]);
  bound.width = target0.width();
  bound.height = target0.height();
  bound.targets.reserve(outputs.size());
  for (TextureHandle out : outputs) {
    Texture2D& t = slot(out);
    HS_ASSERT_MSG(t.width() == bound.width && t.height() == bound.height,
                  "all render targets must share dimensions");
    bound.targets.push_back(&t);
  }
  bound.inputs.reserve(inputs.size());
  for (TextureHandle in : inputs) {
    bound.inputs.push_back(&slot(in));
    bound.input_ids.push_back(in);
  }
  return bound;
}

namespace {
constexpr int kTrackerTile = TileTouchTracker::kTileSize;
}

std::vector<TileTouchTracker> Device::make_tile_trackers(
    const BoundPass& bound) const {
  std::vector<TileTouchTracker> pipe_tiles;
  if (!config_.texture_cache) return pipe_tiles;
  pipe_tiles.resize(static_cast<std::size_t>(profile_.fragment_pipes));
  for (auto& tracker : pipe_tiles) {
    tracker.units.resize(bound.inputs.size());
    tracker.tiles_x.resize(bound.inputs.size());
    for (std::size_t u = 0; u < bound.inputs.size(); ++u) {
      const int tx = (bound.inputs[u]->width() + kTrackerTile - 1) / kTrackerTile;
      const int ty = (bound.inputs[u]->height() + kTrackerTile - 1) / kTrackerTile;
      tracker.tiles_x[u] = tx;
      tracker.units[u].assign(
          static_cast<std::size_t>(tx) * static_cast<std::size_t>(ty), 0);
    }
  }
  return pipe_tiles;
}

CompiledBindings Device::pipe_bindings(
    const BoundPass& bound, std::size_t pipe,
    std::span<TileTouchTracker> pipe_tiles) {
  CompiledBindings cb;
  cb.textures = bound.inputs;
  cb.texture_ids = bound.input_ids;
  cb.targets = bound.targets;
  cb.cache = config_.texture_cache ? &pipe_caches_[pipe] : nullptr;
  cb.tiles = config_.texture_cache ? &pipe_tiles[pipe] : nullptr;
  return cb;
}

PassStats Device::finalize_pass(const FragmentProgram& program,
                                const BoundPass& bound, std::uint64_t fragments,
                                std::span<const ExecCounters> pipe_counters,
                                std::span<const TileTouchTracker> pipe_tiles) {
  const int pipes = profile_.fragment_pipes;

  PassStats stats;
  stats.program = program.name;
  stats.width = bound.width;
  stats.height = bound.height;
  stats.fragments = fragments;
  for (int p = 0; p < pipes; ++p) {
    stats.exec += pipe_counters[static_cast<std::size_t>(p)];
    if (config_.texture_cache) {
      stats.cache += pipe_caches_[static_cast<std::size_t>(p)].stats();
      stats.cache_miss_bytes +=
          pipe_caches_[static_cast<std::size_t>(p)].stats().miss_bytes(
              pipe_caches_[static_cast<std::size_t>(p)].config());
      pipe_caches_[static_cast<std::size_t>(p)].reset_stats();
    }
  }
  for (const Texture2D* t : bound.targets) {
    stats.bytes_written += stats.fragments * bytes_per_texel(t->format());
  }

  // Merge the per-pipe tile bitmaps: a tile streams from DRAM once per pass
  // no matter how many pipes touched it.
  if (config_.texture_cache && !pipe_tiles.empty()) {
    for (std::size_t u = 0; u < bound.inputs.size(); ++u) {
      const std::uint64_t tile_bytes =
          static_cast<std::uint64_t>(kTrackerTile) * kTrackerTile *
          bytes_per_texel(bound.inputs[u]->format());
      // OR the bitmaps one pipe at a time (contiguous byte streams the
      // compiler vectorizes) instead of probing every pipe per tile.
      std::vector<std::uint8_t> merged = pipe_tiles.front().units[u];
      for (int p = 1; p < pipes; ++p) {
        const auto& bits = pipe_tiles[static_cast<std::size_t>(p)].units[u];
        for (std::size_t i = 0; i < merged.size(); ++i) merged[i] |= bits[i];
      }
      const std::uint64_t touched = static_cast<std::uint64_t>(
          std::count(merged.begin(), merged.end(), std::uint8_t{1}));
      stats.unique_tile_bytes += touched * tile_bytes;
    }
  }

  PassCounts counts;
  counts.fragments = stats.fragments;
  counts.alu_instructions = stats.exec.alu_instructions;
  counts.tex_fetches = stats.exec.tex_fetches;
  counts.tex_fetch_bytes = stats.exec.tex_fetch_bytes;
  counts.cache_miss_bytes = stats.cache_miss_bytes;
  counts.unique_tile_bytes = stats.unique_tile_bytes;
  counts.bytes_written = stats.bytes_written;
  counts.cache_enabled = config_.texture_cache;
  stats.modeled_seconds = model_pass_time(profile_, counts);

  totals_.passes += 1;
  totals_.fragments += stats.fragments;
  totals_.exec += stats.exec;
  totals_.cache += stats.cache;
  totals_.bytes_written += stats.bytes_written;
  totals_.modeled_pass_seconds += stats.modeled_seconds;

  HS_LOG_DEBUG("pass %s: %dx%d, %llu fragments, %llu alu, %llu tex, modeled %.3f us",
               program.name.c_str(), bound.width, bound.height,
               static_cast<unsigned long long>(stats.fragments),
               static_cast<unsigned long long>(stats.exec.alu_instructions),
               static_cast<unsigned long long>(stats.exec.tex_fetches),
               stats.modeled_seconds * 1e6);
  return stats;
}

PassStats Device::draw(const FragmentProgram& program,
                       std::span<const TextureHandle> inputs,
                       std::span<const float4> constants,
                       std::span<const TextureHandle> outputs) {
  trace::Span span(program.name, "pass");
  const BoundPass bound = bind_pass(program, inputs, constants, outputs);
  const int width = bound.width;
  const int height = bound.height;
  const int pipes = profile_.fragment_pipes;

  std::vector<ExecCounters> pipe_counters(static_cast<std::size_t>(pipes));
  std::vector<TileTouchTracker> pipe_tiles = make_tile_trackers(bound);
  for (auto& cache : pipe_caches_) cache.flush();

  // Lower (or fetch from the cache) once per pass, outside the pipe loop.
  std::shared_ptr<const SoaProgram> soa;
  if (config_.exec_engine == ExecEngine::Soa) {
    soa = program_cache_.get(program, constants, bound.inputs);
  }

  // Contiguous row blocks per logical pipe: deterministic partitioning that
  // is independent of the host thread count, so cache statistics and
  // modeled times are reproducible everywhere. Blocks are aligned to the
  // texture-cache tile height, mirroring real rasterizers' screen-space
  // tiling -- otherwise tiles straddling two pipes would be fetched into
  // both L1s and the modeled memory traffic would be inflated.
  const int tile_rows = (height + kTrackerTile - 1) / kTrackerTile;
  auto run_pipe = [&](std::size_t pipe) {
    const int y_begin = std::min(
        height, kTrackerTile * (static_cast<int>(pipe) * tile_rows / pipes));
    const int y_end = std::min(
        height, kTrackerTile * (static_cast<int>(pipe + 1) * tile_rows / pipes));
    if (soa != nullptr) {
      run_soa_rows(*soa, pipe_bindings(bound, pipe, pipe_tiles), width,
                   y_begin, y_end, pipe_counters[pipe]);
      return;
    }
    FragmentContext ctx;
    ctx.constants = constants;
    ctx.textures = bound.inputs;
    ctx.texture_ids = bound.input_ids;
    ctx.cache = config_.texture_cache ? &pipe_caches_[pipe] : nullptr;
    ctx.tiles = config_.texture_cache ? &pipe_tiles[pipe] : nullptr;
    ExecCounters& counters = pipe_counters[pipe];
    for (int y = y_begin; y < y_end; ++y) {
      for (int x = 0; x < width; ++x) {
        ctx.texcoord[0] = {static_cast<float>(x) + 0.5f,
                           static_cast<float>(y) + 0.5f, 0.f, 1.f};
        const FragmentResult r = execute_fragment(program, ctx, counters);
        for (std::size_t k = 0; k < bound.targets.size(); ++k) {
          if (r.outputs_written & (1u << k)) {
            bound.targets[k]->store(x, y, r.color[k]);
          }
        }
      }
    }
  };
  pool_.parallel_for(static_cast<std::size_t>(pipes), run_pipe);

  const PassStats stats = finalize_pass(
      program, bound,
      static_cast<std::uint64_t>(width) * static_cast<std::uint64_t>(height),
      pipe_counters, pipe_tiles);
  annotate_pass_span(span, stats);
  return stats;
}

PassStats Device::draw_fragments(const FragmentProgram& program,
                                 std::span<const GeomFragment> fragments,
                                 std::span<const TextureHandle> inputs,
                                 std::span<const float4> constants,
                                 std::span<const TextureHandle> outputs) {
  trace::Span span(program.name, "pass");
  const BoundPass bound = bind_pass(program, inputs, constants, outputs);
  const int pipes = profile_.fragment_pipes;

  std::vector<ExecCounters> pipe_counters(static_cast<std::size_t>(pipes));
  std::vector<TileTouchTracker> pipe_tiles = make_tile_trackers(bound);
  for (auto& cache : pipe_caches_) cache.flush();

  std::shared_ptr<const SoaProgram> soa;
  if (config_.exec_engine == ExecEngine::Soa) {
    soa = program_cache_.get(program, constants, bound.inputs);
  }

  // Contiguous fragment ranges per logical pipe: raster order preserves
  // the triangles' spatial locality, and the partition is deterministic.
  const std::size_t n = fragments.size();
  auto run_pipe = [&](std::size_t pipe) {
    const std::size_t begin = pipe * n / static_cast<std::size_t>(pipes);
    const std::size_t end = (pipe + 1) * n / static_cast<std::size_t>(pipes);
    if (soa != nullptr) {
      run_soa_fragments(*soa, pipe_bindings(bound, pipe, pipe_tiles),
                        fragments.subspan(begin, end - begin),
                        pipe_counters[pipe]);
      return;
    }
    FragmentContext ctx;
    ctx.constants = constants;
    ctx.textures = bound.inputs;
    ctx.texture_ids = bound.input_ids;
    ctx.cache = config_.texture_cache ? &pipe_caches_[pipe] : nullptr;
    ctx.tiles = config_.texture_cache ? &pipe_tiles[pipe] : nullptr;
    ExecCounters& counters = pipe_counters[pipe];
    for (std::size_t i = begin; i < end; ++i) {
      const GeomFragment& f = fragments[i];
      HS_DEBUG_ASSERT(f.x >= 0 && f.x < bound.width && f.y >= 0 &&
                      f.y < bound.height);
      ctx.texcoord[0] = f.texcoord0;
      ctx.texcoord[1] = f.texcoord1;
      const FragmentResult r = execute_fragment(program, ctx, counters);
      for (std::size_t k = 0; k < bound.targets.size(); ++k) {
        if (r.outputs_written & (1u << k)) {
          bound.targets[k]->store(f.x, f.y, r.color[k]);
        }
      }
    }
  };

  // A fragment list may hit the same texel more than once (overlapping
  // triangles); hardware ROPs apply such writes in primitive order, but
  // the concurrent pipe partition would race on the texel. When any texel
  // repeats, execute the partitions serially in pipe order instead:
  // partitions are contiguous and ascending, so stores land in global
  // fragment order -- deterministic, race-free, and identical to what the
  // pipes would produce with ordered ROPs. Counters, cache statistics and
  // modeled time are unaffected either way (keyed by logical pipe, not by
  // OS thread).
  bool overlapping = false;
  {
    std::vector<std::uint8_t> hit(
        static_cast<std::size_t>(bound.width) *
        static_cast<std::size_t>(bound.height), 0);
    for (const GeomFragment& f : fragments) {
      std::uint8_t& cell = hit[static_cast<std::size_t>(f.y) *
                                   static_cast<std::size_t>(bound.width) +
                               static_cast<std::size_t>(f.x)];
      if (cell != 0) {
        overlapping = true;
        break;
      }
      cell = 1;
    }
  }
  if (overlapping) {
    for (int p = 0; p < pipes; ++p) run_pipe(static_cast<std::size_t>(p));
  } else {
    pool_.parallel_for(static_cast<std::size_t>(pipes), run_pipe);
  }

  const PassStats stats = finalize_pass(program, bound, n, pipe_counters, pipe_tiles);
  annotate_pass_span(span, stats);
  return stats;
}

}  // namespace hs::gpusim
