// Per-fragment execution of fragment programs.
//
// The interpreter is the functional core of the simulator: given a
// program, the interpolated fragment inputs, the bound constants and
// textures, it produces the output color(s) and updates execution
// counters that feed the timing model. All arithmetic is single-precision,
// matching the fp32 pipelines of the simulated hardware.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/fragment_ir.hpp"
#include "gpusim/texture.hpp"
#include "gpusim/texture_cache.hpp"

namespace hs::gpusim {

// Approximations of the hardware special-function unit. NV30-class RCP was
// good to ~23 mantissa bits, close enough to IEEE that we just use the host
// operations; LG2/EX2 likewise. Shared (inline, single definition) by the
// interpreter and the SoA engine so both produce bit-identical values.
inline float hw_rcp(float x) { return 1.0f / x; }
inline float hw_rsq(float x) { return 1.0f / std::sqrt(x); }
inline float hw_lg2(float x) { return std::log2(x); }
inline float hw_ex2(float x) { return std::exp2(x); }

struct ExecCounters {
  std::uint64_t alu_instructions = 0;
  std::uint64_t tex_fetches = 0;
  std::uint64_t tex_fetch_bytes = 0;  ///< raw texel bytes if every fetch missed

  ExecCounters& operator+=(const ExecCounters& o) {
    alu_instructions += o.alu_instructions;
    tex_fetches += o.tex_fetches;
    tex_fetch_bytes += o.tex_fetch_bytes;
    return *this;
  }
};

/// Tracks the set of texture tiles touched during a pass (one tracker per
/// simulated pipe; the device ORs them afterwards). The unique-tile count
/// is the pass's *compulsory* DRAM traffic: repeat fetches of a tile are
/// absorbed by the L1/L2 texture-cache hierarchy, but the first touch must
/// stream the tile from video memory.
struct TileTouchTracker {
  /// Tile edge, texels: the DRAM burst granule of the timing model.
  static constexpr int kTileSize = 4;
  /// Per texture unit: byte-per-tile bitmap, row pitch tiles_x[unit].
  std::vector<std::vector<std::uint8_t>> units;
  std::vector<int> tiles_x;

  void touch(std::size_t unit, int x, int y) {
    if (unit >= units.size() || units[unit].empty()) return;
    // Resolved texel coordinates are non-negative, so the shift is the
    // division by kTileSize.
    const std::size_t tx = static_cast<std::uint32_t>(x) >> 2;
    const std::size_t ty = static_cast<std::uint32_t>(y) >> 2;
    units[unit][ty * static_cast<std::size_t>(tiles_x[unit]) + tx] = 1;
  }
};

/// Everything a single fragment invocation can see.
struct FragmentContext {
  /// Interpolated texture coordinates; the device sets texcoord[0] to the
  /// fragment's own texel center (x + .5, y + .5, 0, 1).
  std::array<float4, kMaxTexCoords> texcoord{};
  /// Pass-uniform constants c[0..].
  std::span<const float4> constants;
  /// Bound textures; index == texture unit. Entries may be null if the
  /// program does not sample that unit.
  std::span<const Texture2D* const> textures;
  /// Stable ids for the bound textures (for cache tags); same length as
  /// `textures`. May be empty when `cache` is null.
  std::span<const std::uint32_t> texture_ids;
  /// Per-pipe texture cache model; null disables cache simulation.
  TextureCache* cache = nullptr;
  /// Per-pipe unique-tile tracker; null disables tracking.
  TileTouchTracker* tiles = nullptr;
};

struct FragmentResult {
  std::array<float4, kMaxOutputs> color{};
  std::uint8_t outputs_written = 0;  ///< bitmask over result.color[i]
};

/// Executes `program` for one fragment. The program must have passed
/// validate(); the interpreter only debug-asserts structural invariants.
FragmentResult execute_fragment(const FragmentProgram& program,
                                const FragmentContext& ctx,
                                ExecCounters& counters);

}  // namespace hs::gpusim
