// Structure-of-arrays SIMD execution engine (ExecEngine::Soa), the
// simulator's one fast engine.
//
// A second lowering stage over the CompiledProgram front end
// (compiled_program.hpp): fragments are batched into tiles of up to 256
// lanes with structure-of-arrays temporaries, and every texture fetch is
// classified by how its coordinate is produced so the per-tile work can be
// specialized:
//
//   * STATIC fetches -- coordinate = texcoord0.xy plus a folded integer
//     offset (the paper's neighbor-sampling idiom: `ADD R, tc0, c[d]`
//     with integral constants). While the viewport plus offset stays
//     below 2^21 the float math `(x + 0.5) + dx` is exact, so floor/wrap
//     never runs per lane: the interior of the tile is a contiguous
//     texel-row copy, edge lanes take scalar clamp fixups, the cache-line
//     tags are synthesized arithmetically during replay, and tile-touch
//     marks collapse to one range mark per tile.
//   * DYNAMIC fetches -- everything else, including fetches at an
//     immediate coordinate (no shipped shader has one): the per-lane
//     resolve is split into separately vectorizable floor / wrap / gather
//     loops over restrict-qualified SoA planes (the RGBA channels of a
//     register are independent rows, so each loop is a flat lane loop).
//
// Coordinate ALU that feeds only static fetches is skipped at run time
// in fullscreen-row mode (runtime DCE; ALU counters are analytic, so
// modeled work is unchanged). Geometry passes -- and fullscreen passes
// past the float-exactness bound -- run in generic mode instead: every
// instruction executes and every fetch is dynamic, which reproduces the
// interpreter's float coordinate math lane for lane.
//
// Cache replay stays in the interpreter's canonical order -- fragment-
// major, TEX slots in program order within each fragment. Each tile first
// materializes every probing slot's cache-line tags into a flat tag row
// (arithmetic recipes in one SIMD loop, dynamic fetches as a byproduct of
// their resolve; both through TextureCache::tag(), the one owner of the
// tag format), then hands the compacted lane-major tag matrix to
// TextureCache::ReplaySession::replay_matrix(), whose register-resident
// probe loop only loads finished tags.
//
// A small gather->ALU fusion pass further removes plane traffic: a
// componentwise ADD/SUB/MUL whose two sources are identity reads of
// still-intact full dynamic-fetch results computes its destination rows
// straight from the two texel streams, and fetches consumed only this way
// skip materializing their destination planes entirely (their resolve,
// replay tags and tile-touch marks are unaffected).
//
// Exactness guarantee: for any validated program the outputs,
// ExecCounters, texture-cache statistics, tile-touch bitmaps and therefore
// modeled times are bit-identical to the interpreter's. There is no
// fallback engine: the texture-cache geometry is fixed and tracker tiles
// are the cache's tiles (TextureCache::kTileShift), and the one
// data-dependent limit, the float-exactness bound, selects generic
// mode within this engine.
//
// A lowered SoaProgram is immutable, so one instance serves every pipe
// thread and every device at once: Device::draw() fetches it from the
// SharedProgramStore on its SimConfig once per pass.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/compiled_program.hpp"

namespace hs::gpusim {

/// How one fetch slot's coordinates are produced in fullscreen-row mode.
struct SoaFetchPlan {
  enum class Mode : std::uint8_t {
    Dynamic,  ///< per-lane floor/wrap of computed coordinate rows
    Static,   ///< texcoord0.xy + integer (dx, dy): analytic resolve
  };
  Mode mode = Mode::Dynamic;
  std::int32_t dx = 0;  ///< Static only
  std::int32_t dy = 0;
};

/// Gather->ALU fusion record: a componentwise two-source instruction whose
/// sources are identity (no swizzle, no negate) reads of two dynamic
/// fetches' full, still-unclobbered results. The executor computes the
/// destination rows directly from the two texel streams via the fetches'
/// resolved linear-index rows -- identical float operations on identical
/// values, so results are bit-equal to materialize-then-operate.
struct SoaFusedTex {
  std::uint8_t unit[2]{};   ///< texture unit per source
  std::int16_t row[2]{};    ///< resolve-row slot (index rows) per source
};

/// Second-tier fusion: a DP3/DP4 whose two sources are identity reads of
/// two gather->ALU fusion results -- the paper's MEI kernel is exactly
/// this shape (a dot of two fetched differences). The executor accumulates
/// the channel products straight from the four texel streams; feeding
/// fused instructions consumed only here are skipped outright (their
/// destination planes are never read).
struct SoaFusedDot {
  SoaFusedTex side[2];   ///< the two feeding gather->ALU fusions
  Opcode side_op[2]{};   ///< componentwise op of each feeding fusion
  std::uint8_t n = 4;    ///< 3 for DP3, 4 for DP4
};

struct SoaProgram {
  CompiledProgram compiled;
  std::vector<SoaFetchPlan> fetch;  ///< per fetch slot, program order
  /// Per instruction: 1 = executes in fullscreen-row mode, 0 = its writes
  /// feed only static fetch coordinates, which the executor synthesizes
  /// analytically (runtime DCE). Ignored in geometry passes.
  std::vector<char> live_fullscreen;
  /// Per instruction: index into `fused` when the instruction carries a
  /// gather->ALU fusion, -1 otherwise. Fusions activate only when every
  /// referenced texture passes the per-pass runtime check (four channels,
  /// non-border addressing, texel count within int32); otherwise the
  /// instruction executes normally and fetches materialize as usual.
  std::vector<std::int16_t> fuse_of;
  std::vector<SoaFusedTex> fused;
  /// Per instruction: index into `fused_dot` for a fused dot-of-fusions,
  /// -1 otherwise. Gated by the same per-pass check as `fuse_of` (every
  /// texture a dot touches is also in `fused`).
  std::vector<std::int16_t> dot_of;
  std::vector<SoaFusedDot> fused_dot;
  /// Per instruction: 1 = a fused instruction whose result is consumed
  /// only by fused dots, so while fusions are active it is skipped
  /// entirely (nothing ever reads its destination planes).
  std::vector<char> fuse_dead;
  /// Per fetch slot: 1 = every read of the fetch's destination register is
  /// a fused source, so the gather may skip writing its destination planes
  /// while fusions are active (resolve, tags and marks still run).
  std::vector<char> fetch_store_skip;
  /// Largest |dx| / |dy| (and intermediate folded offset) over static
  /// plans; bounds the float-exactness check in run_soa_rows().
  std::int32_t max_abs_offset = 0;
};

/// Second-stage lowering. A pure function of the compiled program (texture
/// shapes and address modes are already part of its specialization key),
/// cached per binding by SharedProgramStore.
SoaProgram lower_soa(CompiledProgram compiled);

/// Executes rows [y_begin, y_end) of a full-viewport pass (texcoord[0] =
/// texel center) and accumulates the analytic counters.
void run_soa_rows(const SoaProgram& program, const CompiledBindings& bindings,
                  int width, int y_begin, int y_end, ExecCounters& counters);

/// Executes an explicit fragment list slice (geometry passes).
void run_soa_fragments(const SoaProgram& program,
                       const CompiledBindings& bindings,
                       std::span<const GeomFragment> fragments,
                       ExecCounters& counters);

}  // namespace hs::gpusim
