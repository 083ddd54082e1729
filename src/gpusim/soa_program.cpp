// Second-stage lowering (fetch classification + runtime DCE) and the SoA
// tile executor. See soa_program.hpp for the design and the exactness
// argument.
#include "gpusim/soa_program.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "util/assert.hpp"

// Lane-loop vectorization hint. `omp simd` via -fopenmp-simd does not
// enable libmvec-style vector math calls (that would need -fopenmp and
// could change ULPs), so it is bit-safe on the plain arithmetic loops it
// is applied to; hw_lg2/hw_ex2 loops deliberately carry no pragma.
#if defined(HS_HAVE_OPENMP_SIMD)
#define HS_SOA_SIMD _Pragma("omp simd")
#elif defined(__GNUC__)
#define HS_SOA_SIMD _Pragma("GCC ivdep")
#else
#define HS_SOA_SIMD
#endif

#if defined(__GNUC__) || defined(__clang__)
#define HS_RESTRICT __restrict
#else
#define HS_RESTRICT
#endif

namespace hs::gpusim {

namespace {

/// Widest execution tile, in lanes. Scratch rows are sized to the pass
/// (see lanes_for()), so narrow passes do not pay for 256-lane planes.
constexpr int kMaxTile = 256;

/// Folded static offsets beyond this are refused at lowering: together
/// with the viewport bound below they keep `(x + 0.5) + dx` exactly
/// representable (|value| < 2^22 has an exact 0.5-fractional float).
constexpr std::int32_t kMaxStaticOffset = 1 << 20;
/// Viewport coordinates must stay below this for the static fast path;
/// run_soa_rows runs a pass past it in generic mode.
constexpr std::int64_t kMaxExactCoord = std::int64_t{1} << 21;

static_assert(TileTouchTracker::kTileSize == 4,
              "tracker marks below index tiles with >> 2");

/// Replay-tag sentinel for a border-color (uncounted) fetch lane; the
/// cache's replay_matrix() skips these lanes (see TextureCache::kSkipTag).
constexpr std::uint64_t kTagSkip = TextureCache::kSkipTag;
/// Resolved-index sentinel for a border-color fetch lane. Real resolved
/// coordinates are in-range and never negative, so it cannot collide.
constexpr std::int32_t kIdxSkip = std::numeric_limits<std::int32_t>::min();

// ---- lowering --------------------------------------------------------------

/// True when `v` is an exactly-representable integer within the static
/// offset budget; rejects NaN/inf and fractional values.
bool integral_offset(float v, std::int32_t& out) {
  if (!(v >= -static_cast<float>(kMaxStaticOffset) &&
        v <= static_cast<float>(kMaxStaticOffset))) {
    return false;
  }
  if (v != std::floor(v)) return false;
  out = static_cast<std::int32_t>(v);
  return true;
}

/// Reads lanes x and y unmodified (identity swizzle, no negate)?
bool identity_xy(const CompiledSrc& s) {
  return !s.negate && s.swz[0] == 0 && s.swz[1] == 1;
}

/// "Register r.xy currently holds texcoord0.xy + (dx, dy)".
struct Fact {
  bool valid = false;
  std::int32_t dx = 0;
  std::int32_t dy = 0;
};

/// True when `s` reads (texcoord0.x + dx, texcoord0.y + dy) in its x/y
/// lanes: either texcoord0 itself or a temp with a tracked fact.
bool coord_base(const CompiledSrc& s, const std::array<Fact, kMaxTemps>& facts,
                Fact& out) {
  if (!identity_xy(s)) return false;
  if (s.kind == CompiledSrc::Kind::TexCoord && s.index == 0) {
    out = Fact{true, 0, 0};
    return true;
  }
  if (s.kind == CompiledSrc::Kind::Temp && facts[s.index].valid) {
    out = facts[s.index];
    return true;
  }
  return false;
}

}  // namespace

SoaProgram lower_soa(CompiledProgram compiled) {
  SoaProgram sp;
  sp.compiled = std::move(compiled);
  const CompiledProgram& cp = sp.compiled;
  sp.fetch.resize(cp.tex_unit_of_fetch.size());
  sp.live_fullscreen.assign(cp.code.size(), 1);

  // Forward pass: propagate "texcoord0 + integer offset" facts through the
  // MOV/ADD/SUB idiom and classify every fetch slot.
  std::array<Fact, kMaxTemps> facts{};
  std::int64_t max_off = 0;
  auto note = [&max_off](const Fact& f) {
    max_off = std::max<std::int64_t>(max_off, std::abs(std::int64_t{f.dx}));
    max_off = std::max<std::int64_t>(max_off, std::abs(std::int64_t{f.dy}));
  };
  for (const CompiledIns& ci : cp.code) {
    if (ci.op == Opcode::TEX) {
      SoaFetchPlan& plan = sp.fetch[static_cast<std::size_t>(ci.tex_slot)];
      const CompiledSrc& cs = ci.src[0];
      Fact base;
      if (cs.kind == CompiledSrc::Kind::Imm) {
        plan.mode = SoaFetchPlan::Mode::Uniform;
        plan.ux = cs.imm[0];
        plan.uy = cs.imm[1];
      } else if (coord_base(cs, facts, base)) {
        plan.mode = SoaFetchPlan::Mode::Static;
        plan.dx = base.dx;
        plan.dy = base.dy;
        note(base);
      }
      if (!ci.dst_is_output && (ci.write_mask & 0x3u) != 0) {
        facts[ci.dst_index].valid = false;
      }
      continue;
    }
    // A new fact can only arise when both x and y are written together.
    Fact nf;
    if (!ci.dst_is_output && (ci.write_mask & 0x3u) == 0x3u) {
      Fact base;
      if (ci.op == Opcode::MOV) {
        if (coord_base(ci.src[0], facts, base)) nf = base;
      } else if (ci.op == Opcode::ADD || ci.op == Opcode::SUB) {
        const int sign = ci.op == Opcode::SUB ? -1 : 1;
        const CompiledSrc* off = nullptr;
        if (coord_base(ci.src[0], facts, base)) {
          off = &ci.src[1];
        } else if (ci.op == Opcode::ADD &&
                   coord_base(ci.src[1], facts, base)) {
          off = &ci.src[0];
        }
        std::int32_t ix = 0, iy = 0;
        if (off != nullptr && off->kind == CompiledSrc::Kind::Imm &&
            integral_offset(off->imm[0], ix) &&
            integral_offset(off->imm[1], iy)) {
          const std::int64_t dx = std::int64_t{base.dx} + sign * std::int64_t{ix};
          const std::int64_t dy = std::int64_t{base.dy} + sign * std::int64_t{iy};
          if (std::abs(dx) <= kMaxStaticOffset &&
              std::abs(dy) <= kMaxStaticOffset) {
            nf = Fact{true, static_cast<std::int32_t>(dx),
                      static_cast<std::int32_t>(dy)};
          }
        }
      }
    }
    if (!ci.dst_is_output && (ci.write_mask & 0x3u) != 0) {
      facts[ci.dst_index] = nf;  // invalid nf = plain invalidation
      if (nf.valid) note(nf);
    }
  }
  sp.max_abs_offset = static_cast<std::int32_t>(max_off);

  // A reuse slot resolves identically to its owner by construction (same
  // unclobbered coordinate descriptor, same texture geometry), so the
  // fact machinery classifies both the same way; copying the owner's plan
  // makes the invariant structural instead of argued.
  for (std::size_t t = 0; t < sp.fetch.size(); ++t) {
    const std::int16_t owner = cp.tex_reuse_of_fetch[t];
    if (owner >= 0) sp.fetch[t] = sp.fetch[static_cast<std::size_t>(owner)];
  }

  // Gather->ALU fusion (see SoaFusedTex). Forward scan tracking which temp
  // holds which dynamic fetch's full result; a componentwise two-source
  // op whose both sources are identity reads of held fetches is annotated,
  // and any other read (or partial overwrite, which leaves live fetched
  // channels behind) pins the fetch's destination-plane stores.
  sp.fuse_of.assign(cp.code.size(), -1);
  sp.dot_of.assign(cp.code.size(), -1);
  sp.fuse_dead.assign(cp.code.size(), 0);
  sp.fetch_store_skip.assign(sp.fetch.size(), 0);
  {
    std::array<std::int16_t, kMaxTemps> holds;
    holds.fill(-1);
    // Which temp holds which *fused instruction's* full result (the
    // second tier: a dot over two such temps fuses further).
    std::array<std::int16_t, kMaxTemps> holds_f;
    holds_f.fill(-1);
    // Per fetch slot: does anything outside fusions need the stored rows?
    // Starts pinned; a fusable TEX unpins, later unfused reads re-pin.
    std::vector<char> pinned(sp.fetch.size(), 1);
    // Per instruction: does anything outside fused dots need a fused
    // instruction's stored result? Same discipline as `pinned`.
    std::vector<char> ins_pinned(cp.code.size(), 1);
    std::vector<std::uint8_t> slot_unit(sp.fetch.size(), 0);
    std::vector<std::int16_t> slot_row(sp.fetch.size(), 0);
    const auto identity_n = [](const CompiledSrc& s, int n) {
      if (s.negate) return false;
      for (int c = 0; c < n; ++c) {
        if (s.swz[static_cast<std::size_t>(c)] != c) return false;
      }
      return true;
    };
    const auto pin_read = [&](const CompiledSrc& cs) {
      if (cs.kind != CompiledSrc::Kind::Temp) return;
      if (holds[cs.index] >= 0) {
        pinned[static_cast<std::size_t>(holds[cs.index])] = 1;
      }
      if (holds_f[cs.index] >= 0) {
        ins_pinned[static_cast<std::size_t>(holds_f[cs.index])] = 1;
      }
    };
    // A write to `dst` invalidates tracked results; a *partial* write
    // leaves previously-written channels readable, so the old producer's
    // stores stay required.
    const auto clobber_dst = [&](const CompiledIns& ci) {
      if (ci.dst_is_output) return;
      const std::int16_t prev = holds[ci.dst_index];
      if (prev >= 0 && ci.write_mask != 0xF) {
        pinned[static_cast<std::size_t>(prev)] = 1;
      }
      const std::int16_t prev_f = holds_f[ci.dst_index];
      if (prev_f >= 0 && ci.write_mask != 0xF) {
        ins_pinned[static_cast<std::size_t>(prev_f)] = 1;
      }
      holds[ci.dst_index] = -1;
      holds_f[ci.dst_index] = -1;
    };
    for (std::size_t i = 0; i < cp.code.size(); ++i) {
      const CompiledIns& ci = cp.code[i];
      if (ci.op == Opcode::TEX) {
        const std::size_t slot = static_cast<std::size_t>(ci.tex_slot);
        slot_unit[slot] = ci.tex_unit;
        slot_row[slot] =
            ci.resolve_reuse >= 0 ? ci.resolve_reuse : ci.tex_slot;
        // A dependent fetch reads its coordinate from register planes, so
        // a register-held producer must keep materializing them.
        pin_read(ci.src[0]);
        if (!ci.dst_is_output) {
          clobber_dst(ci);
          const bool full =
              ci.write_mask == 0xF &&
              sp.fetch[slot].mode == SoaFetchPlan::Mode::Dynamic;
          holds[ci.dst_index] = full ? ci.tex_slot : -1;
          if (full) pinned[slot] = 0;
        }
        continue;
      }
      const bool fusable =
          (ci.op == Opcode::ADD || ci.op == Opcode::SUB ||
           ci.op == Opcode::MUL) &&
          ci.src_count == 2 && !ci.alias_hazard;
      std::int16_t fuse_slot[2] = {-1, -1};
      if (fusable) {
        for (int s = 0; s < 2; ++s) {
          const CompiledSrc& cs = ci.src[static_cast<std::size_t>(s)];
          if (cs.kind == CompiledSrc::Kind::Temp && identity_n(cs, 4) &&
              holds[cs.index] >= 0) {
            fuse_slot[s] = holds[cs.index];
          }
        }
      }
      std::int16_t dot_feed[2] = {-1, -1};
      if ((ci.op == Opcode::DP3 || ci.op == Opcode::DP4) &&
          ci.src_count == 2) {
        const int n = ci.op == Opcode::DP3 ? 3 : 4;
        for (int s = 0; s < 2; ++s) {
          const CompiledSrc& cs = ci.src[static_cast<std::size_t>(s)];
          if (cs.kind == CompiledSrc::Kind::Temp && identity_n(cs, n) &&
              holds_f[cs.index] >= 0) {
            dot_feed[s] = holds_f[cs.index];
          }
        }
      }
      if (fuse_slot[0] >= 0 && fuse_slot[1] >= 0) {
        SoaFusedTex fa;
        for (int s = 0; s < 2; ++s) {
          const std::size_t slot = static_cast<std::size_t>(fuse_slot[s]);
          fa.unit[s] = slot_unit[slot];
          fa.row[s] = slot_row[slot];
        }
        sp.fuse_of[i] = static_cast<std::int16_t>(sp.fused.size());
        sp.fused.push_back(fa);
      } else if (dot_feed[0] >= 0 && dot_feed[1] >= 0) {
        SoaFusedDot fd;
        for (int s = 0; s < 2; ++s) {
          const std::size_t feed = static_cast<std::size_t>(dot_feed[s]);
          fd.side[s] = sp.fused[static_cast<std::size_t>(sp.fuse_of[feed])];
          fd.side_op[s] = cp.code[feed].op;
        }
        fd.n = ci.op == Opcode::DP3 ? 3 : 4;
        sp.dot_of[i] = static_cast<std::int16_t>(sp.fused_dot.size());
        sp.fused_dot.push_back(fd);
      } else {
        for (int s = 0; s < ci.src_count; ++s) {
          pin_read(ci.src[static_cast<std::size_t>(s)]);
        }
      }
      if (!ci.dst_is_output) {
        clobber_dst(ci);
        if (sp.fuse_of[i] >= 0 && ci.write_mask == 0xF) {
          holds_f[ci.dst_index] = static_cast<std::int16_t>(i);
          ins_pinned[i] = 0;
        }
      }
    }
    for (std::size_t s = 0; s < sp.fetch.size(); ++s) {
      sp.fetch_store_skip[s] = pinned[s] ? 0 : 1;
    }
    for (std::size_t i = 0; i < cp.code.size(); ++i) {
      sp.fuse_dead[i] = (sp.fuse_of[i] >= 0 && !ins_pinned[i]) ? 1 : 0;
    }
  }

  // Backward liveness for runtime DCE: like the compile-time pass, except
  // a Static/Uniform TEX does not consume its coordinate source (the
  // executor synthesizes the coordinates), so ALU feeding only such
  // fetches goes dead *in fullscreen-row mode*. Consumption is marked
  // with the instruction's full write mask (a superset of any narrower
  // use), so every lane a surviving instruction reads has a surviving
  // producer -- no stale or uninitialized row is ever read.
  std::array<std::uint8_t, kMaxTemps> live{};
  std::array<std::uint8_t, kMaxOutputs> live_out;
  live_out.fill(0xF);
  for (std::size_t i = cp.code.size(); i-- > 0;) {
    const CompiledIns& ci = cp.code[i];
    std::uint8_t& live_dst =
        ci.dst_is_output ? live_out[ci.dst_index] : live[ci.dst_index];
    if (ci.op == Opcode::TEX) {
      live_dst = static_cast<std::uint8_t>(live_dst & ~ci.write_mask);
      const CompiledSrc& cs = ci.src[0];
      if (cs.kind == CompiledSrc::Kind::Temp &&
          sp.fetch[static_cast<std::size_t>(ci.tex_slot)].mode ==
              SoaFetchPlan::Mode::Dynamic) {
        live[cs.index] = static_cast<std::uint8_t>(
            live[cs.index] | (1u << cs.swz[0]) | (1u << cs.swz[1]));
      }
      continue;  // TEX always executes: it drives the cache model
    }
    const std::uint8_t effective = ci.write_mask & live_dst;
    if (effective == 0) {
      sp.live_fullscreen[i] = 0;
      continue;
    }
    live_dst = static_cast<std::uint8_t>(live_dst & ~ci.write_mask);
    for (int s = 0; s < ci.src_count; ++s) {
      const CompiledSrc& cs = ci.src[static_cast<std::size_t>(s)];
      if (cs.kind != CompiledSrc::Kind::Temp) continue;
      Swizzle sw;
      sw.comp = cs.swz;
      live[cs.index] = static_cast<std::uint8_t>(
          live[cs.index] | consumed_source_lanes(ci.op, sw, ci.write_mask));
    }
  }
  return sp;
}

// ---- tile executor ---------------------------------------------------------

namespace {

/// Tile width for a pass slice of `n` lanes: min(kMaxTile, n) rounded up
/// to 16, so every row starts on a 64-byte boundary of its plane.
int lanes_for(std::size_t n) {
  const std::size_t lanes = std::min<std::size_t>(kMaxTile, n);
  return static_cast<int>((lanes + 15) / 16 * 16);
}

/// Per-pipe working set. All register and attribute storage is SoA:
/// row(reg, comp) is a contiguous `stride`-float lane array, so a swizzled
/// operand read is just a different row pointer and the per-op lane loops
/// vectorize. Integer coordinate rows and replay-tag rows are kept per
/// fetch slot.
struct SoaScratch {
  std::size_t stride = 0;     // lanes per row: the slice's tile width
  std::vector<float> temps;   // kMaxTemps x 4 rows
  std::vector<float> tcs;     // kMaxTexCoords x 4 rows
  std::vector<float> outs;    // kMaxOutputs x 4 rows
  std::vector<float> imms;    // imm_count x 4 rows, broadcast once
  std::vector<float> neg;     // 3 operands x 4 rows of negate staging
  std::vector<float> dstage;  // 4 rows of alias-hazard staging
  std::vector<float> srow;    // scalar/dot result row
  std::vector<std::int32_t> ix;     // n_fetch rows: resolved x (or kIdxSkip)
  std::vector<std::int32_t> iy;     // n_fetch rows: resolved y
  std::vector<std::int32_t> is;     // n_fetch rows: linear texel index
  std::vector<std::uint64_t> tags;  // n_fetch rows: replay tags

  void init(const CompiledProgram& cp, int tile) {
    stride = static_cast<std::size_t>(tile);
    const std::size_t n_fetch = cp.tex_unit_of_fetch.size();
    temps.resize(static_cast<std::size_t>(kMaxTemps) * 4 * stride);
    tcs.assign(static_cast<std::size_t>(kMaxTexCoords) * 4 * stride, 0.f);
    outs.assign(static_cast<std::size_t>(kMaxOutputs) * 4 * stride, 0.f);
    imms.resize(static_cast<std::size_t>(cp.imm_count) * 4 * stride);
    neg.resize(3 * 4 * stride);
    dstage.resize(4 * stride);
    srow.resize(stride);
    ix.resize(n_fetch * stride);
    iy.resize(n_fetch * stride);
    is.resize(n_fetch * stride);
    tags.resize(n_fetch * stride);
    for (const CompiledIns& ci : cp.code) {
      for (int s = 0; s < ci.src_count; ++s) {
        const CompiledSrc& cs = ci.src[static_cast<std::size_t>(s)];
        if (cs.kind != CompiledSrc::Kind::Imm) continue;
        for (int c = 0; c < 4; ++c) {
          float* row = &imms[(static_cast<std::size_t>(cs.imm_slot) * 4 +
                              static_cast<std::size_t>(c)) *
                             stride];
          std::fill(row, row + stride, cs.imm[static_cast<std::size_t>(c)]);
        }
      }
    }
  }

  float* temp_row(int reg, int comp) {
    return &temps[(static_cast<std::size_t>(reg) * 4 +
                   static_cast<std::size_t>(comp)) *
                  stride];
  }
  float* tc_row(int attr, int comp) {
    return &tcs[(static_cast<std::size_t>(attr) * 4 +
                 static_cast<std::size_t>(comp)) *
                stride];
  }
  float* out_row(int out, int comp) {
    return &outs[(static_cast<std::size_t>(out) * 4 +
                  static_cast<std::size_t>(comp)) *
                 stride];
  }
  std::int32_t* ix_row(int slot) {
    return &ix[static_cast<std::size_t>(slot) * stride];
  }
  std::int32_t* iy_row(int slot) {
    return &iy[static_cast<std::size_t>(slot) * stride];
  }
  std::int32_t* is_row(int slot) {
    return &is[static_cast<std::size_t>(slot) * stride];
  }
  std::uint64_t* tag_row(int slot) {
    return &tags[static_cast<std::size_t>(slot) * stride];
  }
};

/// Row holding source lanes that feed destination component `c`; negated
/// operands are staged.
const float* src_row(const CompiledSrc& s, int c, SoaScratch& sc, int lanes,
                     int operand) {
  if (s.kind == CompiledSrc::Kind::Imm) {
    return &sc.imms[(static_cast<std::size_t>(s.imm_slot) * 4 +
                     static_cast<std::size_t>(c)) *
                    sc.stride];
  }
  const int comp = s.swz[static_cast<std::size_t>(c)];
  const float* base = s.kind == CompiledSrc::Kind::Temp
                          ? sc.temp_row(s.index, comp)
                          : sc.tc_row(s.index, comp);
  if (!s.negate) return base;
  float* stage = &sc.neg[(static_cast<std::size_t>(operand) * 4 +
                          static_cast<std::size_t>(c)) *
                         sc.stride];
  HS_SOA_SIMD
  for (int l = 0; l < lanes; ++l) stage[l] = -base[l];
  return stage;
}

float* dst_row(const CompiledIns& ci, int c, SoaScratch& sc) {
  return ci.dst_is_output ? sc.out_row(ci.dst_index, c)
                          : sc.temp_row(ci.dst_index, c);
}

void exec_componentwise(const CompiledIns& ci, SoaScratch& sc, int lanes) {
  for (int c = 0; c < 4; ++c) {
    if (!(ci.write_mask & (1u << c))) continue;
    float* d = ci.alias_hazard
                   ? &sc.dstage[static_cast<std::size_t>(c) * sc.stride]
                   : dst_row(ci, c, sc);
    const float* a = src_row(ci.src[0], c, sc, lanes, 0);
    switch (ci.op) {
      case Opcode::MOV:
        std::copy(a, a + lanes, d);
        break;
      case Opcode::ABS:
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) d[l] = std::fabs(a[l]);
        break;
      case Opcode::FLR:
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) d[l] = std::floor(a[l]);
        break;
      case Opcode::FRC:
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) d[l] = a[l] - std::floor(a[l]);
        break;
      case Opcode::ADD: {
        const float* b = src_row(ci.src[1], c, sc, lanes, 1);
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) d[l] = a[l] + b[l];
        break;
      }
      case Opcode::SUB: {
        const float* b = src_row(ci.src[1], c, sc, lanes, 1);
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) d[l] = a[l] - b[l];
        break;
      }
      case Opcode::MUL: {
        const float* b = src_row(ci.src[1], c, sc, lanes, 1);
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) d[l] = a[l] * b[l];
        break;
      }
      case Opcode::MIN: {
        const float* b = src_row(ci.src[1], c, sc, lanes, 1);
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) d[l] = std::min(a[l], b[l]);
        break;
      }
      case Opcode::MAX: {
        const float* b = src_row(ci.src[1], c, sc, lanes, 1);
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) d[l] = std::max(a[l], b[l]);
        break;
      }
      case Opcode::SLT: {
        const float* b = src_row(ci.src[1], c, sc, lanes, 1);
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) d[l] = a[l] < b[l] ? 1.f : 0.f;
        break;
      }
      case Opcode::SGE: {
        const float* b = src_row(ci.src[1], c, sc, lanes, 1);
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) d[l] = a[l] >= b[l] ? 1.f : 0.f;
        break;
      }
      case Opcode::MAD: {
        const float* b = src_row(ci.src[1], c, sc, lanes, 1);
        const float* e = src_row(ci.src[2], c, sc, lanes, 2);
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) d[l] = a[l] * b[l] + e[l];
        break;
      }
      case Opcode::CMP: {
        const float* b = src_row(ci.src[1], c, sc, lanes, 1);
        const float* e = src_row(ci.src[2], c, sc, lanes, 2);
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) d[l] = a[l] < 0.f ? b[l] : e[l];
        break;
      }
      case Opcode::LRP: {
        const float* b = src_row(ci.src[1], c, sc, lanes, 1);
        const float* e = src_row(ci.src[2], c, sc, lanes, 2);
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) {
          d[l] = a[l] * b[l] + (1.f - a[l]) * e[l];
        }
        break;
      }
      default:
        HS_DEBUG_ASSERT(false);
        break;
    }
  }
  if (ci.alias_hazard) {
    for (int c = 0; c < 4; ++c) {
      if (!(ci.write_mask & (1u << c))) continue;
      const float* s = &sc.dstage[static_cast<std::size_t>(c) * sc.stride];
      std::copy(s, s + lanes, dst_row(ci, c, sc));
    }
  }
}

void exec_scalar_or_dot(const CompiledIns& ci, SoaScratch& sc, int lanes) {
  float* r = sc.srow.data();
  if (ci.op == Opcode::DP3 || ci.op == Opcode::DP4) {
    const float* a0 = src_row(ci.src[0], 0, sc, lanes, 0);
    const float* a1 = src_row(ci.src[0], 1, sc, lanes, 0);
    const float* a2 = src_row(ci.src[0], 2, sc, lanes, 0);
    const float* b0 = src_row(ci.src[1], 0, sc, lanes, 1);
    const float* b1 = src_row(ci.src[1], 1, sc, lanes, 1);
    const float* b2 = src_row(ci.src[1], 2, sc, lanes, 1);
    if (ci.op == Opcode::DP3) {
      HS_SOA_SIMD
      for (int l = 0; l < lanes; ++l) {
        r[l] = a0[l] * b0[l] + a1[l] * b1[l] + a2[l] * b2[l];
      }
    } else {
      const float* a3 = src_row(ci.src[0], 3, sc, lanes, 0);
      const float* b3 = src_row(ci.src[1], 3, sc, lanes, 1);
      HS_SOA_SIMD
      for (int l = 0; l < lanes; ++l) {
        r[l] = a0[l] * b0[l] + a1[l] * b1[l] + a2[l] * b2[l] + a3[l] * b3[l];
      }
    }
  } else {
    const float* a = src_row(ci.src[0], 0, sc, lanes, 0);
    // No vectorization pragmas here: hw_lg2/hw_ex2 route through libm and
    // a vector-math substitution could change results by a ULP.
    switch (ci.op) {
      case Opcode::RCP:
        for (int l = 0; l < lanes; ++l) r[l] = hw_rcp(a[l]);
        break;
      case Opcode::RSQ:
        for (int l = 0; l < lanes; ++l) r[l] = hw_rsq(a[l]);
        break;
      case Opcode::LG2:
        for (int l = 0; l < lanes; ++l) r[l] = hw_lg2(a[l]);
        break;
      case Opcode::EX2:
        for (int l = 0; l < lanes; ++l) r[l] = hw_ex2(a[l]);
        break;
      default:
        HS_DEBUG_ASSERT(false);
        break;
    }
  }
  for (int c = 0; c < 4; ++c) {
    if (ci.write_mask & (1u << c)) {
      std::copy(r, r + lanes, dst_row(ci, c, sc));
    }
  }
}

/// Tile-invariant per-slot state, hoisted once per pass slice.
struct SlotInfo {
  std::uint64_t tag_hi = 0;       ///< texture id pre-shifted into the tag
  std::uint8_t* bitmap = nullptr; ///< tracker bitmap, null when disabled
  std::size_t pitch = 0;
  std::uint32_t id = 0;
  std::uint8_t unit = 0;
};

/// Per-slot replay recipe for the current tile.
struct SlotRT {
  enum Kind : std::uint8_t {
    kNone,   ///< no probes (no cache, or an all-border tile)
    kArith,  ///< tag = row_tag | (clamp(x0 + lane + dx, xlo, xhi) >> ts)
    kTags,   ///< per-lane materialized tags; kTagSkip lanes don't probe
  };
  Kind kind = kNone;
  std::int32_t dx = 0;
  std::int32_t xlo = 0;
  std::int32_t xhi = 0;
  std::uint64_t row_tag = 0;
  const std::uint64_t* tags = nullptr;
};

/// Everything the per-tile texture paths need.
struct TileCtx {
  const CompiledBindings* b = nullptr;
  SoaScratch* sc = nullptr;
  const SlotInfo* info = nullptr;
  SlotRT* rt = nullptr;
  int lanes = 0;
  int x0 = 0;
  int y = 0;
  int ts = 0;             ///< cache tile shift, valid when want_tags
  bool want_tags = false; ///< cache attached: build replay tags
  /// Per-pass fusion switch: lowered gather->ALU annotations validated
  /// against the bound textures (see fusions_active()).
  bool fuse_active = false;
};

void fill_rows(float* const d[4], float4 v, int from, int to) {
  for (int c = 0; c < 4; ++c) {
    if (d[c] != nullptr) {
      std::fill(d[c] + from, d[c] + to,
                v[static_cast<std::size_t>(c)]);
    }
  }
}

/// Per-pass validation of the lowered gather->ALU annotations against the
/// actually-bound textures: the fused loops assume four-channel texels,
/// no border lanes (every linear index valid) and int32-sized textures.
/// Any mismatch disables fusion for the pass -- annotated instructions
/// then execute normally against materialized fetch rows.
bool fusions_active(const SoaProgram& sp, const CompiledBindings& b) {
  if (sp.fused.empty()) return false;
  for (const SoaFusedTex& fa : sp.fused) {
    for (int s = 0; s < 2; ++s) {
      const Texture2D* tex = b.textures[fa.unit[s]];
      if (channels_of(tex->format()) != 4 ||
          tex->address_mode() == AddressMode::ClampToBorder ||
          static_cast<std::int64_t>(tex->width()) * tex->height() >
              std::numeric_limits<std::int32_t>::max()) {
        return false;
      }
    }
  }
  return true;
}

/// Executes a fused gather->ALU instruction: destination rows are computed
/// straight from the two texel streams through the fetches' resolved
/// linear-index rows. Identical float operations on identical values as
/// materialize-then-operate, so results are bit-equal. Only reachable
/// when fusions_active() passed for this pass.
void exec_fused_tex(const CompiledIns& ci, const SoaFusedTex& fa, TileCtx& t) {
  SoaScratch& sc = *t.sc;
  const float* HS_RESTRICT ta = t.b->textures[fa.unit[0]]->raw().data();
  const float* HS_RESTRICT tb = t.b->textures[fa.unit[1]]->raw().data();
  const std::int32_t* HS_RESTRICT ia = sc.is_row(fa.row[0]);
  const std::int32_t* HS_RESTRICT ib = sc.is_row(fa.row[1]);
  float* d[4] = {nullptr, nullptr, nullptr, nullptr};
  for (int c = 0; c < 4; ++c) {
    if (ci.write_mask & (1u << c)) d[c] = dst_row(ci, c, sc);
  }
  const int lanes = t.lanes;
  const auto lane_loop = [&](auto op2) {
    if (d[0] != nullptr && d[1] != nullptr && d[2] != nullptr &&
        d[3] != nullptr) {
      float* HS_RESTRICT r0 = d[0];
      float* HS_RESTRICT r1 = d[1];
      float* HS_RESTRICT r2 = d[2];
      float* HS_RESTRICT r3 = d[3];
      for (int l = 0; l < lanes; ++l) {
        const float* a =
            ta + static_cast<std::size_t>(static_cast<std::uint32_t>(ia[l])) * 4;
        const float* b =
            tb + static_cast<std::size_t>(static_cast<std::uint32_t>(ib[l])) * 4;
        r0[l] = op2(a[0], b[0]);
        r1[l] = op2(a[1], b[1]);
        r2[l] = op2(a[2], b[2]);
        r3[l] = op2(a[3], b[3]);
      }
      return;
    }
    for (int c = 0; c < 4; ++c) {
      if (d[c] == nullptr) continue;
      float* HS_RESTRICT dc = d[c];
      for (int l = 0; l < lanes; ++l) {
        dc[l] = op2(
            ta[static_cast<std::size_t>(static_cast<std::uint32_t>(ia[l])) * 4 +
               static_cast<std::size_t>(c)],
            tb[static_cast<std::size_t>(static_cast<std::uint32_t>(ib[l])) * 4 +
               static_cast<std::size_t>(c)]);
      }
    }
  };
  switch (ci.op) {
    case Opcode::ADD:
      lane_loop([](float a, float b) { return a + b; });
      break;
    case Opcode::SUB:
      lane_loop([](float a, float b) { return a - b; });
      break;
    case Opcode::MUL:
      lane_loop([](float a, float b) { return a * b; });
      break;
    default:
      HS_DEBUG_ASSERT(false);
      break;
  }
}

/// Executes a fused dot-of-fusions: per lane, the four texel streams are
/// combined channel-by-channel exactly as exec_scalar_or_dot() would
/// combine the materialized rows -- `p0 + p1 + p2 (+ p3)` left to right,
/// each product of two side values -- so the result is bit-equal. Only
/// reachable when fusions_active() passed for this pass.
void exec_fused_dot(const CompiledIns& ci, const SoaFusedDot& fd, TileCtx& t) {
  SoaScratch& sc = *t.sc;
  const float* HS_RESTRICT ta0 = t.b->textures[fd.side[0].unit[0]]->raw().data();
  const float* HS_RESTRICT ta1 = t.b->textures[fd.side[0].unit[1]]->raw().data();
  const float* HS_RESTRICT tb0 = t.b->textures[fd.side[1].unit[0]]->raw().data();
  const float* HS_RESTRICT tb1 = t.b->textures[fd.side[1].unit[1]]->raw().data();
  const std::int32_t* HS_RESTRICT ia0 = sc.is_row(fd.side[0].row[0]);
  const std::int32_t* HS_RESTRICT ia1 = sc.is_row(fd.side[0].row[1]);
  const std::int32_t* HS_RESTRICT ib0 = sc.is_row(fd.side[1].row[0]);
  const std::int32_t* HS_RESTRICT ib1 = sc.is_row(fd.side[1].row[1]);
  // The loop reads nothing through register planes, so the result can go
  // straight into the first written channel's row (no staging pass); any
  // further written channels are copies of it.
  int c0 = 0;
  while (c0 < 4 && !(ci.write_mask & (1u << c0))) ++c0;
  HS_DEBUG_ASSERT(c0 < 4);
  float* HS_RESTRICT r = dst_row(ci, c0, sc);
  const int lanes = t.lanes;
  const bool four = fd.n == 4;
  const auto texel = [](const float* base, const std::int32_t* idx, int l) {
    return base +
           static_cast<std::size_t>(static_cast<std::uint32_t>(idx[l])) * 4;
  };
  const auto run = [&](auto opa, auto opb) {
    for (int l = 0; l < lanes; ++l) {
      const float* a0 = texel(ta0, ia0, l);
      const float* a1 = texel(ta1, ia1, l);
      const float* b0 = texel(tb0, ib0, l);
      const float* b1 = texel(tb1, ib1, l);
      float acc = opa(a0[0], a1[0]) * opb(b0[0], b1[0]) +
                  opa(a0[1], a1[1]) * opb(b0[1], b1[1]) +
                  opa(a0[2], a1[2]) * opb(b0[2], b1[2]);
      if (four) acc = acc + opa(a0[3], a1[3]) * opb(b0[3], b1[3]);
      r[l] = acc;
    }
  };
  const auto with_opa = [&](auto opa) {
    switch (fd.side_op[1]) {
      case Opcode::ADD:
        run(opa, [](float a, float b) { return a + b; });
        break;
      case Opcode::SUB:
        run(opa, [](float a, float b) { return a - b; });
        break;
      default:
        run(opa, [](float a, float b) { return a * b; });
        break;
    }
  };
  switch (fd.side_op[0]) {
    case Opcode::ADD:
      with_opa([](float a, float b) { return a + b; });
      break;
    case Opcode::SUB:
      with_opa([](float a, float b) { return a - b; });
      break;
    default:
      with_opa([](float a, float b) { return a * b; });
      break;
  }
  for (int c = c0 + 1; c < 4; ++c) {
    if (ci.write_mask & (1u << c)) {
      std::copy(r, r + lanes, dst_row(ci, c, sc));
    }
  }
}

/// Static fetch: coordinates are (x0 + lane + dx, y + dy) by the
/// exactness argument, so the tile is a contiguous texel-row segment with
/// scalar clamp fixups at the edges and arithmetic replay tags.
void soa_tex_static(const CompiledIns& ci, const SoaFetchPlan& plan,
                    TileCtx& t) {
  const Texture2D* tex = t.b->textures[ci.tex_unit];
  SoaScratch& sc = *t.sc;
  float* d[4] = {nullptr, nullptr, nullptr, nullptr};
  for (int c = 0; c < 4; ++c) {
    if (ci.write_mask & (1u << c)) d[c] = dst_row(ci, c, sc);
  }
  const SlotInfo& info = t.info[ci.tex_slot];
  SlotRT& rt = t.rt[ci.tex_slot];
  const int w = tex->width();
  const int h = tex->height();
  int yi = t.y + plan.dy;
  if (yi < 0 || yi >= h) {
    switch (tex->address_mode()) {
      case AddressMode::ClampToEdge:
        yi = yi < 0 ? 0 : h - 1;
        break;
      case AddressMode::Repeat: {
        const int m = yi % h;
        yi = m < 0 ? m + h : m;
        break;
      }
      case AddressMode::ClampToBorder:
        // The whole row is border-colored: no probes, no tracker marks.
        fill_rows(d, tex->border_color(), 0, t.lanes);
        return;
    }
  }
  const int xr0 = t.x0 + plan.dx;
  const int xr1 = xr0 + t.lanes - 1;
  if ((xr0 < 0 || xr1 >= w) && tex->address_mode() != AddressMode::ClampToEdge) {
    // Rare: a wrapping or bordered row segment. Per-lane scalar resolve
    // with materialized tags, exactly the generic path's semantics.
    std::uint64_t* tags = sc.tag_row(ci.tex_slot);
    for (int l = 0; l < t.lanes; ++l) {
      int xi = xr0 + l;
      if (xi < 0 || xi >= w) {
        if (tex->address_mode() == AddressMode::ClampToBorder) {
          const float4 bc = tex->border_color();
          if (d[0]) d[0][l] = bc.x;
          if (d[1]) d[1][l] = bc.y;
          if (d[2]) d[2][l] = bc.z;
          if (d[3]) d[3][l] = bc.w;
          tags[l] = kTagSkip;
          continue;
        }
        const int m = xi % w;
        xi = m < 0 ? m + w : m;
      }
      const float4 v = tex->load(xi, yi);
      if (d[0]) d[0][l] = v.x;
      if (d[1]) d[1][l] = v.y;
      if (d[2]) d[2][l] = v.z;
      if (d[3]) d[3][l] = v.w;
      if (t.want_tags) {
        tags[l] = info.tag_hi |
                  (static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(yi) >> t.ts)
                   << 24) |
                  (static_cast<std::uint32_t>(xi) >> t.ts);
      }
      if (info.bitmap != nullptr) {
        info.bitmap[(static_cast<std::uint32_t>(yi) >> 2) * info.pitch +
                    (static_cast<std::uint32_t>(xi) >> 2)] = 1;
      }
    }
    if (t.want_tags) {
      rt.kind = SlotRT::kTags;
      rt.tags = tags;
    }
    return;
  }
  // Contiguous case: ClampToEdge at any extent, or a fully in-range
  // segment under any mode (where clamping is the identity).
  const int lA = std::min(t.lanes, std::max(0, -xr0));
  const int lB = std::max(lA, std::min(t.lanes, w - xr0));
  const float* data = tex->raw().data();
  if (lB > lA) {
    const std::size_t base = static_cast<std::size_t>(yi) *
                                 static_cast<std::size_t>(w) +
                             static_cast<std::size_t>(xr0 + lA);
    const int n = lB - lA;
    if (channels_of(tex->format()) == 4) {
      const float* HS_RESTRICT texels = data + base * 4;
      for (int c = 0; c < 4; ++c) {
        if (d[c] == nullptr) continue;
        float* HS_RESTRICT dc = d[c] + lA;
        HS_SOA_SIMD
        for (int l = 0; l < n; ++l) dc[l] = texels[l * 4 + c];
      }
    } else {
      if (d[0]) std::copy(data + base, data + base + n, d[0] + lA);
      for (int c = 1; c < 4; ++c) {
        if (d[c]) std::fill(d[c] + lA, d[c] + lB, 0.f);
      }
    }
  }
  if (lA > 0) fill_rows(d, tex->load(0, yi), 0, lA);
  if (lB < t.lanes) fill_rows(d, tex->load(w - 1, yi), lB, t.lanes);
  if (t.want_tags) {
    rt.kind = SlotRT::kArith;
    rt.dx = plan.dx;
    rt.xlo = 0;
    rt.xhi = w - 1;
    rt.row_tag = info.tag_hi |
                 (static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(yi) >> t.ts)
                  << 24);
  }
  if (info.bitmap != nullptr) {
    std::uint8_t* row =
        info.bitmap + (static_cast<std::uint32_t>(yi) >> 2) * info.pitch;
    const int tx0 = std::clamp(xr0, 0, w - 1) >> 2;
    const int tx1 = std::clamp(xr1, 0, w - 1) >> 2;
    for (int tx = tx0; tx <= tx1; ++tx) row[tx] = 1;
  }
}

/// Uniform fetch: one resolve, broadcast into the destination rows, one
/// constant replay tag per lane.
void soa_tex_uniform(const CompiledIns& ci, const SoaFetchPlan& plan,
                     TileCtx& t) {
  const Texture2D* tex = t.b->textures[ci.tex_unit];
  SoaScratch& sc = *t.sc;
  float* d[4] = {nullptr, nullptr, nullptr, nullptr};
  for (int c = 0; c < 4; ++c) {
    if (ci.write_mask & (1u << c)) d[c] = dst_row(ci, c, sc);
  }
  int xi, yi;
  if (!tex->resolve(plan.ux, plan.uy, xi, yi)) {
    fill_rows(d, tex->border_color(), 0, t.lanes);
    return;  // border fetches are uncounted: no probes, no marks
  }
  fill_rows(d, tex->load(xi, yi), 0, t.lanes);
  const SlotInfo& info = t.info[ci.tex_slot];
  SlotRT& rt = t.rt[ci.tex_slot];
  if (t.want_tags) {
    rt.kind = SlotRT::kArith;
    rt.dx = 0;
    rt.xlo = xi;  // clamp to [xi, xi]: every lane probes the same tag
    rt.xhi = xi;
    rt.row_tag = info.tag_hi |
                 (static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(yi) >> t.ts)
                  << 24);
  }
  if (info.bitmap != nullptr) {
    info.bitmap[(static_cast<std::uint32_t>(yi) >> 2) * info.pitch +
                (static_cast<std::uint32_t>(xi) >> 2)] = 1;
  }
}

/// Dynamic fetch: per-lane resolve split into separately vectorizable
/// floor / wrap / gather loops over the integer coordinate rows. Reuse
/// slots read their owner's rows (always filled for dynamic owners).
/// `skip_store` elides the destination-plane writes for fetches consumed
/// only by active fusions (resolve, tags and tracker marks still run).
void soa_tex_dynamic(const CompiledIns& ci, TileCtx& t, bool skip_store) {
  const Texture2D* tex = t.b->textures[ci.tex_unit];
  SoaScratch& sc = *t.sc;
  float* d[4] = {nullptr, nullptr, nullptr, nullptr};
  if (!skip_store) {
    for (int c = 0; c < 4; ++c) {
      if (ci.write_mask & (1u << c)) d[c] = dst_row(ci, c, sc);
    }
  }
  const int w = tex->width();
  const int h = tex->height();
  std::int32_t* xs;
  std::int32_t* ys;
  std::int32_t* is;
  if (ci.resolve_reuse >= 0) {
    xs = sc.ix_row(ci.resolve_reuse);
    ys = sc.iy_row(ci.resolve_reuse);
    is = sc.is_row(ci.resolve_reuse);
  } else {
    xs = sc.ix_row(ci.tex_slot);
    ys = sc.iy_row(ci.tex_slot);
    is = sc.is_row(ci.tex_slot);
    const CompiledSrc& cs = ci.src[0];
    const float* sx = src_row(cs, 0, sc, t.lanes, 0);
    const float* sy = src_row(cs, 1, sc, t.lanes, 0);
    if (tex->address_mode() == AddressMode::ClampToEdge) {
      // The common mode gets a single floor+clamp+index pass written as
      // pure compare/selects: floor_to_int()'s early return blocks
      // if-conversion, so its exact semantics are restated branch-free
      // (the conversion operand is forced in-range so the cast is always
      // defined; NaN/out-of-range lanes still produce INT_MIN, which the
      // clamp then sends to 0 exactly like the scalar path).
      constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
      HS_SOA_SIMD
      for (int l = 0; l < t.lanes; ++l) {
        const float fx = sx[l];
        const float fy = sy[l];
        const bool okx = (fx >= -2147483648.0f) & (fx < 2147483648.0f);
        const bool oky = (fy >= -2147483648.0f) & (fy < 2147483648.0f);
        std::int32_t x = static_cast<std::int32_t>(okx ? fx : 0.f);
        std::int32_t y = static_cast<std::int32_t>(oky ? fy : 0.f);
        x = static_cast<float>(x) > fx ? x - 1 : x;
        y = static_cast<float>(y) > fy ? y - 1 : y;
        x = okx ? x : kMin;
        y = oky ? y : kMin;
        x = x < 0 ? 0 : (x >= w ? w - 1 : x);
        y = y < 0 ? 0 : (y >= h ? h - 1 : y);
        xs[l] = x;
        ys[l] = y;
        is[l] = static_cast<std::int32_t>(static_cast<std::uint32_t>(y) *
                                              static_cast<std::uint32_t>(w) +
                                          static_cast<std::uint32_t>(x));
      }
    } else {
      HS_SOA_SIMD
      for (int l = 0; l < t.lanes; ++l) {
        xs[l] = Texture2D::floor_to_int(sx[l]);
      }
      HS_SOA_SIMD
      for (int l = 0; l < t.lanes; ++l) {
        ys[l] = Texture2D::floor_to_int(sy[l]);
      }
      switch (tex->address_mode()) {
        case AddressMode::ClampToEdge:
          break;  // handled above
        case AddressMode::Repeat:
          for (int l = 0; l < t.lanes; ++l) {
            const int mx = xs[l] % w;
            xs[l] = mx < 0 ? mx + w : mx;
            const int my = ys[l] % h;
            ys[l] = my < 0 ? my + h : my;
          }
          break;
        case AddressMode::ClampToBorder:
          for (int l = 0; l < t.lanes; ++l) {
            if (xs[l] < 0 || xs[l] >= w || ys[l] < 0 || ys[l] >= h) {
              xs[l] = kIdxSkip;
            }
          }
          break;
      }
      // Linear texel index, shared by every fetch reusing this resolve.
      // Unsigned arithmetic so border-skip lanes (whose raw coordinates
      // may be anything) wrap instead of overflowing; their entries are
      // unread.
      HS_SOA_SIMD
      for (int l = 0; l < t.lanes; ++l) {
        is[l] = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(ys[l]) * static_cast<std::uint32_t>(w) +
            static_cast<std::uint32_t>(xs[l]));
      }
    }
  }
  const SlotInfo& info = t.info[ci.tex_slot];
  SlotRT& rt = t.rt[ci.tex_slot];
  const float* HS_RESTRICT data = tex->raw().data();
  const bool four = channels_of(tex->format()) == 4;
  // Only ClampToBorder resolves produce kIdxSkip lanes; the other modes
  // take branch-free gather loops (the per-lane skip test and border
  // writes are hoisted out entirely).
  const bool may_skip = tex->address_mode() == AddressMode::ClampToBorder;
  if (skip_store) {
    // Destination planes are consumed only by fused instructions, which
    // re-read the texels through the index row just built above.
  } else if (!may_skip && four && d[0] && d[1] && d[2] && d[3] &&
             static_cast<std::int64_t>(w) * h <=
                 std::numeric_limits<std::int32_t>::max()) {
    // Hot shape (full-RGBA gather, no border lanes): one indexed 16-byte
    // texel read scattered into the four channel planes, nothing else --
    // the linear index row was precomputed once per resolve.
    float* HS_RESTRICT r0 = d[0];
    float* HS_RESTRICT r1 = d[1];
    float* HS_RESTRICT r2 = d[2];
    float* HS_RESTRICT r3 = d[3];
    const std::int32_t* HS_RESTRICT idx = is;
    for (int l = 0; l < t.lanes; ++l) {
      const float* texel =
          data + static_cast<std::size_t>(static_cast<std::uint32_t>(idx[l])) * 4;
      r0[l] = texel[0];
      r1[l] = texel[1];
      r2[l] = texel[2];
      r3[l] = texel[3];
    }
  } else {
    const float4 bc = tex->border_color();
    for (int l = 0; l < t.lanes; ++l) {
      const std::int32_t xi = xs[l];
      if (xi == kIdxSkip) {
        if (d[0]) d[0][l] = bc.x;
        if (d[1]) d[1][l] = bc.y;
        if (d[2]) d[2][l] = bc.z;
        if (d[3]) d[3][l] = bc.w;
        continue;
      }
      const std::size_t idx = static_cast<std::size_t>(ys[l]) *
                                  static_cast<std::size_t>(w) +
                              static_cast<std::size_t>(xi);
      if (four) {
        const float* texel = data + idx * 4;
        if (d[0]) d[0][l] = texel[0];
        if (d[1]) d[1][l] = texel[1];
        if (d[2]) d[2][l] = texel[2];
        if (d[3]) d[3][l] = texel[3];
      } else {
        if (d[0]) d[0][l] = data[idx];
        if (d[1]) d[1][l] = 0.f;
        if (d[2]) d[2][l] = 0.f;
        if (d[3]) d[3][l] = 0.f;
      }
    }
  }
  if (t.want_tags) {
    std::uint64_t* HS_RESTRICT tags = sc.tag_row(ci.tex_slot);
    const std::uint64_t tag_hi = info.tag_hi;
    const int ts = t.ts;
    if (may_skip) {
      HS_SOA_SIMD
      for (int l = 0; l < t.lanes; ++l) {
        const std::uint64_t tag =
            tag_hi |
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ys[l]) >> ts)
             << 24) |
            (static_cast<std::uint32_t>(xs[l]) >> ts);
        tags[l] = xs[l] == kIdxSkip ? kTagSkip : tag;
      }
    } else {
      HS_SOA_SIMD
      for (int l = 0; l < t.lanes; ++l) {
        tags[l] =
            tag_hi |
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ys[l]) >> ts)
             << 24) |
            (static_cast<std::uint32_t>(xs[l]) >> ts);
      }
    }
    rt.kind = SlotRT::kTags;
    rt.tags = tags;
  }
  if (info.bitmap != nullptr) {
    for (int l = 0; l < t.lanes; ++l) {
      if (xs[l] == kIdxSkip) continue;
      info.bitmap[(static_cast<std::uint32_t>(ys[l]) >> 2) * info.pitch +
                  (static_cast<std::uint32_t>(xs[l]) >> 2)] = 1;
    }
  }
}

void soa_tex(const CompiledIns& ci, const SoaProgram& sp, TileCtx& t,
             bool fullscreen) {
  t.rt[ci.tex_slot].kind = SlotRT::kNone;
  if (fullscreen) {
    const SoaFetchPlan& plan =
        sp.fetch[static_cast<std::size_t>(ci.tex_slot)];
    if (plan.mode == SoaFetchPlan::Mode::Static) {
      soa_tex_static(ci, plan, t);
      return;
    }
    if (plan.mode == SoaFetchPlan::Mode::Uniform) {
      soa_tex_uniform(ci, plan, t);
      return;
    }
  }
  soa_tex_dynamic(
      ci, t,
      t.fuse_active &&
          sp.fetch_store_skip[static_cast<std::size_t>(ci.tex_slot)] != 0);
}

/// Per-pass-slice replay state: the register-resident cache session plus
/// the per-tile compacted tag-row pointers.
struct ReplayState {
  TextureCache::ReplaySession session;
  std::vector<const std::uint64_t*> rows;  ///< compacted tag rows, per tile

  ReplayState(TextureCache& cache, std::size_t n_fetch)
      : session(cache), rows(n_fetch, nullptr) {}
};

/// Replays the tile's fetches against the cache model in the canonical
/// fragment-major, program-slot order. Arithmetic recipes are first
/// materialized into their slot's tag row (a SIMD loop) and the probing
/// slots compacted, so the cache sees one uniform lane-major tag matrix
/// and its probe loop only loads finished tags.
void soa_replay(const CompiledProgram& cp, TileCtx& t, ReplayState& rs) {
  const std::size_t n_fetch = cp.tex_unit_of_fetch.size();
  SoaScratch& sc = *t.sc;
  int na = 0;
  for (std::size_t s = 0; s < n_fetch; ++s) {
    const SlotRT& rt = t.rt[s];
    if (rt.kind == SlotRT::kNone) continue;
    if (rt.kind == SlotRT::kArith) {
      std::uint64_t* HS_RESTRICT tags = sc.tag_row(static_cast<int>(s));
      const std::uint64_t row_tag = rt.row_tag;
      const std::int32_t base = t.x0 + rt.dx;
      const std::int32_t xlo = rt.xlo;
      const std::int32_t xhi = rt.xhi;
      const int ts = t.ts;
      HS_SOA_SIMD
      for (int l = 0; l < t.lanes; ++l) {
        std::int32_t xi = base + l;
        xi = xi < xlo ? xlo : (xi > xhi ? xhi : xi);
        tags[l] = row_tag | (static_cast<std::uint32_t>(xi) >> ts);
      }
      rs.rows[static_cast<std::size_t>(na++)] = tags;
    } else {
      rs.rows[static_cast<std::size_t>(na++)] = rt.tags;
    }
  }
  if (na == 0) return;
  rs.session.replay_matrix(rs.rows.data(), na, t.lanes);
}

/// Stores the tile's output rows. Full-float targets are written straight
/// into the backing array; half formats keep the per-lane quantizing
/// store().
void soa_store_rows(const CompiledProgram& cp, const CompiledBindings& b,
                    SoaScratch& sc, int lanes, int x0, int y) {
  for (int k = 0; k < kMaxOutputs; ++k) {
    if (!(cp.outputs_written & (1u << k))) continue;
    Texture2D* target = b.targets[static_cast<std::size_t>(k)];
    const float* r0 = sc.out_row(k, 0);
    const float* r1 = sc.out_row(k, 1);
    const float* r2 = sc.out_row(k, 2);
    const float* r3 = sc.out_row(k, 3);
    if (is_half_format(target->format())) {
      for (int l = 0; l < lanes; ++l) {
        target->store(x0 + l, y, {r0[l], r1[l], r2[l], r3[l]});
      }
      continue;
    }
    float* data = target->raw().data();
    const std::size_t base = static_cast<std::size_t>(y) *
                                 static_cast<std::size_t>(target->width()) +
                             static_cast<std::size_t>(x0);
    if (channels_of(target->format()) == 4) {
      float* HS_RESTRICT out = data + base * 4;
      HS_SOA_SIMD
      for (int l = 0; l < lanes; ++l) {
        out[l * 4 + 0] = r0[l];
        out[l * 4 + 1] = r1[l];
        out[l * 4 + 2] = r2[l];
        out[l * 4 + 3] = r3[l];
      }
    } else {
      std::copy(r0, r0 + lanes, data + base);
    }
  }
}

void add_analytic_counters(const CompiledProgram& cp, std::uint64_t fragments,
                           ExecCounters& counters) {
  counters.alu_instructions += fragments * cp.alu_per_fragment;
  counters.tex_fetches += fragments * cp.tex_per_fragment;
  counters.tex_fetch_bytes += fragments * cp.tex_bytes_per_fragment;
}

/// Hoists the tile-invariant slot state for one pass slice.
std::vector<SlotInfo> make_slot_infos(const CompiledProgram& cp,
                                      const CompiledBindings& b) {
  const std::size_t n_fetch = cp.tex_unit_of_fetch.size();
  std::vector<SlotInfo> infos(n_fetch);
  for (std::size_t s = 0; s < n_fetch; ++s) {
    SlotInfo& info = infos[s];
    info.unit = cp.tex_unit_of_fetch[s];
    info.id = info.unit < b.texture_ids.size() ? b.texture_ids[info.unit]
                                               : info.unit;
    info.tag_hi = static_cast<std::uint64_t>(info.id) << 48;
    if (b.tiles != nullptr && info.unit < b.tiles->units.size() &&
        !b.tiles->units[info.unit].empty()) {
      info.bitmap = b.tiles->units[info.unit].data();
      info.pitch = static_cast<std::size_t>(b.tiles->tiles_x[info.unit]);
    }
  }
  return infos;
}

/// Per-slice execution state shared by the row and fragment drivers.
struct SliceRun {
  SoaScratch sc;
  std::vector<SlotInfo> infos;
  std::vector<SlotRT> rts;
  TileCtx t;
  std::optional<ReplayState> replay;

  SliceRun(const SoaProgram& sp, const CompiledBindings& b, std::size_t n) {
    const CompiledProgram& cp = sp.compiled;
    sc.init(cp, lanes_for(n));
    infos = make_slot_infos(cp, b);
    rts.resize(infos.size());
    t.b = &b;
    t.sc = &sc;
    t.info = infos.data();
    t.rt = rts.data();
    t.want_tags = b.cache != nullptr;
    t.ts = t.want_tags ? b.cache->tile_shift() : 0;
    t.fuse_active = fusions_active(sp, b);
    if (t.want_tags) replay.emplace(*b.cache, infos.size());
  }
  SliceRun(const SliceRun&) = delete;
  SliceRun& operator=(const SliceRun&) = delete;
};

/// Runs the program over the current tile (t.lanes lanes, texcoords
/// already in place) and replays its fetches. Fullscreen mode uses the
/// static/uniform fetch plans and skips runtime-dead coordinate ALU;
/// generic mode executes every instruction with every fetch dynamic.
void exec_tile(const SoaProgram& sp, TileCtx& t, ReplayState* replay,
               bool fullscreen) {
  const CompiledProgram& cp = sp.compiled;
  for (std::size_t i = 0; i < cp.code.size(); ++i) {
    if (fullscreen && !sp.live_fullscreen[i]) continue;
    if (t.fuse_active && sp.fuse_dead[i] != 0) continue;
    const CompiledIns& ci = cp.code[i];
    if (ci.op == Opcode::TEX) {
      soa_tex(ci, sp, t, fullscreen);
    } else if (t.fuse_active && sp.dot_of[i] >= 0) {
      exec_fused_dot(ci, sp.fused_dot[static_cast<std::size_t>(sp.dot_of[i])],
                     t);
    } else if (t.fuse_active && sp.fuse_of[i] >= 0) {
      exec_fused_tex(ci, sp.fused[static_cast<std::size_t>(sp.fuse_of[i])], t);
    } else if (opcode_is_scalar(ci.op) || ci.op == Opcode::DP3 ||
               ci.op == Opcode::DP4) {
      exec_scalar_or_dot(ci, *t.sc, t.lanes);
    } else {
      exec_componentwise(ci, *t.sc, t.lanes);
    }
  }
  if (replay != nullptr) soa_replay(cp, t, *replay);
}

}  // namespace

void run_soa_rows(const SoaProgram& sp, const CompiledBindings& bindings,
                  int width, int y_begin, int y_end, ExecCounters& counters) {
  if (width <= 0 || y_begin >= y_end) return;
  const CompiledProgram& cp = sp.compiled;
  // Static fetch plans are exact only while every folded coordinate stays
  // inside kMaxExactCoord; a pass past it resolves every fetch per lane.
  const bool fullscreen = std::int64_t{std::max(width, y_end)} +
                              sp.max_abs_offset + 1 <
                          kMaxExactCoord;
  SliceRun run(sp, bindings, static_cast<std::size_t>(width));
  TileCtx& t = run.t;
  SoaScratch& sc = run.sc;
  ReplayState* replay = run.replay ? &*run.replay : nullptr;
  const int tile = static_cast<int>(sc.stride);
  const bool uses_tc0 = (cp.texcoords_used & 1u) != 0;
  for (int y = y_begin; y < y_end; ++y) {
    for (int x0 = 0; x0 < width; x0 += tile) {
      const int lanes = std::min(tile, width - x0);
      t.lanes = lanes;
      t.x0 = x0;
      t.y = y;
      if (uses_tc0) {
        float* t0 = sc.tc_row(0, 0);
        float* t1 = sc.tc_row(0, 1);
        float* t2 = sc.tc_row(0, 2);
        float* t3 = sc.tc_row(0, 3);
        HS_SOA_SIMD
        for (int l = 0; l < lanes; ++l) {
          t0[l] = static_cast<float>(x0 + l) + 0.5f;
          t1[l] = static_cast<float>(y) + 0.5f;
          t2[l] = 0.f;
          t3[l] = 1.f;
        }
      }
      exec_tile(sp, t, replay, fullscreen);
      soa_store_rows(cp, bindings, sc, lanes, x0, y);
    }
  }
  add_analytic_counters(
      cp,
      static_cast<std::uint64_t>(y_end - y_begin) *
          static_cast<std::uint64_t>(width),
      counters);
}

void run_soa_fragments(const SoaProgram& sp, const CompiledBindings& bindings,
                       std::span<const GeomFragment> fragments,
                       ExecCounters& counters) {
  if (fragments.empty()) return;
  const CompiledProgram& cp = sp.compiled;
  SliceRun run(sp, bindings, fragments.size());
  TileCtx& t = run.t;
  SoaScratch& sc = run.sc;
  ReplayState* replay = run.replay ? &*run.replay : nullptr;
  const std::size_t tile = sc.stride;
  t.x0 = 0;
  t.y = 0;
  for (std::size_t begin = 0; begin < fragments.size(); begin += tile) {
    const int lanes =
        static_cast<int>(std::min(tile, fragments.size() - begin));
    t.lanes = lanes;
    for (int attr = 0; attr < 2; ++attr) {
      if (!(cp.texcoords_used & (1u << attr))) continue;
      for (int c = 0; c < 4; ++c) {
        float* row = sc.tc_row(attr, c);
        for (int l = 0; l < lanes; ++l) {
          const GeomFragment& f =
              fragments[begin + static_cast<std::size_t>(l)];
          row[l] = attr == 0 ? f.texcoord0[static_cast<std::size_t>(c)]
                             : f.texcoord1[static_cast<std::size_t>(c)];
        }
      }
    }
    // The static/uniform plans assume fullscreen texcoords.
    exec_tile(sp, t, replay, /*fullscreen=*/false);
    for (int k = 0; k < kMaxOutputs; ++k) {
      if (!(cp.outputs_written & (1u << k))) continue;
      Texture2D* target = bindings.targets[static_cast<std::size_t>(k)];
      const float* r0 = sc.out_row(k, 0);
      const float* r1 = sc.out_row(k, 1);
      const float* r2 = sc.out_row(k, 2);
      const float* r3 = sc.out_row(k, 3);
      for (int l = 0; l < lanes; ++l) {
        const GeomFragment& f = fragments[begin + static_cast<std::size_t>(l)];
        target->store(f.x, f.y, {r0[l], r1[l], r2[l], r3[l]});
      }
    }
  }
  add_analytic_counters(cp, fragments.size(), counters);
}

}  // namespace hs::gpusim
