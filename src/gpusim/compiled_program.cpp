#include "gpusim/compiled_program.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <type_traits>

#include "gpusim/soa_program.hpp"
#include "util/assert.hpp"

namespace hs::gpusim {

namespace {

float4 fold_swizzle_negate(float4 v, const Swizzle& s, bool negate) {
  float4 out{v[s.comp[0]], v[s.comp[1]], v[s.comp[2]], v[s.comp[3]]};
  return negate ? -out : out;
}

// ---- specialization key ----------------------------------------------------

/// Appends trivially-copyable fields to a buffer sized up front. Growing a
/// vector one insert() at a time instead trips GCC 12's
/// -Wstringop-overflow on the reallocation path (a false positive, but
/// the pre-sized buffer is also one allocation per key instead of several).
/// Every write is bounds-checked, so a field added to make_key() without
/// growing the k*KeyBytes bounds below aborts instead of overrunning.
class KeyWriter {
 public:
  explicit KeyWriter(std::span<std::uint8_t> out)
      : at_(out.data()), end_(out.data() + out.size()) {}

  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    HS_ASSERT(sizeof v <= static_cast<std::size_t>(end_ - at_));
    std::memcpy(at_, &v, sizeof v);
    at_ += sizeof v;
  }

  std::uint8_t* position() const { return at_; }

 private:
  std::uint8_t* at_;
  std::uint8_t* end_;
};

/// Upper bounds of one instruction's and one texture unit's key bytes.
constexpr std::size_t kSrcKeyBytes =
    sizeof(RegFile) + sizeof(Swizzle::comp) + sizeof(bool) + sizeof(float4);
constexpr std::size_t kInsKeyBytes =
    sizeof(Opcode) + sizeof(RegFile) + 4 * sizeof(std::uint8_t) +
    3 * kSrcKeyBytes;
constexpr std::size_t kUnitKeyBytes =
    2 * sizeof(std::int32_t) + sizeof(TextureFormat) + sizeof(AddressMode);

std::vector<std::uint8_t> make_key(const FragmentProgram& program,
                                   std::span<const float4> constants,
                                   std::span<const Texture2D* const> textures) {
  const int max_unit = program.max_tex_unit();
  std::vector<std::uint8_t> key(
      2 * sizeof(std::int32_t) + program.code.size() * kInsKeyBytes +
      static_cast<std::size_t>(max_unit + 1) * kUnitKeyBytes);
  KeyWriter w(key);
  w.put(static_cast<std::uint32_t>(program.code.size()));
  for (const Instruction& ins : program.code) {
    w.put(ins.op);
    w.put(ins.dst.file);
    w.put(ins.dst.index);
    w.put(ins.dst.write_mask);
    w.put(ins.src_count);
    w.put(ins.tex_unit);
    for (int s = 0; s < ins.src_count; ++s) {
      const SrcOperand& src = ins.src[static_cast<std::size_t>(s)];
      w.put(src.file);
      w.put(src.swizzle.comp);
      w.put(src.negate);
      if (src.file == RegFile::Const) {
        // The value is what gets baked, not the slot.
        const float4 v = src.index < constants.size()
                             ? constants[src.index]
                             : float4(0.f);
        w.put(v);
      } else if (src.file == RegFile::Literal) {
        w.put(src.literal);
      } else {
        w.put(src.index);
      }
    }
  }
  w.put(static_cast<std::int32_t>(max_unit));
  for (int u = 0; u <= max_unit; ++u) {
    const Texture2D* tex = u < static_cast<int>(textures.size())
                               ? textures[static_cast<std::size_t>(u)]
                               : nullptr;
    if (tex == nullptr) {  // unit in range but not sampled by this program
      w.put(static_cast<std::int32_t>(-1));
      continue;
    }
    w.put(static_cast<std::int32_t>(tex->width()));
    w.put(static_cast<std::int32_t>(tex->height()));
    w.put(tex->format());
    w.put(tex->address_mode());
  }
  key.resize(static_cast<std::size_t>(w.position() - key.data()));
  return key;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

// ---- compiler --------------------------------------------------------------

CompiledProgram compile_program(const FragmentProgram& program,
                                std::span<const float4> constants,
                                std::span<const Texture2D* const> textures) {
  CompiledProgram cp;
  cp.name = program.name;
  cp.alu_per_fragment =
      static_cast<std::uint32_t>(program.alu_instruction_count());
  cp.tex_per_fragment =
      static_cast<std::uint32_t>(program.tex_instruction_count());

  // Pass 1: operand pre-decoding and constant materialization.
  std::vector<CompiledIns> code;
  code.reserve(program.code.size());
  for (const Instruction& ins : program.code) {
    CompiledIns ci;
    ci.op = ins.op;
    ci.dst_index = ins.dst.index;
    ci.dst_is_output = ins.dst.file == RegFile::Output;
    ci.write_mask = ins.dst.write_mask;
    ci.src_count = ins.src_count;
    ci.tex_unit = ins.tex_unit;
    if (ins.dst.file == RegFile::Output) {
      cp.outputs_written =
          static_cast<std::uint8_t>(cp.outputs_written | (1u << ins.dst.index));
    }
    for (int s = 0; s < ins.src_count; ++s) {
      const SrcOperand& src = ins.src[static_cast<std::size_t>(s)];
      CompiledSrc cs;
      switch (src.file) {
        case RegFile::Temp:
          cs.kind = CompiledSrc::Kind::Temp;
          cs.index = src.index;
          cs.swz = src.swizzle.comp;
          cs.negate = src.negate;
          break;
        case RegFile::TexCoord:
          cs.kind = CompiledSrc::Kind::TexCoord;
          cs.index = src.index;
          cs.swz = src.swizzle.comp;
          cs.negate = src.negate;
          cp.texcoords_used =
              static_cast<std::uint8_t>(cp.texcoords_used | (1u << src.index));
          break;
        case RegFile::Const: {
          const float4 v =
              src.index < constants.size() ? constants[src.index] : float4(0.f);
          cs.kind = CompiledSrc::Kind::Imm;
          cs.imm = fold_swizzle_negate(v, src.swizzle, src.negate);
          break;
        }
        case RegFile::Literal:
          cs.kind = CompiledSrc::Kind::Imm;
          cs.imm = fold_swizzle_negate(src.literal, src.swizzle, src.negate);
          break;
        case RegFile::Output:
          HS_DEBUG_ASSERT(false);  // rejected by validate()
          break;
      }
      ci.src[static_cast<std::size_t>(s)] = cs;
    }
    if (ins.op == Opcode::TEX) {
      HS_ASSERT_MSG(ins.tex_unit < textures.size() &&
                        textures[ins.tex_unit] != nullptr,
                    "compile_program: TEX samples an unbound unit");
      ci.tex_slot = static_cast<std::int16_t>(cp.tex_unit_of_fetch.size());
      cp.tex_unit_of_fetch.push_back(ins.tex_unit);
      cp.tex_reuse_of_fetch.push_back(-1);
      cp.tex_bytes_per_fragment +=
          bytes_per_texel(textures[ins.tex_unit]->format());
    }
    code.push_back(ci);
  }

  // Pass 2: backward dead-write elimination over temp (and output) lanes.
  // TEX is never dropped -- its fetch drives the cache model -- but ALU
  // writes whose lanes are never consumed downstream vanish, and surviving
  // write masks shrink to the live lanes.
  std::array<std::uint8_t, kMaxTemps> live{};
  std::array<std::uint8_t, kMaxOutputs> live_out;
  live_out.fill(0xF);  // every output component is observable at pass end
  std::vector<char> keep(code.size(), 1);
  for (std::size_t i = code.size(); i-- > 0;) {
    CompiledIns& ci = code[i];
    std::uint8_t& live_dst =
        ci.dst_is_output ? live_out[ci.dst_index] : live[ci.dst_index];
    const std::uint8_t effective = ci.write_mask & live_dst;
    if (effective == 0 && ci.op != Opcode::TEX) {
      keep[i] = 0;
      ++cp.dce_removed;
      continue;
    }
    live_dst = static_cast<std::uint8_t>(live_dst & ~ci.write_mask);
    if (ci.op != Opcode::TEX) ci.write_mask = effective;
    for (int s = 0; s < ci.src_count; ++s) {
      const CompiledSrc& cs = ci.src[static_cast<std::size_t>(s)];
      if (cs.kind != CompiledSrc::Kind::Temp) continue;
      Swizzle sw;
      sw.comp = cs.swz;
      live[cs.index] = static_cast<std::uint8_t>(
          live[cs.index] | consumed_source_lanes(ci.op, sw, ci.write_mask));
    }
  }

  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!keep[i]) continue;
    CompiledIns ci = code[i];
    // Immediate rows are broadcast once per pass; assign pool slots only to
    // surviving operands.
    for (int s = 0; s < ci.src_count; ++s) {
      CompiledSrc& cs = ci.src[static_cast<std::size_t>(s)];
      if (cs.kind == CompiledSrc::Kind::Imm) cs.imm_slot = cp.imm_count++;
    }
    // In-place component shuffles (e.g. MOV R0.xy, R0.yxzw's lanes) must
    // stage their results: component c would otherwise clobber a lane a
    // later component still reads.
    if (!ci.dst_is_output && ci.op != Opcode::TEX &&
        !opcode_is_scalar(ci.op) && ci.op != Opcode::DP3 &&
        ci.op != Opcode::DP4) {
      for (int s = 0; s < ci.src_count && !ci.alias_hazard; ++s) {
        const CompiledSrc& cs = ci.src[static_cast<std::size_t>(s)];
        if (cs.kind != CompiledSrc::Kind::Temp || cs.index != ci.dst_index) {
          continue;
        }
        for (int c = 0; c < 4; ++c) {
          if ((ci.write_mask & (1u << c)) && cs.swz[static_cast<std::size_t>(c)] != c) {
            ci.alias_hazard = true;
            break;
          }
        }
      }
    }
    if (ci.dst_is_output) {
      cp.output_comp_mask[ci.dst_index] = static_cast<std::uint8_t>(
          cp.output_comp_mask[ci.dst_index] | ci.write_mask);
    }
    cp.code.push_back(ci);
  }

  // Resolve reuse: a TEX whose coordinate source (register, swizzle, negate)
  // matches an earlier TEX against a texture of identical width/height and
  // address mode resolves to the same texel indices, so the executor can
  // reuse the earlier slot's fetch records instead of re-running floor/wrap
  // per lane (common pattern: the same neighbor coordinate sampled against
  // several same-shaped band textures). An entry dies when any instruction
  // overwrites a coordinate component it reads.
  {
    struct ResolveEntry {
      CompiledSrc::Kind kind;
      std::uint8_t index;
      std::uint8_t sx, sy;
      bool negate;
      int width, height;
      AddressMode address;
      std::int16_t slot;
    };
    std::vector<ResolveEntry> avail;
    for (CompiledIns& ci : cp.code) {
      if (ci.op == Opcode::TEX) {
        const CompiledSrc& cs = ci.src[0];
        if (cs.kind != CompiledSrc::Kind::Imm) {
          const Texture2D* tex = textures[ci.tex_unit];
          bool matched = false;
          for (const ResolveEntry& e : avail) {
            if (e.kind == cs.kind && e.index == cs.index &&
                e.sx == cs.swz[0] && e.sy == cs.swz[1] &&
                e.negate == cs.negate && e.width == tex->width() &&
                e.height == tex->height() &&
                e.address == tex->address_mode()) {
              ci.resolve_reuse = e.slot;
              cp.tex_reuse_of_fetch[static_cast<std::size_t>(ci.tex_slot)] =
                  e.slot;
              matched = true;
              break;
            }
          }
          if (!matched) {
            avail.push_back({cs.kind, cs.index, cs.swz[0], cs.swz[1],
                             cs.negate, tex->width(), tex->height(),
                             tex->address_mode(), ci.tex_slot});
          }
        }
      }
      if (!ci.dst_is_output) {
        std::erase_if(avail, [&](const ResolveEntry& e) {
          return e.kind == CompiledSrc::Kind::Temp && e.index == ci.dst_index &&
                 (((ci.write_mask >> e.sx) & 1u) != 0 ||
                  ((ci.write_mask >> e.sy) & 1u) != 0);
        });
      }
    }
  }
  return cp;
}

// ---- shared cross-device store ---------------------------------------------

SharedProgramStore::SharedProgramStore(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)),
      trace_hits_(&trace::counter("cache.programs.hit")),
      trace_misses_(&trace::counter("cache.programs.miss")),
      trace_evictions_(&trace::counter("cache.programs.evict")) {}

std::shared_ptr<const SoaProgram> SharedProgramStore::get_or_compile(
    const FragmentProgram& program, std::span<const float4> constants,
    std::span<const Texture2D* const> textures) {
  std::vector<std::uint8_t> key = make_key(program, constants, textures);
  const std::uint64_t hash = fnv1a(key);
  std::lock_guard<std::mutex> lk(mu_);
  for (Entry& e : entries_) {
    if (e.hash == hash && e.key == key) {
      ++stats_.hits;
      trace_hits_->increment();
      e.stamp = ++stamp_;
      return e.program;
    }
  }
  ++stats_.misses;
  trace_misses_->increment();
  if (entries_.size() >= capacity_) {
    const auto lru = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
    entries_.erase(lru);
    ++stats_.evictions;
    trace_evictions_->increment();
  }
  Entry e;
  e.hash = hash;
  e.key = std::move(key);
  e.stamp = ++stamp_;
  // Lowering under the lock serializes rare cold misses but guarantees
  // each distinct binding is lowered exactly once per store.
  e.program = std::make_shared<const SoaProgram>(
      lower_soa(compile_program(program, constants, textures)));
  entries_.push_back(std::move(e));
  return entries_.back().program;
}

SharedProgramStore::Stats SharedProgramStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

// ---- program cache ---------------------------------------------------------

ProgramCache::ProgramCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)),
      trace_hits_(&trace::counter("gpusim.program_cache.hit")),
      trace_misses_(&trace::counter("gpusim.program_cache.miss")),
      trace_evictions_(&trace::counter("gpusim.program_cache.evict")) {}

std::shared_ptr<const SoaProgram> ProgramCache::get(
    const FragmentProgram& program, std::span<const float4> constants,
    std::span<const Texture2D* const> textures) {
  std::vector<std::uint8_t> key = make_key(program, constants, textures);
  const std::uint64_t hash = fnv1a(key);
  for (Entry& e : entries_) {
    if (e.hash == hash && e.key == key) {
      ++hits_;
      trace_hits_->increment();
      e.stamp = ++stamp_;
      return e.program;
    }
  }
  ++misses_;
  trace_misses_->increment();
  if (entries_.size() >= capacity_) {
    const auto lru = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
    entries_.erase(lru);
    ++evictions_;
    trace_evictions_->increment();
  }
  Entry e;
  e.hash = hash;
  e.key = std::move(key);
  e.stamp = ++stamp_;
  e.program = shared_store_
                  ? shared_store_->get_or_compile(program, constants, textures)
                  : std::make_shared<const SoaProgram>(lower_soa(
                        compile_program(program, constants, textures)));
  entries_.push_back(std::move(e));
  return entries_.back().program;
}

}  // namespace hs::gpusim
