// Unit tests for the SoA engine's front end (compiled_program.hpp):
// constant folding, dead-write elimination, the program cache's keying
// and LRU policy, and bit-identity of the SoA engine against the
// interpreter on hand-built corner-case programs.
#include <gtest/gtest.h>

#include <cstring>

#include "gpusim/compiled_program.hpp"
#include "gpusim/gpu_device.hpp"
#include "gpusim/interpreter.hpp"
#include "gpusim/soa_program.hpp"

namespace hs::gpusim {
namespace {

SrcOperand temp_src(std::uint8_t index,
                    std::array<std::uint8_t, 4> swz = {0, 1, 2, 3},
                    bool negate = false) {
  SrcOperand s;
  s.file = RegFile::Temp;
  s.index = index;
  s.swizzle.comp = swz;
  s.negate = negate;
  return s;
}

SrcOperand const_src(std::uint8_t index,
                     std::array<std::uint8_t, 4> swz = {0, 1, 2, 3},
                     bool negate = false) {
  SrcOperand s;
  s.file = RegFile::Const;
  s.index = index;
  s.swizzle.comp = swz;
  s.negate = negate;
  return s;
}

SrcOperand lit_src(float4 v) {
  SrcOperand s;
  s.file = RegFile::Literal;
  s.literal = v;
  return s;
}

SrcOperand tc_src(std::uint8_t index) {
  SrcOperand s;
  s.file = RegFile::TexCoord;
  s.index = index;
  return s;
}

Instruction ins1(Opcode op, RegFile dst_file, std::uint8_t dst_index,
                 std::uint8_t mask, SrcOperand a) {
  Instruction i;
  i.op = op;
  i.dst.file = dst_file;
  i.dst.index = dst_index;
  i.dst.write_mask = mask;
  i.src[0] = a;
  i.src_count = 1;
  return i;
}

Instruction ins2(Opcode op, RegFile dst_file, std::uint8_t dst_index,
                 std::uint8_t mask, SrcOperand a, SrcOperand b) {
  Instruction i = ins1(op, dst_file, dst_index, mask, a);
  i.src[1] = b;
  i.src_count = 2;
  return i;
}

Instruction tex_ins(std::uint8_t dst_index, SrcOperand coord,
                    std::uint8_t unit) {
  Instruction i;
  i.op = Opcode::TEX;
  i.dst.file = RegFile::Temp;
  i.dst.index = dst_index;
  i.src[0] = coord;
  i.src_count = 1;
  i.tex_unit = unit;
  return i;
}

FragmentProgram make_program(std::vector<Instruction> code) {
  FragmentProgram p;
  p.name = "test";
  p.code = std::move(code);
  EXPECT_TRUE(validate(p).empty());
  return p;
}

// ---- constant folding ------------------------------------------------------

TEST(CompiledProgram, ConstantOperandsFoldToImmediates) {
  const FragmentProgram p = make_program({
      ins2(Opcode::ADD, RegFile::Output, 0, 0xF,
           const_src(1, {3, 2, 1, 0}, /*negate=*/true), lit_src({1, 2, 3, 4})),
  });
  const float4 constants[2] = {{9, 9, 9, 9}, {10, 20, 30, 40}};
  const CompiledProgram cp = compile_program(p, constants, {});

  ASSERT_EQ(cp.code.size(), 1u);
  const CompiledSrc& a = cp.code[0].src[0];
  ASSERT_EQ(a.kind, CompiledSrc::Kind::Imm);
  EXPECT_EQ(a.imm, float4(-40.f, -30.f, -20.f, -10.f));  // swizzle, then negate
  const CompiledSrc& b = cp.code[0].src[1];
  ASSERT_EQ(b.kind, CompiledSrc::Kind::Imm);
  EXPECT_EQ(b.imm, float4(1.f, 2.f, 3.f, 4.f));
  EXPECT_EQ(cp.imm_count, 2);
}

TEST(CompiledProgram, UnboundConstantReadsFoldToZero) {
  const FragmentProgram p = make_program({
      ins1(Opcode::MOV, RegFile::Output, 0, 0xF, const_src(7)),
  });
  const float4 constants[1] = {{5, 5, 5, 5}};  // c[7] is out of range
  const CompiledProgram cp = compile_program(p, constants, {});
  ASSERT_EQ(cp.code[0].src[0].kind, CompiledSrc::Kind::Imm);
  EXPECT_EQ(cp.code[0].src[0].imm, float4(0.f));
}

// ---- dead-write elimination ------------------------------------------------

TEST(CompiledProgram, FullyOverwrittenTempWriteIsEliminated) {
  const FragmentProgram p = make_program({
      ins1(Opcode::MOV, RegFile::Temp, 0, 0xF, lit_src({1, 1, 1, 1})),
      ins1(Opcode::MOV, RegFile::Temp, 0, 0xF, lit_src({2, 2, 2, 2})),
      ins1(Opcode::MOV, RegFile::Output, 0, 0xF, temp_src(0)),
  });
  const CompiledProgram cp = compile_program(p, {}, {});
  EXPECT_EQ(cp.dce_removed, 1);
  ASSERT_EQ(cp.code.size(), 2u);
  EXPECT_EQ(cp.code[0].src[0].imm, float4(2.f, 2.f, 2.f, 2.f));
  // The interpreter still executed the dead MOV; analytic counters match it.
  EXPECT_EQ(cp.alu_per_fragment, 3u);
}

TEST(CompiledProgram, PartiallyDeadWriteShrinksItsMask) {
  const FragmentProgram p = make_program({
      ins1(Opcode::MOV, RegFile::Temp, 0, 0xF, lit_src({1, 2, 3, 4})),
      ins1(Opcode::MOV, RegFile::Temp, 0, 0x3, lit_src({8, 9, 0, 0})),
      ins1(Opcode::MOV, RegFile::Output, 0, 0xF, temp_src(0)),
  });
  const CompiledProgram cp = compile_program(p, {}, {});
  EXPECT_EQ(cp.dce_removed, 0);
  ASSERT_EQ(cp.code.size(), 3u);
  EXPECT_EQ(cp.code[0].write_mask, 0xC);  // .xy dead, .zw live
  EXPECT_EQ(cp.code[1].write_mask, 0x3);
}

TEST(CompiledProgram, OverwrittenOutputWriteIsEliminated) {
  const FragmentProgram p = make_program({
      ins1(Opcode::MOV, RegFile::Output, 0, 0xF, lit_src({1, 1, 1, 1})),
      ins1(Opcode::MOV, RegFile::Output, 0, 0xF, lit_src({2, 2, 2, 2})),
  });
  const CompiledProgram cp = compile_program(p, {}, {});
  EXPECT_EQ(cp.dce_removed, 1);
  ASSERT_EQ(cp.code.size(), 1u);
  // The bit is still reported: the interpreter sets it on every write.
  EXPECT_EQ(cp.outputs_written, 1u);
  EXPECT_EQ(cp.output_comp_mask[0], 0xF);
}

TEST(CompiledProgram, TexWithDeadResultIsKept) {
  Texture2D tex(4, 4, TextureFormat::RGBA32F);
  const Texture2D* textures[1] = {&tex};
  const FragmentProgram p = make_program({
      tex_ins(0, tc_src(0), 0),  // result never consumed
      ins1(Opcode::MOV, RegFile::Output, 0, 0xF, lit_src({1, 1, 1, 1})),
  });
  const CompiledProgram cp = compile_program(p, {}, textures);
  // The fetch has cache-model side effects; it must survive with its
  // original mask even though no lane is live.
  EXPECT_EQ(cp.dce_removed, 0);
  ASSERT_EQ(cp.code.size(), 2u);
  EXPECT_EQ(cp.code[0].op, Opcode::TEX);
  EXPECT_EQ(cp.code[0].write_mask, 0xF);
  EXPECT_EQ(cp.tex_per_fragment, 1u);
  EXPECT_EQ(cp.tex_bytes_per_fragment, 16u);
}

// ---- program cache ---------------------------------------------------------

TEST(ProgramCacheTest, RecompilesOnlyOnChangedSpecialization) {
  ProgramCache cache(4);
  const FragmentProgram p = make_program({
      ins1(Opcode::MOV, RegFile::Output, 0, 0xF, const_src(0)),
  });
  const float4 c1[1] = {{1, 2, 3, 4}};
  const float4 c2[1] = {{5, 6, 7, 8}};

  const auto first = cache.get(p, c1, {});
  EXPECT_EQ(cache.misses(), 1u);
  const auto again = cache.get(p, c1, {});
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(first.get(), again.get()) << "a hit returns the cached lowering";
  // The entry is the executable plan: front end plus second stage.
  ASSERT_EQ(first->compiled.code.size(), 1u);
  EXPECT_EQ(first->compiled.code[0].src[0].imm, float4(1.f, 2.f, 3.f, 4.f));
  EXPECT_EQ(first->live_fullscreen.size(), 1u);

  // Same instructions, different constant *values*: a new specialization.
  const auto other = cache.get(p, c2, {});
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(other->compiled.code[0].src[0].imm, float4(5.f, 6.f, 7.f, 8.f));
}

TEST(ProgramCacheTest, TextureShapeIsPartOfTheKey) {
  ProgramCache cache(4);
  Texture2D small(4, 4, TextureFormat::RGBA32F);
  Texture2D large(8, 8, TextureFormat::RGBA32F);
  const FragmentProgram p = make_program({
      tex_ins(0, tc_src(0), 0),
      ins1(Opcode::MOV, RegFile::Output, 0, 0xF, temp_src(0)),
  });
  const Texture2D* bind_small[1] = {&small};
  const Texture2D* bind_large[1] = {&large};
  const auto s = cache.get(p, {}, bind_small);
  const auto l = cache.get(p, {}, bind_large);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_NE(s.get(), l.get());
  // texcoord0 sampled directly: a static fetch plan in either shape.
  ASSERT_EQ(s->fetch.size(), 1u);
  EXPECT_EQ(s->fetch[0].mode, SoaFetchPlan::Mode::Static);
  (void)cache.get(p, {}, bind_small);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ProgramCacheTest, EvictsLeastRecentlyUsed) {
  ProgramCache cache(2);
  const float4 c[1] = {{0, 0, 0, 0}};
  auto program_with_value = [](float v) {
    return make_program({
        ins1(Opcode::MOV, RegFile::Output, 0, 0xF, lit_src(float4(v))),
    });
  };
  const FragmentProgram a = program_with_value(1.f);
  const FragmentProgram b = program_with_value(2.f);
  const FragmentProgram d = program_with_value(3.f);

  (void)cache.get(a, c, {});
  const auto held = cache.get(b, c, {});
  (void)cache.get(a, c, {});  // refresh a; b becomes LRU
  (void)cache.get(d, c, {});  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  // An evicted plan stays valid for whoever still holds it (a pass in
  // flight keeps its shared_ptr for the whole draw).
  EXPECT_EQ(held->compiled.code[0].src[0].imm, float4(2.f));
  (void)cache.get(a, c, {});
  EXPECT_EQ(cache.hits(), 2u);  // the refresh above plus this get
  (void)cache.get(b, c, {});    // must recompile
  EXPECT_EQ(cache.misses(), 4u);
}

// ---- SoA-vs-interpreter corner cases ---------------------------------------

struct MiniPass {
  static constexpr int kW = 300;  // a full 256-lane tile plus a partial one
  static constexpr int kH = 5;

  /// Draws `p` under both engines over identical random-ish inputs and
  /// expects bitwise-equal target texels.
  static void expect_identical(const FragmentProgram& p,
                               AddressMode mode = AddressMode::ClampToEdge) {
    DeviceProfile profile = geforce_7800_gtx();
    profile.fragment_pipes = 2;
    SimConfig ci, cc;
    ci.exec_engine = ExecEngine::Interpreter;
    cc.exec_engine = ExecEngine::Soa;
    Device di(profile, ci), dc(profile, cc);

    std::vector<float4> data(kW * kH);
    for (std::size_t i = 0; i < data.size(); ++i) {
      const float f = static_cast<float>(i);
      data[i] = {0.5f * f, -0.25f * f, 1.f + f, 7.f - f};
    }
    const float4 constants[2] = {{1.5f, -2.f, 0.25f, 8.f}, {3.f, 3.f, 3.f, 3.f}};

    PassStats si, sc;
    TextureHandle oi = 0, oc = 0;
    for (Device* dev : {&di, &dc}) {
      const TextureHandle in = dev->create_texture(kW, kH,
                                                   TextureFormat::RGBA32F, mode);
      const TextureHandle out = dev->create_texture(kW, kH,
                                                    TextureFormat::RGBA32F);
      dev->upload(in, data);
      const TextureHandle ins[1] = {in};
      const TextureHandle outs[1] = {out};
      const PassStats s = dev->draw(p, ins, constants, outs);
      if (dev == &di) { si = s; oi = out; } else { sc = s; oc = out; }
    }
    EXPECT_EQ(si.exec.alu_instructions, sc.exec.alu_instructions);
    EXPECT_EQ(si.exec.tex_fetches, sc.exec.tex_fetches);
    EXPECT_EQ(si.cache.hits, sc.cache.hits);
    EXPECT_EQ(si.cache.misses, sc.cache.misses);
    EXPECT_EQ(si.unique_tile_bytes, sc.unique_tile_bytes);
    EXPECT_EQ(si.modeled_seconds, sc.modeled_seconds);
    const auto& ri = di.texture(oi).raw();
    const auto& rc = dc.texture(oc).raw();
    ASSERT_EQ(ri.size(), rc.size());
    EXPECT_EQ(0, std::memcmp(ri.data(), rc.data(), ri.size() * sizeof(float)));
  }
};

TEST(CompiledEngine, AliasHazardSwapMatchesInterpreter) {
  // MOV R0.xy, R0.yxzw reads lanes the same instruction overwrites.
  const FragmentProgram p = make_program({
      ins1(Opcode::MOV, RegFile::Temp, 0, 0xF, tc_src(0)),
      ins1(Opcode::MOV, RegFile::Temp, 0, 0x3, temp_src(0, {1, 0, 2, 3})),
      ins1(Opcode::MOV, RegFile::Output, 0, 0xF, temp_src(0)),
  });
  MiniPass::expect_identical(p);
}

TEST(CompiledEngine, ScalarAndDotOpsMatchInterpreter) {
  const FragmentProgram p = make_program({
      ins1(Opcode::MOV, RegFile::Temp, 0, 0xF, tc_src(0)),
      ins1(Opcode::RCP, RegFile::Temp, 1, 0xF, temp_src(0, {0, 0, 0, 0})),
      ins1(Opcode::RSQ, RegFile::Temp, 2, 0xF, temp_src(0, {1, 1, 1, 1})),
      ins1(Opcode::LG2, RegFile::Temp, 3, 0xF, temp_src(0, {3, 3, 3, 3})),
      ins1(Opcode::EX2, RegFile::Temp, 4, 0xF, temp_src(1, {1, 1, 1, 1})),
      ins2(Opcode::DP3, RegFile::Temp, 5, 0xF, temp_src(1), temp_src(2)),
      ins2(Opcode::DP4, RegFile::Temp, 6, 0x5, temp_src(3), temp_src(4)),
      ins2(Opcode::ADD, RegFile::Temp, 7, 0x5, temp_src(5), temp_src(6)),
      // Only the .xz lanes of R7 were written; consume just those.
      ins1(Opcode::MOV, RegFile::Output, 0, 0xF, temp_src(7, {0, 0, 2, 2})),
  });
  MiniPass::expect_identical(p);
}

TEST(CompiledEngine, SwizzledTexCoordTakesGenericPathAndMatches) {
  // coord .yx swaps s/t, so the fetch is dynamic, not static -- on a
  // non-square target the transposed fetch goes out of range and
  // exercises every address mode's wrap logic.
  const FragmentProgram p = make_program({
      tex_ins(0, [] {
        SrcOperand s = tc_src(0);
        s.swizzle.comp = {1, 0, 2, 3};
        return s;
      }(), 0),
      ins1(Opcode::MOV, RegFile::Output, 0, 0xF, temp_src(0)),
  });
  MiniPass::expect_identical(p, AddressMode::ClampToEdge);
  MiniPass::expect_identical(p, AddressMode::Repeat);
  MiniPass::expect_identical(p, AddressMode::ClampToBorder);
}

TEST(CompiledEngine, IdentityTexCoordFastPathMatches) {
  const FragmentProgram p = make_program({
      tex_ins(0, tc_src(0), 0),
      ins2(Opcode::MUL, RegFile::Output, 0, 0xF, temp_src(0),
           const_src(0)),
  });
  MiniPass::expect_identical(p, AddressMode::ClampToEdge);
  MiniPass::expect_identical(p, AddressMode::ClampToBorder);
}

TEST(CompiledEngine, DeviceCountersUnaffectedByDce) {
  // A program with a dead write still reports the interpreter's counters.
  DeviceProfile profile = geforce_7800_gtx();
  profile.fragment_pipes = 2;
  Device dev(profile);  // the SoA engine is the default
  const TextureHandle out = dev.create_texture(8, 8, TextureFormat::RGBA32F);
  const FragmentProgram p = make_program({
      ins1(Opcode::MOV, RegFile::Temp, 0, 0xF, lit_src({1, 1, 1, 1})),  // dead
      ins1(Opcode::MOV, RegFile::Output, 0, 0xF, lit_src({2, 2, 2, 2})),
  });
  const TextureHandle outs[1] = {out};
  const PassStats stats = dev.draw(p, {}, {}, outs);
  EXPECT_EQ(stats.exec.alu_instructions, 64u * 2u);
  EXPECT_EQ(dev.texture(out).load(3, 3), float4(2.f, 2.f, 2.f, 2.f));
}

}  // namespace
}  // namespace hs::gpusim
