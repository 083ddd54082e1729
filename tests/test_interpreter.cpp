#include "gpusim/interpreter.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gpusim/assembler.hpp"

namespace hs::gpusim {
namespace {

/// Runs a one-liner program of the form "OP result.color, <operands>;"
/// with R0/R1/R2 preloaded from a/b/c.
float4 run_op(const std::string& body, float4 a = float4(0.f),
              float4 b = float4(0.f), float4 c = float4(0.f),
              ExecCounters* counters_out = nullptr) {
  std::string src = "!!HSFP1.0\n";
  src += "MOV R0, {" + std::to_string(a.x) + "," + std::to_string(a.y) + "," +
         std::to_string(a.z) + "," + std::to_string(a.w) + "};\n";
  src += "MOV R1, {" + std::to_string(b.x) + "," + std::to_string(b.y) + "," +
         std::to_string(b.z) + "," + std::to_string(b.w) + "};\n";
  src += "MOV R2, {" + std::to_string(c.x) + "," + std::to_string(c.y) + "," +
         std::to_string(c.z) + "," + std::to_string(c.w) + "};\n";
  src += body + "\n";
  src += "END\n";
  const auto program = assemble_or_die("op", src);
  FragmentContext ctx;
  ExecCounters counters;
  const auto result = execute_fragment(program, ctx, counters);
  if (counters_out) *counters_out = counters;
  EXPECT_TRUE(result.outputs_written & 1u);
  return result.color[0];
}

TEST(Interpreter, Mov) {
  EXPECT_EQ(run_op("MOV result.color, R0;", {1, 2, 3, 4}), float4(1, 2, 3, 4));
}

TEST(Interpreter, AddSubMul) {
  EXPECT_EQ(run_op("ADD result.color, R0, R1;", {1, 2, 3, 4}, {1, 1, 1, 1}),
            float4(2, 3, 4, 5));
  EXPECT_EQ(run_op("SUB result.color, R0, R1;", {1, 2, 3, 4}, {1, 1, 1, 1}),
            float4(0, 1, 2, 3));
  EXPECT_EQ(run_op("MUL result.color, R0, R1;", {1, 2, 3, 4}, {2, 2, 2, 2}),
            float4(2, 4, 6, 8));
}

TEST(Interpreter, MadComputesFusedForm) {
  EXPECT_EQ(run_op("MAD result.color, R0, R1, R2;", {1, 2, 3, 4}, {2, 2, 2, 2},
                   {10, 10, 10, 10}),
            float4(12, 14, 16, 18));
}

TEST(Interpreter, MinMax) {
  EXPECT_EQ(run_op("MIN result.color, R0, R1;", {1, 5, 3, 0}, {2, 4, 3, -1}),
            float4(1, 4, 3, -1));
  EXPECT_EQ(run_op("MAX result.color, R0, R1;", {1, 5, 3, 0}, {2, 4, 3, -1}),
            float4(2, 5, 3, 0));
}

TEST(Interpreter, SltSge) {
  EXPECT_EQ(run_op("SLT result.color, R0, R1;", {1, 2, 3, 4}, {2, 2, 2, 2}),
            float4(1, 0, 0, 0));
  EXPECT_EQ(run_op("SGE result.color, R0, R1;", {1, 2, 3, 4}, {2, 2, 2, 2}),
            float4(0, 1, 1, 1));
}

TEST(Interpreter, CmpSelectsOnNegativeCondition) {
  EXPECT_EQ(run_op("CMP result.color, R0, R1, R2;", {-1, 0, -0.5, 2},
                   {10, 10, 10, 10}, {20, 20, 20, 20}),
            float4(10, 20, 10, 20));
}

TEST(Interpreter, LrpInterpolates) {
  EXPECT_EQ(run_op("LRP result.color, R0, R1, R2;", {0.25f, 0.5f, 0, 1},
                   {8, 8, 8, 8}, {4, 4, 4, 4}),
            float4(5, 6, 4, 8));
}

TEST(Interpreter, AbsFlrFrc) {
  EXPECT_EQ(run_op("ABS result.color, R0;", {-1, 2, -3, 0}),
            float4(1, 2, 3, 0));
  EXPECT_EQ(run_op("FLR result.color, R0;", {1.5f, -1.5f, 2.0f, -0.1f}),
            float4(1, -2, 2, -1));
  const float4 frc =
      run_op("FRC result.color, R0;", {1.25f, -1.25f, 2.0f, 0.75f});
  EXPECT_FLOAT_EQ(frc.x, 0.25f);
  EXPECT_FLOAT_EQ(frc.y, 0.75f);
  EXPECT_FLOAT_EQ(frc.z, 0.0f);
  EXPECT_FLOAT_EQ(frc.w, 0.75f);
}

TEST(Interpreter, ScalarOpsBroadcast) {
  EXPECT_EQ(run_op("RCP result.color, R0.x;", {4, 9, 9, 9}),
            float4(0.25f, 0.25f, 0.25f, 0.25f));
  EXPECT_EQ(run_op("RSQ result.color, R0.y;", {0, 16, 0, 0}),
            float4(0.25f));
  EXPECT_EQ(run_op("LG2 result.color, R0.x;", {8, 0, 0, 0}), float4(3.f));
  EXPECT_EQ(run_op("EX2 result.color, R0.x;", {3, 0, 0, 0}), float4(8.f));
}

TEST(Interpreter, DotProducts) {
  EXPECT_EQ(run_op("DP3 result.color, R0, R1;", {1, 2, 3, 100}, {1, 1, 1, 100}),
            float4(6.f));
  EXPECT_EQ(run_op("DP4 result.color, R0, R1;", {1, 2, 3, 4}, {1, 1, 1, 1}),
            float4(10.f));
}

TEST(Interpreter, SwizzleReordersComponents) {
  EXPECT_EQ(run_op("MOV result.color, R0.wzyx;", {1, 2, 3, 4}),
            float4(4, 3, 2, 1));
}

TEST(Interpreter, NegateFlipsSign) {
  EXPECT_EQ(run_op("MOV result.color, -R0;", {1, -2, 3, -4}),
            float4(-1, 2, -3, 4));
}

TEST(Interpreter, WriteMaskPreservesOtherLanes) {
  const auto program = assemble_or_die("mask",
                                       "!!HSFP1.0\n"
                                       "MOV R0, {1.0, 1.0, 1.0, 1.0};\n"
                                       "MOV R0.yw, {9.0};\n"
                                       "MOV result.color, R0;\n"
                                       "END\n");
  FragmentContext ctx;
  ExecCounters counters;
  const auto result = execute_fragment(program, ctx, counters);
  EXPECT_EQ(result.color[0], float4(1, 9, 1, 9));
}

TEST(Interpreter, ConstantsComeFromContext) {
  const auto program = assemble_or_die("consts",
                                       "!!HSFP1.0\n"
                                       "MOV result.color, c[1];\n"
                                       "END\n");
  const float4 constants[2] = {{0, 0, 0, 0}, {5, 6, 7, 8}};
  FragmentContext ctx;
  ctx.constants = constants;
  ExecCounters counters;
  const auto result = execute_fragment(program, ctx, counters);
  EXPECT_EQ(result.color[0], float4(5, 6, 7, 8));
}

TEST(Interpreter, UnboundConstantReadsZero) {
  const auto program = assemble_or_die("consts",
                                       "!!HSFP1.0\n"
                                       "MOV result.color, c[9];\n"
                                       "END\n");
  FragmentContext ctx;
  ExecCounters counters;
  const auto result = execute_fragment(program, ctx, counters);
  EXPECT_EQ(result.color[0], float4(0.f));
}

TEST(Interpreter, TexcoordComesFromContext) {
  const auto program = assemble_or_die("tc",
                                       "!!HSFP1.0\n"
                                       "MOV result.color, fragment.texcoord[1];\n"
                                       "END\n");
  FragmentContext ctx;
  ctx.texcoord[1] = {3, 4, 0, 1};
  ExecCounters counters;
  const auto result = execute_fragment(program, ctx, counters);
  EXPECT_EQ(result.color[0], float4(3, 4, 0, 1));
}

TEST(Interpreter, TexFetchesFromBoundTexture) {
  Texture2D tex(4, 4, TextureFormat::RGBA32F);
  tex.store(2, 1, {7, 8, 9, 10});
  const Texture2D* textures[1] = {&tex};
  const auto program = assemble_or_die("tex",
                                       "!!HSFP1.0\n"
                                       "TEX R0, fragment.texcoord[0], texture[0];\n"
                                       "MOV result.color, R0;\n"
                                       "END\n");
  FragmentContext ctx;
  ctx.texcoord[0] = {2.5f, 1.5f, 0, 1};
  ctx.textures = textures;
  ExecCounters counters;
  const auto result = execute_fragment(program, ctx, counters);
  EXPECT_EQ(result.color[0], float4(7, 8, 9, 10));
  EXPECT_EQ(counters.tex_fetches, 1u);
  EXPECT_EQ(counters.tex_fetch_bytes, 16u);
}

TEST(Interpreter, DependentTexRead) {
  Texture2D tex(4, 4, TextureFormat::RGBA32F);
  tex.store(3, 2, {1, 2, 3, 4});
  const Texture2D* textures[1] = {&tex};
  const auto program = assemble_or_die("dep",
                                       "!!HSFP1.0\n"
                                       "ADD R0.xy, fragment.texcoord[0], c[0];\n"
                                       "TEX R1, R0, texture[0];\n"
                                       "MOV result.color, R1;\n"
                                       "END\n");
  const float4 constants[1] = {{1, 1, 0, 0}};
  FragmentContext ctx;
  ctx.texcoord[0] = {2.5f, 1.5f, 0, 1};
  ctx.constants = constants;
  ctx.textures = textures;
  ExecCounters counters;
  const auto result = execute_fragment(program, ctx, counters);
  EXPECT_EQ(result.color[0], float4(1, 2, 3, 4));
}

TEST(Interpreter, CountsAluAndTexSeparately) {
  Texture2D tex(2, 2, TextureFormat::R32F);
  const Texture2D* textures[1] = {&tex};
  const auto program = assemble_or_die("count",
                                       "!!HSFP1.0\n"
                                       "TEX R0, fragment.texcoord[0], texture[0];\n"
                                       "ADD R1, R0, R0;\n"
                                       "MUL R1, R1, R1;\n"
                                       "MOV result.color, R1;\n"
                                       "END\n");
  FragmentContext ctx;
  ctx.textures = textures;
  ExecCounters counters;
  execute_fragment(program, ctx, counters);
  EXPECT_EQ(counters.alu_instructions, 3u);
  EXPECT_EQ(counters.tex_fetches, 1u);
  EXPECT_EQ(counters.tex_fetch_bytes, 4u);
}

TEST(Interpreter, MultipleRenderTargets) {
  const auto program = assemble_or_die("mrt",
                                       "!!HSFP1.0\n"
                                       "MOV result.color[0], {1.0};\n"
                                       "MOV result.color[2], {2.0};\n"
                                       "END\n");
  FragmentContext ctx;
  ExecCounters counters;
  const auto result = execute_fragment(program, ctx, counters);
  EXPECT_EQ(result.outputs_written, 0b101);
  EXPECT_EQ(result.color[0], float4(1.f));
  EXPECT_EQ(result.color[2], float4(2.f));
}

TEST(Interpreter, TexCacheRecordsAccesses) {
  Texture2D tex(8, 8, TextureFormat::RGBA32F);
  const Texture2D* textures[1] = {&tex};
  const std::uint32_t ids[1] = {42};
  TextureCache cache(8 * 1024);
  const auto program = assemble_or_die("cached",
                                       "!!HSFP1.0\n"
                                       "TEX R0, fragment.texcoord[0], texture[0];\n"
                                       "MOV result.color, R0;\n"
                                       "END\n");
  FragmentContext ctx;
  ctx.texcoord[0] = {0.5f, 0.5f, 0, 1};
  ctx.textures = textures;
  ctx.texture_ids = ids;
  ctx.cache = &cache;
  ExecCounters counters;
  execute_fragment(program, ctx, counters);
  execute_fragment(program, ctx, counters);
  EXPECT_EQ(cache.stats().accesses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

}  // namespace
}  // namespace hs::gpusim
