// Property tests over randomly generated (valid) fragment programs:
//   * the disassemble -> assemble round trip preserves the IR;
//   * the interpreter executes any valid program without faulting and its
//     counters always reconcile with the program's static instruction mix;
//   * device passes never write outside their render targets;
//   * differential: the SoA engine reproduces the interpreter bit-for-bit
//     -- outputs, counters, cache statistics, unique-tile traffic, modeled
//     time -- on fullscreen and geometry passes alike, including
//     fullscreen passes past the static-fetch float-exactness bound.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "gpusim/assembler.hpp"
#include "gpusim/gpu_device.hpp"
#include "gpusim/interpreter.hpp"
#include "util/rng.hpp"

namespace hs::gpusim {
namespace {

/// Builds a random but always-valid program: every temp is fully written
/// before any read, sources draw from initialized temps / constants /
/// texcoords / literals, and the last instruction writes the output.
/// With `partial_masks`, extra partially-masked overwrites of live temps
/// and of the output are interleaved (always valid: the overwritten temp
/// is already fully initialized) -- these exercise the SoA engine's
/// write-mask handling and dead-write elimination.
FragmentProgram random_program(util::Xoshiro256& rng, int max_ops,
                               int bound_textures,
                               bool partial_masks = false) {
  FragmentProgram program;
  program.name = "fuzz";
  int live_temps = 0;

  auto random_source = [&](bool allow_temp) {
    SrcOperand src;
    const std::uint64_t kind = rng.uniform_int(allow_temp && live_temps > 0 ? 4 : 3);
    switch (kind) {
      case 0:
        src.file = RegFile::Literal;
        src.literal = {static_cast<float>(rng.uniform(-2, 2)),
                       static_cast<float>(rng.uniform(-2, 2)),
                       static_cast<float>(rng.uniform(0.1, 2)),
                       static_cast<float>(rng.uniform(0.1, 2))};
        break;
      case 1:
        src.file = RegFile::Const;
        src.index = static_cast<std::uint8_t>(rng.uniform_int(4));
        break;
      case 2:
        src.file = RegFile::TexCoord;
        src.index = static_cast<std::uint8_t>(rng.uniform_int(2));
        break;
      default:
        src.file = RegFile::Temp;
        src.index = static_cast<std::uint8_t>(rng.uniform_int(
            static_cast<std::uint64_t>(live_temps)));
        break;
    }
    if (rng.uniform() < 0.3) {
      for (auto& c : src.swizzle.comp) {
        c = static_cast<std::uint8_t>(rng.uniform_int(4));
      }
    }
    if (rng.uniform() < 0.2) src.negate = true;
    return src;
  };

  const Opcode ops[] = {Opcode::MOV, Opcode::ABS, Opcode::FLR, Opcode::FRC,
                        Opcode::RCP, Opcode::RSQ, Opcode::LG2, Opcode::EX2,
                        Opcode::ADD, Opcode::SUB, Opcode::MUL, Opcode::MIN,
                        Opcode::MAX, Opcode::SLT, Opcode::SGE, Opcode::DP3,
                        Opcode::DP4, Opcode::MAD, Opcode::CMP, Opcode::LRP,
                        Opcode::TEX};
  const int n_ops = static_cast<int>(1 + rng.uniform_int(static_cast<std::uint64_t>(max_ops)));
  for (int i = 0; i < n_ops && live_temps < kMaxTemps; ++i) {
    Instruction ins;
    ins.op = ops[rng.uniform_int(bound_textures > 0 ? 21 : 20)];
    ins.dst.file = RegFile::Temp;
    ins.dst.index = static_cast<std::uint8_t>(live_temps);
    ins.dst.write_mask = 0xF;  // full writes keep init tracking trivial
    if (ins.op == Opcode::TEX) {
      ins.src[0] = random_source(true);
      ins.src_count = 1;
      ins.tex_unit = static_cast<std::uint8_t>(
          rng.uniform_int(static_cast<std::uint64_t>(bound_textures)));
    } else {
      const int arity = opcode_arity(ins.op);
      for (int s = 0; s < arity; ++s) {
        ins.src[static_cast<std::size_t>(s)] = random_source(true);
      }
      ins.src_count = static_cast<std::uint8_t>(arity);
    }
    program.code.push_back(ins);
    ++live_temps;

    if (partial_masks && rng.uniform() < 0.35) {
      Instruction extra;
      extra.op = rng.uniform() < 0.5 ? Opcode::MOV : Opcode::ADD;
      if (rng.uniform() < 0.3) {
        extra.dst.file = RegFile::Output;
        extra.dst.index = 0;
      } else {
        extra.dst.file = RegFile::Temp;
        extra.dst.index = static_cast<std::uint8_t>(
            rng.uniform_int(static_cast<std::uint64_t>(live_temps)));
      }
      extra.dst.write_mask =
          static_cast<std::uint8_t>(1 + rng.uniform_int(15));  // nonzero
      const int arity = opcode_arity(extra.op);
      for (int s = 0; s < arity; ++s) {
        extra.src[static_cast<std::size_t>(s)] = random_source(true);
      }
      extra.src_count = static_cast<std::uint8_t>(arity);
      program.code.push_back(extra);
    }
  }

  Instruction out;
  out.op = Opcode::MOV;
  out.dst.file = RegFile::Output;
  out.dst.index = 0;
  out.src[0] = random_source(true);
  out.src_count = 1;
  program.code.push_back(out);
  return program;
}

class ProgramFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProgramFuzz, GeneratedProgramsAreValid) {
  util::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const FragmentProgram p = random_program(rng, 24, 2);
    const auto errors = validate(p);
    EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  }
}

TEST_P(ProgramFuzz, DisassembleAssembleRoundTrips) {
  util::Xoshiro256 rng(GetParam() ^ 0xD15A55ULL);
  for (int trial = 0; trial < 20; ++trial) {
    const FragmentProgram p = random_program(rng, 16, 2);
    auto reassembled = assemble("fuzz", disassemble(p));
    auto* err = std::get_if<AssembleError>(&reassembled);
    ASSERT_EQ(err, nullptr) << err->message << "\n" << disassemble(p);
    const FragmentProgram& q = std::get<FragmentProgram>(reassembled);
    ASSERT_EQ(p.code.size(), q.code.size());
    for (std::size_t i = 0; i < p.code.size(); ++i) {
      EXPECT_EQ(p.code[i].op, q.code[i].op) << i;
      EXPECT_EQ(p.code[i].dst.file, q.code[i].dst.file) << i;
      EXPECT_EQ(p.code[i].dst.index, q.code[i].dst.index) << i;
      EXPECT_EQ(p.code[i].dst.write_mask, q.code[i].dst.write_mask) << i;
      EXPECT_EQ(p.code[i].src_count, q.code[i].src_count) << i;
      EXPECT_EQ(p.code[i].tex_unit, q.code[i].tex_unit) << i;
      for (int s = 0; s < p.code[i].src_count; ++s) {
        const auto& ps = p.code[i].src[static_cast<std::size_t>(s)];
        const auto& qs = q.code[i].src[static_cast<std::size_t>(s)];
        EXPECT_EQ(ps.file, qs.file) << i << ":" << s;
        EXPECT_EQ(ps.negate, qs.negate) << i << ":" << s;
        if (ps.file == RegFile::Literal) {
          for (std::size_t c = 0; c < 4; ++c) {
            EXPECT_FLOAT_EQ(ps.literal[c], qs.literal[c]) << i << ":" << s;
          }
        } else {
          EXPECT_EQ(ps.index, qs.index) << i << ":" << s;
        }
        EXPECT_EQ(ps.swizzle.comp, qs.swizzle.comp) << i << ":" << s;
      }
    }
  }
}

TEST_P(ProgramFuzz, InterpreterCountersMatchStaticMix) {
  util::Xoshiro256 rng(GetParam() ^ 0xC0FFEEULL);
  Texture2D tex_a(8, 8, TextureFormat::RGBA32F);
  Texture2D tex_b(8, 8, TextureFormat::R32F);
  const Texture2D* textures[2] = {&tex_a, &tex_b};
  for (int trial = 0; trial < 20; ++trial) {
    const FragmentProgram p = random_program(rng, 24, 2);
    FragmentContext ctx;
    ctx.texcoord[0] = {1.5f, 2.5f, 0, 1};
    ctx.texcoord[1] = {0.5f, 0.5f, 0, 1};
    const float4 constants[4] = {{1, 2, 3, 4}, {0.5, 0.5, 0.5, 0.5},
                                 {-1, 0, 1, 2}, {4, 3, 2, 1}};
    ctx.constants = constants;
    ctx.textures = textures;
    ExecCounters counters;
    const FragmentResult result = execute_fragment(p, ctx, counters);
    EXPECT_TRUE(result.outputs_written & 1u);
    EXPECT_EQ(counters.alu_instructions,
              static_cast<std::uint64_t>(p.alu_instruction_count()));
    EXPECT_EQ(counters.tex_fetches,
              static_cast<std::uint64_t>(p.tex_instruction_count()));
  }
}

TEST_P(ProgramFuzz, DevicePassesRunToCompletion) {
  util::Xoshiro256 rng(GetParam() ^ 0xBEEFULL);
  DeviceProfile profile = geforce_7800_gtx();
  profile.fragment_pipes = 2;
  Device dev(profile);
  const TextureHandle in_a = dev.create_texture(8, 8, TextureFormat::RGBA32F);
  const TextureHandle in_b = dev.create_texture(8, 8, TextureFormat::R32F);
  const TextureHandle out = dev.create_texture(8, 8, TextureFormat::RGBA32F);
  const TextureHandle ins[2] = {in_a, in_b};
  const TextureHandle outs[1] = {out};
  const float4 constants[4] = {{1, 1, 0, 0}, {2, 2, 2, 2}, {}, {}};
  for (int trial = 0; trial < 10; ++trial) {
    const FragmentProgram p = random_program(rng, 16, 2);
    const PassStats stats = dev.draw(p, ins, constants, outs);
    EXPECT_EQ(stats.fragments, 64u);
    EXPECT_EQ(stats.exec.alu_instructions,
              64u * static_cast<std::uint64_t>(p.alu_instruction_count()));
  }
}

// ---- engine differential --------------------------------------------------
//
// Two devices, identical in everything but the execution engine, are fed
// identical programs, constants and texture contents. The SoA engine must
// reproduce the interpreter *bit for bit*: raw output texels (memcmp, so
// NaNs compare too), execution counters, texture-cache hit/miss
// statistics (LRU-order sensitive), unique-tile traffic and modeled time.

struct EnginePair {
  Device interp;
  Device soa;

  explicit EnginePair(int pipes)
      : interp(profile_for(pipes), config_for(ExecEngine::Interpreter)),
        soa(profile_for(pipes), config_for(ExecEngine::Soa)) {}

  static DeviceProfile profile_for(int pipes) {
    DeviceProfile profile = geforce_7800_gtx();
    profile.fragment_pipes = pipes;
    return profile;
  }
  static SimConfig config_for(ExecEngine engine) {
    SimConfig config;
    config.exec_engine = engine;
    return config;
  }
};

void expect_identical_stats(const PassStats& a, const PassStats& b) {
  EXPECT_EQ(a.fragments, b.fragments);
  EXPECT_EQ(a.exec.alu_instructions, b.exec.alu_instructions);
  EXPECT_EQ(a.exec.tex_fetches, b.exec.tex_fetches);
  EXPECT_EQ(a.exec.tex_fetch_bytes, b.exec.tex_fetch_bytes);
  EXPECT_EQ(a.cache.accesses, b.cache.accesses);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
  EXPECT_EQ(a.cache_miss_bytes, b.cache_miss_bytes);
  EXPECT_EQ(a.unique_tile_bytes, b.unique_tile_bytes);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.modeled_seconds, b.modeled_seconds);
}

void expect_identical_texels(Device& da, TextureHandle ha, Device& db,
                             TextureHandle hb) {
  const auto& ra = da.texture(ha).raw();
  const auto& rb = db.texture(hb).raw();
  ASSERT_EQ(ra.size(), rb.size());
  EXPECT_EQ(0, std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(float)));
}

TEST_P(ProgramFuzz, EnginesBitIdenticalOnFullscreenPasses) {
  util::Xoshiro256 rng(GetParam() ^ 0xD1FFULL);
  const AddressMode modes[] = {AddressMode::ClampToEdge, AddressMode::Repeat,
                               AddressMode::ClampToBorder};
  // Widths beyond the SoA engine's 256-lane tile exercise multi-tile rows
  // and (300) a partial final tile; narrower widths exercise pass-sized
  // scratch rows (70 -> 80-lane rows) and uneven pipe partitions.
  const std::pair<int, int> shapes[] = {{8, 8}, {300, 5}, {5, 3},
                                        {70, 9}, {512, 2}, {257, 3}};
  for (int trial = 0; trial < 12; ++trial) {
    const int pipes = 1 + static_cast<int>(rng.uniform_int(4));
    EnginePair pair(pipes);
    const auto [w, h] = shapes[trial % 6];
    const AddressMode mode_a = modes[rng.uniform_int(3)];
    const AddressMode mode_b = modes[rng.uniform_int(3)];

    std::vector<float4> data_a(static_cast<std::size_t>(w) * h);
    std::vector<float> data_b(static_cast<std::size_t>(w) * h);
    for (auto& v : data_a) {
      v = {static_cast<float>(rng.uniform(-4, 4)),
           static_cast<float>(rng.uniform(-4, 4)),
           static_cast<float>(rng.uniform(-4, 4)),
           static_cast<float>(rng.uniform(-4, 4))};
    }
    for (auto& v : data_b) v = static_cast<float>(rng.uniform(-4, 4));

    TextureHandle in_a[2], in_b[2], out[2];
    Device* devs[2] = {&pair.interp, &pair.soa};
    for (int d = 0; d < 2; ++d) {
      in_a[d] = devs[d]->create_texture(w, h, TextureFormat::RGBA32F, mode_a);
      in_b[d] = devs[d]->create_texture(w, h, TextureFormat::R32F, mode_b);
      out[d] = devs[d]->create_texture(w, h, TextureFormat::RGBA32F);
      if (mode_a == AddressMode::ClampToBorder) {
        devs[d]->texture(in_a[d]).set_border_color({0.25f, -1.f, 2.f, 0.f});
      }
      devs[d]->upload(in_a[d], data_a);
      devs[d]->upload(in_b[d], data_b);
    }

    const FragmentProgram p =
        random_program(rng, 20, 2, /*partial_masks=*/true);
    const float4 constants[4] = {{1, 2, 3, 4}, {0.5, -0.5, 0.5, -0.5},
                                 {-1, 0, 1, 2}, {4, 3, 2, 1}};
    for (int repeat = 0; repeat < 2; ++repeat) {  // second draw hits the cache
      PassStats stats[2];
      for (int d = 0; d < 2; ++d) {
        const TextureHandle ins[2] = {in_a[d], in_b[d]};
        const TextureHandle outs[1] = {out[d]};
        stats[d] = devs[d]->draw(p, ins, constants, outs);
      }
      expect_identical_stats(stats[0], stats[1]);
      expect_identical_texels(pair.interp, out[0], pair.soa, out[1]);
    }
    EXPECT_GE(pair.soa.program_cache().hits(), 1u);
  }
}

TEST_P(ProgramFuzz, EnginesBitIdenticalOnGeometryPasses) {
  util::Xoshiro256 rng(GetParam() ^ 0x6E0ULL);
  for (int trial = 0; trial < 6; ++trial) {
    const int pipes = 1 + static_cast<int>(rng.uniform_int(4));
    EnginePair pair(pipes);
    const int w = 17, h = 11;

    std::vector<float4> data(static_cast<std::size_t>(w) * h);
    for (auto& v : data) {
      v = {static_cast<float>(rng.uniform(-4, 4)),
           static_cast<float>(rng.uniform(-4, 4)),
           static_cast<float>(rng.uniform(-4, 4)),
           static_cast<float>(rng.uniform(-4, 4))};
    }

    TextureHandle in[2], out[2];
    Device* devs[2] = {&pair.interp, &pair.soa};
    for (int d = 0; d < 2; ++d) {
      in[d] = devs[d]->create_texture(w, h, TextureFormat::RGBA32F,
                                      AddressMode::Repeat);
      out[d] = devs[d]->create_texture(w, h, TextureFormat::RGBA32F);
      devs[d]->upload(in[d], data);
    }

    // More fragments than one 256-lane tile (split unevenly across the
    // pipes), so multi-tile slices and partial final tiles are covered.
    std::vector<Device::GeomFragment> frags(37 + 300 * (trial % 3));
    for (auto& f : frags) {
      f.x = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(w)));
      f.y = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(h)));
      f.texcoord0 = {static_cast<float>(rng.uniform(-2, w + 2)),
                     static_cast<float>(rng.uniform(-2, h + 2)), 0.f, 1.f};
      f.texcoord1 = {static_cast<float>(rng.uniform(0, 1)),
                     static_cast<float>(rng.uniform(0, 1)), 0.f, 0.f};
    }

    const FragmentProgram p =
        random_program(rng, 16, 1, /*partial_masks=*/true);
    const float4 constants[4] = {{1, 2, 3, 4}, {0.5, -0.5, 0.5, -0.5},
                                 {-1, 0, 1, 2}, {4, 3, 2, 1}};
    PassStats stats[2];
    for (int d = 0; d < 2; ++d) {
      const TextureHandle ins[1] = {in[d]};
      const TextureHandle outs[1] = {out[d]};
      stats[d] = devs[d]->draw_fragments(p, frags, ins, constants, outs);
    }
    expect_identical_stats(stats[0], stats[1]);
    expect_identical_texels(pair.interp, out[0], pair.soa, out[1]);
  }
}

// Static fetch plans resolve `floor((x + 0.5) + dx)` in integers as
// x + dx, which the interpreter's float texcoords match only while
// viewport plus offset stays below the exactness bound; a wider pass runs
// in the SoA engine's generic mode (every instruction live, every fetch
// resolved per lane). Past 2^23 the float spacing is 1, so x + 0.5f
// rounds (to even) and a static plan would fetch a different texel than
// the interpreter for every odd x: the width below makes a pass that
// wrongly took the static path fail this test. A (2^23 + 37) x 1 R32F
// neighbour-sampling pass with static offsets -- the paper's idiom, with
// a partial final tile -- must match the interpreter bit for bit.
TEST(ProgramFuzzBound, StaticOffsetsPastFloatExactnessBound) {
  constexpr int kW = (1 << 23) + 37;
  static_assert(static_cast<float>(kW - 2) + 0.5f != kW - 1.5,
                "the width must reach where texcoords stop being exact");
  const FragmentProgram p = assemble_or_die("neighbours",
                                            "!!HSFP1.0\n"
                                            "ADD R0, fragment.texcoord[0], c[0];\n"
                                            "TEX R1, R0, texture[0];\n"
                                            "ADD R2, fragment.texcoord[0], c[1];\n"
                                            "TEX R3, R2, texture[0];\n"
                                            "TEX R4, fragment.texcoord[0], texture[0];\n"
                                            "SUB R5, R1, R3;\n"
                                            "MAD result.color, R5, R4, c[2];\n"
                                            "END\n");
  const float4 constants[3] = {{3, 0, 0, 0}, {-2, 0, 0, 0}, {0.25f, 0, 0, 0}};
  std::vector<float> data(static_cast<std::size_t>(kW));
  util::Xoshiro256 rng(0xB0DULL);
  for (auto& v : data) v = static_cast<float>(rng.uniform(-4, 4));

  for (const AddressMode mode : {AddressMode::ClampToEdge, AddressMode::Repeat}) {
    SCOPED_TRACE(static_cast<int>(mode));
    EnginePair pair(2);
    TextureHandle in[2], out[2];
    Device* devs[2] = {&pair.interp, &pair.soa};
    PassStats stats[2];
    for (int d = 0; d < 2; ++d) {
      in[d] = devs[d]->create_texture(kW, 1, TextureFormat::R32F, mode);
      out[d] = devs[d]->create_texture(kW, 1, TextureFormat::R32F);
      devs[d]->upload(in[d], data);
      const TextureHandle ins[1] = {in[d]};
      const TextureHandle outs[1] = {out[d]};
      stats[d] = devs[d]->draw(p, ins, constants, outs);
    }
    EXPECT_EQ(stats[0].fragments, static_cast<std::uint64_t>(kW));
    EXPECT_GT(stats[0].cache.accesses, 0u);
    EXPECT_GT(stats[0].unique_tile_bytes, 0u);
    expect_identical_stats(stats[0], stats[1]);
    expect_identical_texels(pair.interp, out[0], pair.soa, out[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace hs::gpusim
