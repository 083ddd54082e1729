// Intermediate representation of fragment programs.
//
// The simulated GPU executes an ARB_fragment_program-style register ISA:
// float4 registers, per-source swizzles and negation, per-destination write
// masks, and a small fixed opcode set matching what NV30-class hardware
// (the paper's Cg fp30 profile) retired natively. Programs are produced by
// the assembler (assembler.hpp) from textual source, validated statically
// (validate()), and run per-fragment by the interpreter (interpreter.hpp).
//
// Architectural constraints the IR enforces by construction -- the same
// ones the paper's stream model leans on:
//   * no scatter: a fragment writes only its own output location;
//   * no cross-fragment communication or persistent state;
//   * gather only through texture fetches (TEX), including dependent reads
//     whose coordinates come from computed registers.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/float4.hpp"

namespace hs::gpusim {

inline constexpr int kMaxTemps = 32;
inline constexpr int kMaxConstants = 64;
inline constexpr int kMaxTexCoords = 8;
inline constexpr int kMaxTexUnits = 16;
inline constexpr int kMaxOutputs = 4;  ///< MRT count (result.color[0..3])
inline constexpr int kMaxInstructions = 1024;

enum class Opcode : std::uint8_t {
  // 1-source vector ops
  MOV, ABS, FLR, FRC,
  // 1-source scalar ops (consume lane .x of the swizzled source, broadcast)
  RCP, RSQ, LG2, EX2,
  // 2-source vector ops
  ADD, SUB, MUL, MIN, MAX, SLT, SGE,
  // 2-source dot products (scalar result broadcast)
  DP3, DP4,
  // 3-source ops
  MAD,  ///< dst = src0 * src1 + src2
  CMP,  ///< dst = (src0 < 0) ? src1 : src2, per component
  LRP,  ///< dst = src0 * src1 + (1 - src0) * src2
  // texture fetch: dst, coord source, texture unit
  TEX,
};

/// Number of register sources the opcode consumes (TEX counts its
/// coordinate register as one source).
int opcode_arity(Opcode op);
/// True for RCP/RSQ/LG2/EX2: the source is read as a scalar.
bool opcode_is_scalar(Opcode op);
const char* opcode_name(Opcode op);

enum class RegFile : std::uint8_t {
  Temp,      ///< R0..R31, per-fragment scratch
  Const,     ///< c[0..63], pass-uniform parameters
  TexCoord,  ///< fragment.texcoord[0..7], interpolated per fragment
  Output,    ///< result.color[0..3]
  Literal,   ///< inline immediate
};

/// Component selection: swizzle[i] in {0,1,2,3} names the source lane that
/// feeds destination lane i. The identity swizzle is {0,1,2,3}.
struct Swizzle {
  std::array<std::uint8_t, 4> comp{0, 1, 2, 3};
  bool is_identity() const { return comp == std::array<std::uint8_t, 4>{0, 1, 2, 3}; }
};

struct SrcOperand {
  RegFile file = RegFile::Temp;
  std::uint8_t index = 0;
  Swizzle swizzle;
  bool negate = false;
  float4 literal{};  ///< value when file == Literal
};

struct DstOperand {
  RegFile file = RegFile::Temp;
  std::uint8_t index = 0;
  std::uint8_t write_mask = 0xF;  ///< bit i set => component i written
};

struct Instruction {
  Opcode op = Opcode::MOV;
  DstOperand dst;
  std::array<SrcOperand, 3> src{};
  std::uint8_t src_count = 0;
  std::uint8_t tex_unit = 0;  ///< for TEX
};

struct FragmentProgram {
  std::string name;
  std::vector<Instruction> code;

  /// Static instruction mix, used by the timing model.
  int alu_instruction_count() const;
  int tex_instruction_count() const;
  /// Highest-numbered texture unit referenced, or -1 if none.
  int max_tex_unit() const;
  /// Highest texcoord attribute read, or -1.
  int max_texcoord() const;
  /// Highest constant index read, or -1.
  int max_constant() const;
  /// Highest output index written, or -1.
  int max_output() const;
};

/// Which lanes of the source *register* (pre-swizzle) an instruction
/// actually consumes, given the destination write mask:
///   * scalar ops read lane swizzle[0];
///   * TEX reads lanes swizzle[0..1] (the s/t coordinates);
///   * DP3/DP4 read lanes swizzle[0..2] / swizzle[0..3];
///   * component-wise ops read swizzle[i] for every write-enabled lane i
///     (ARB semantics: unmasked lanes are never evaluated).
/// Shared by the validator (initialized-before-read checking) and the
/// compile_program() front end's dead-write elimination so both agree
/// exactly.
std::uint8_t consumed_source_lanes(Opcode op, const Swizzle& swizzle,
                                   std::uint8_t dst_write_mask);

/// Static validation. Returns a list of human-readable problems; an empty
/// list means the program is well-formed. Checks: register indices within
/// limits, nonzero write masks, at least one output written, no read of a
/// temp component that no prior instruction wrote, program size limits.
std::vector<std::string> validate(const FragmentProgram& program);

}  // namespace hs::gpusim
