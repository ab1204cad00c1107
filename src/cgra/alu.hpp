#pragma once
// The RC ALU (paper Sec 3.1): 32-bit signed add/sub/multiply, bitwise logic,
// logical/arithmetic shifts, all single cycle. The multiplier has a standard
// mode (low 32 bits) and a fixed-point mode: the lower 16 bits of the 64-bit
// product are discarded and the next 32 bits kept, giving single-cycle 16.15
// fixed-point multiplication.
//
// Pure functions: the Rc unit model wraps them with operand routing, energy
// accounting and operand isolation (idle operators do not toggle).

#include <cstdint>
#include <limits>

#include "common/types.hpp"
#include "energy/events.hpp"
#include "isa/opcodes.hpp"

namespace vwr2a::cgra {

/// One RC ALU operation with the opcode fixed at compile time: the single
/// definition of the ALU semantics. alu_eval() dispatches to it, and the
/// trace replay's quad handlers inline it into their lane loops.
template <isa::RcOp Op>
constexpr Word alu_op(Word a, Word b) {
  using isa::RcOp;
  [[maybe_unused]] const SWord sa = static_cast<SWord>(a);
  [[maybe_unused]] const SWord sb = static_cast<SWord>(b);
  if constexpr (Op == RcOp::kSadd) {
    return static_cast<Word>(static_cast<SWord>(
        static_cast<std::int64_t>(sa) + static_cast<std::int64_t>(sb)));
  } else if constexpr (Op == RcOp::kSsub) {
    return static_cast<Word>(static_cast<SWord>(
        static_cast<std::int64_t>(sa) - static_cast<std::int64_t>(sb)));
  } else if constexpr (Op == RcOp::kSmul) {
    return static_cast<Word>(static_cast<SWord>(
        (static_cast<std::int64_t>(sa) * static_cast<std::int64_t>(sb)) &
        0xFFFFFFFFll));
  } else if constexpr (Op == RcOp::kFxpMul) {
    // Fixed-point mode: drop the low 16 bits of the 64-bit product, keep
    // the next 32 (paper Sec 3.1).
    return static_cast<Word>(static_cast<SWord>(
        (static_cast<std::int64_t>(sa) * static_cast<std::int64_t>(sb)) >> 16));
  } else if constexpr (Op == RcOp::kSll) {
    return a << (b & 31u);
  } else if constexpr (Op == RcOp::kSrl) {
    return a >> (b & 31u);
  } else if constexpr (Op == RcOp::kSra) {
    return static_cast<Word>(sa >> (b & 31u));
  } else if constexpr (Op == RcOp::kLand) {
    return a & b;
  } else if constexpr (Op == RcOp::kLor) {
    return a | b;
  } else if constexpr (Op == RcOp::kLxor) {
    return a ^ b;
  } else if constexpr (Op == RcOp::kLnot) {
    return ~a;
  } else if constexpr (Op == RcOp::kMv) {
    return a;
  } else if constexpr (Op == RcOp::kCmpEq) {
    return a == b ? 1u : 0u;
  } else if constexpr (Op == RcOp::kCmpLt) {
    return sa < sb ? 1u : 0u;
  } else if constexpr (Op == RcOp::kCmpLe) {
    return sa <= sb ? 1u : 0u;
  } else if constexpr (Op == RcOp::kMax) {
    return sa >= sb ? a : b;
  } else if constexpr (Op == RcOp::kMin) {
    return sa <= sb ? a : b;
  } else if constexpr (Op == RcOp::kAbs) {
    if (sa == std::numeric_limits<SWord>::min()) {
      return static_cast<Word>(std::numeric_limits<SWord>::max());
    }
    return static_cast<Word>(sa < 0 ? -sa : sa);
  } else {
    static_assert(Op == RcOp::kNop, "alu_op: unhandled RC opcode");
    return 0;
  }
}

/// Evaluates one RC ALU operation on two 32-bit words.
Word alu_eval(isa::RcOp op, Word a, Word b);

/// The energy event class of an RC operation (operand isolation: kNop maps
/// to no event; callers skip accounting for it).
energy::Event alu_energy_event(isa::RcOp op);

/// True if the operation ignores its second operand (unary).
constexpr bool alu_is_unary(isa::RcOp op) {
  return op == isa::RcOp::kLnot || op == isa::RcOp::kMv ||
         op == isa::RcOp::kAbs;
}

/// Dual 16-bit SIMD evaluation used by the ablation study (paper Sec 5.1.1
/// suggests "a 16-bit mode with two simultaneous 16-bit operations" as a
/// datapath optimization). Packs two q15 lanes per word. Only defined for
/// add/sub/mul-like ops; others fall back to 32-bit semantics.
Word alu_eval_simd16(isa::RcOp op, Word a, Word b);

} // namespace vwr2a::cgra
