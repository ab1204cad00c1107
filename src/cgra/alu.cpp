#include "cgra/alu.hpp"

#include <array>
#include <utility>

#include "common/status.hpp"

namespace vwr2a::cgra {

namespace {

template <std::size_t... I>
constexpr auto alu_table(std::index_sequence<I...>) {
  return std::array<Word (*)(Word, Word), sizeof...(I)>{
      &alu_op<static_cast<isa::RcOp>(I)>...};
}

std::int16_t lane(Word w, unsigned i) {
  return static_cast<std::int16_t>((w >> (16 * i)) & 0xFFFFu);
}

Word pack(std::int16_t lo, std::int16_t hi) {
  return (static_cast<Word>(static_cast<std::uint16_t>(hi)) << 16) |
         static_cast<std::uint16_t>(lo);
}

} // namespace

Word alu_eval(isa::RcOp op, Word a, Word b) {
  static constexpr auto kOps = alu_table(
      std::make_index_sequence<static_cast<std::size_t>(isa::RcOp::kCount)>{});
  const auto i = static_cast<std::size_t>(op);
  if (i >= kOps.size()) throw DecodeError("alu_eval: bad RC opcode");
  return kOps[i](a, b);
}

energy::Event alu_energy_event(isa::RcOp op) {
  using isa::RcOp;
  switch (op) {
    case RcOp::kSmul:
      return energy::Event::kAluMul;
    case RcOp::kFxpMul:
      return energy::Event::kAluFxpMul;
    default:
      return energy::Event::kAluOp;
  }
}

Word alu_eval_simd16(isa::RcOp op, Word a, Word b) {
  using isa::RcOp;
  switch (op) {
    case RcOp::kSadd:
    case RcOp::kSsub:
    case RcOp::kMax:
    case RcOp::kMin: {
      std::int16_t lo, hi;
      auto ev = [op](std::int16_t x, std::int16_t y) -> std::int16_t {
        switch (op) {
          case RcOp::kSadd: return static_cast<std::int16_t>(x + y);
          case RcOp::kSsub: return static_cast<std::int16_t>(x - y);
          case RcOp::kMax: return x >= y ? x : y;
          default: return x <= y ? x : y;
        }
      };
      lo = ev(lane(a, 0), lane(b, 0));
      hi = ev(lane(a, 1), lane(b, 1));
      return pack(lo, hi);
    }
    case RcOp::kSmul:
    case RcOp::kFxpMul: {
      // Two q15 x q15 -> q15 products (truncating), one per lane.
      const std::int32_t p0 = static_cast<std::int32_t>(lane(a, 0)) * lane(b, 0);
      const std::int32_t p1 = static_cast<std::int32_t>(lane(a, 1)) * lane(b, 1);
      return pack(static_cast<std::int16_t>(p0 >> 15),
                  static_cast<std::int16_t>(p1 >> 15));
    }
    default:
      return alu_eval(op, a, b);
  }
}

} // namespace vwr2a::cgra
