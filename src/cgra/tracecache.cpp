#include "cgra/tracecache.hpp"

#include <algorithm>
#include <optional>

#include "cgra/alu.hpp"
#include "common/status.hpp"

namespace vwr2a::cgra {

namespace {

using energy::Event;
using isa::LcuOp;
using isa::LsuAddrMode;
using isa::LsuOp;
using isa::MxcuOp;
using isa::RcDst;
using isa::RcOp;
using isa::RcSrc;

/// One column program's worth of decoded instructions.
struct DecodedLine {
  isa::LcuInstr lcu;
  isa::LsuInstr lsu;
  isa::MxcuInstr mxcu;
  std::array<isa::RcInstr, arch::kRcsPerColumn> rc;
};

bool is_lcu_control(LcuOp op) {
  switch (op) {
    case LcuOp::kB:
    case LcuOp::kBeq:
    case LcuOp::kBne:
    case LcuOp::kBlt:
    case LcuOp::kBge:
    case LcuOp::kBeqI:
    case LcuOp::kBneI:
    case LcuOp::kBltI:
    case LcuOp::kBgeI:
    case LcuOp::kBsrfZ:
    case LcuOp::kBsrfNz:
    case LcuOp::kDbnz:
    case LcuOp::kExit:
      return true;
    default:
      return false;
  }
}

/// True when the LSU op computes a memory address (and may read the SRF in
/// kSrfImm mode).
bool lsu_uses_address(LsuOp op) {
  switch (op) {
    case LsuOp::kLdVwr:
    case LsuOp::kStVwr:
    case LsuOp::kLdSrf:
    case LsuOp::kStSrf:
      return true;
    default:
      return false;
  }
}

/// Statically replays the SRF port-claim sequence of one line exactly as
/// the interpreter performs it. Returns false when the single-ported SRF
/// would raise a StructuralHazard (the program then stays interpreted).
bool srf_schedule_legal(const DecodedLine& L) {
  std::optional<unsigned> addr;
  bool was_write = false;
  auto claim = [&](unsigned idx, bool is_write) -> bool {
    if (!addr.has_value()) {
      addr = idx;
      was_write = is_write;
      return true;
    }
    return *addr == idx && !was_write && !is_write;
  };
  // Evaluate phase, interpreter order: LCU, LSU, MXCU, RCs.
  switch (L.lcu.op) {
    case LcuOp::kMvSrf:
    case LcuOp::kBsrfZ:
    case LcuOp::kBsrfNz:
      if (!claim(L.lcu.srf, false)) return false;
      break;
    default:
      break;
  }
  if (lsu_uses_address(L.lsu.op) && L.lsu.amode == LsuAddrMode::kSrfImm) {
    if (!claim(L.lsu.srf_base, false)) return false;
  }
  if (L.lsu.op == LsuOp::kStSrf) {
    if (!claim(L.lsu.srf_data, false)) return false;
  }
  if (L.lsu.op == LsuOp::kSetPtr) {
    if (!claim(L.lsu.srf_base, false)) return false;
  }
  switch (L.mxcu.op) {
    case MxcuOp::kSetIdxSrf:
    case MxcuOp::kAddIdxSrf:
    case MxcuOp::kAndIdxSrf:
      if (!claim(L.mxcu.srf, false)) return false;
      break;
    default:
      break;
  }
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    const isa::RcInstr& I = L.rc[r];
    if (I.op == RcOp::kNop) continue;
    if (I.src_a == RcSrc::kSrf && !claim(I.srf, false)) return false;
    if (!alu_is_unary(I.op) && I.src_b == RcSrc::kSrf && !claim(I.srf, false)) {
      return false;
    }
  }
  // Commit phase, interpreter order: RC dsts, LSU, MXCU, LCU.
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    const isa::RcInstr& I = L.rc[r];
    if (I.op == RcOp::kNop) continue;
    if (I.dst == RcDst::kSrf && !claim(I.srf, true)) return false;
  }
  if (L.lsu.op == LsuOp::kLdSrf && !claim(L.lsu.srf_data, true)) return false;
  if (L.mxcu.op == MxcuOp::kStIdxSrf && !claim(L.mxcu.srf, true)) return false;
  if (L.lcu.op == LcuOp::kStSrf && !claim(L.lcu.srf, true)) return false;
  return true;
}

/// Static VWR write-port check: an LSU whole-row write (load or shuffle
/// result) colliding with any RC word write into the same VWR is the
/// hazard the Vwr port model raises at runtime.
bool vwr_schedule_legal(const DecodedLine& L) {
  int row_write_vwr = -1;
  if (L.lsu.op == LsuOp::kLdVwr) {
    row_write_vwr = static_cast<int>(L.lsu.vwr);
  } else if (L.lsu.op == LsuOp::kShuf) {
    row_write_vwr = static_cast<int>(VwrSel::C);
  }
  if (row_write_vwr < 0) return true;
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    const isa::RcInstr& I = L.rc[r];
    if (I.op == RcOp::kNop) continue;
    const int d = static_cast<int>(I.dst) - static_cast<int>(RcDst::kVwrA);
    if (d >= 0 && d < 3 && d == row_write_vwr) return false;
  }
  return true;
}

/// Appends the energy events one execution of this line raises -- an exact
/// static mirror of the adds Column::step() performs.
void add_line_energy(const DecodedLine& L,
                     std::array<std::uint64_t, static_cast<unsigned>(
                                                   Event::kCount)>& counts) {
  auto add = [&counts](Event e, std::uint64_t n = 1) {
    counts[static_cast<unsigned>(e)] += n;
  };
  add(Event::kInstrFetchRc, arch::kRcsPerColumn);
  add(Event::kInstrFetchCtrl, 3);
  add(Event::kPcUpdate);
  // LCU.
  switch (L.lcu.op) {
    case LcuOp::kMvSrf:
    case LcuOp::kBsrfZ:
    case LcuOp::kBsrfNz:
      add(Event::kSrfRead);
      break;
    case LcuOp::kStSrf:
      add(Event::kSrfWrite);
      break;
    default:
      break;
  }
  // LSU.
  if (lsu_uses_address(L.lsu.op) && L.lsu.amode == LsuAddrMode::kSrfImm) {
    add(Event::kSrfRead);
  }
  switch (L.lsu.op) {
    case LsuOp::kLdVwr:
      add(Event::kSpmRowRead);
      add(Event::kVwrRowWrite);
      break;
    case LsuOp::kStVwr:
      add(Event::kSpmRowWrite);
      break;
    case LsuOp::kLdSrf:
      add(Event::kSpmRowRead);
      add(Event::kSrfWrite);
      break;
    case LsuOp::kStSrf:
      add(Event::kSrfRead);
      add(Event::kSpmRowWrite);
      break;
    case LsuOp::kShuf:
      add(Event::kShuffleOp);
      add(Event::kVwrRowWrite);
      break;
    case LsuOp::kSetPtr:
      add(Event::kSrfRead);
      break;
    default:
      break;
  }
  // MXCU.
  switch (L.mxcu.op) {
    case MxcuOp::kSetIdxSrf:
    case MxcuOp::kAddIdxSrf:
    case MxcuOp::kAndIdxSrf:
      add(Event::kSrfRead);
      break;
    case MxcuOp::kStIdxSrf:
      add(Event::kSrfWrite);
      break;
    default:
      break;
  }
  // RCs.
  auto src_energy = [&add](RcSrc s) {
    switch (s) {
      case RcSrc::kR0:
      case RcSrc::kR1:
        add(Event::kRcRfRead);
        break;
      case RcSrc::kVwrA:
      case RcSrc::kVwrB:
      case RcSrc::kVwrC:
        add(Event::kVwrWordRead);
        break;
      case RcSrc::kSrf:
        add(Event::kSrfRead);
        break;
      default:
        break;
    }
  };
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    const isa::RcInstr& I = L.rc[r];
    if (I.op == RcOp::kNop) continue;
    src_energy(I.src_a);
    if (!alu_is_unary(I.op)) src_energy(I.src_b);
    add(alu_energy_event(I.op));
    switch (I.dst) {
      case RcDst::kR0:
      case RcDst::kR1:
        add(Event::kRcRfWrite);
        break;
      case RcDst::kVwrA:
      case RcDst::kVwrB:
      case RcDst::kVwrC:
        add(Event::kVwrWordWrite);
        break;
      case RcDst::kSrf:
        add(Event::kSrfWrite);
        break;
      default:
        break;
    }
  }
}

/// Resolves one RC source. kRcCross resolves to the partner-snapshot slot:
/// it replays in the lockstep pass (Column::set_cross) and faults like the
/// interpreter anywhere else.
bool resolve_src(RcSrc s, const isa::RcInstr& I, unsigned r, tc::Src& out) {
  using K = tc::Src::K;
  switch (s) {
    case RcSrc::kZero:
      out = {K::kImm, 0, 0, 0, 0, 0};
      return true;
    case RcSrc::kOne:
      out = {K::kImm, 0, 0, 0, 0, 1};
      return true;
    case RcSrc::kR0:
    case RcSrc::kR1:
      out.k = K::kRf;
      out.rc = static_cast<std::uint8_t>(r);
      out.idx = s == RcSrc::kR0 ? 0 : 1;
      return true;
    case RcSrc::kVwrA:
    case RcSrc::kVwrB:
    case RcSrc::kVwrC:
      out.k = K::kVwr;
      out.vwr = static_cast<std::uint8_t>(static_cast<unsigned>(s) -
                                          static_cast<unsigned>(RcSrc::kVwrA));
      out.base = static_cast<std::uint16_t>(r * arch::kSliceWords);
      return true;
    case RcSrc::kSrf:
      out.k = K::kSrf;
      out.idx = I.srf;
      return true;
    case RcSrc::kRcUp:
      out.k = K::kPrev;
      out.rc = static_cast<std::uint8_t>(
          (r + arch::kRcsPerColumn - 1) % arch::kRcsPerColumn);
      return true;
    case RcSrc::kRcDown:
      out.k = K::kPrev;
      out.rc = static_cast<std::uint8_t>((r + 1) % arch::kRcsPerColumn);
      return true;
    case RcSrc::kImm:
      out = {K::kImm, 0, 0, 0, 0,
             static_cast<Word>(static_cast<SWord>(I.imm))};
      return true;
    case RcSrc::kRcCross:
      out.k = K::kCross;
      out.rc = static_cast<std::uint8_t>(r);  // same lane, partner column
      return true;
    default:
      return false;
  }
}

bool resolve_rc(const isa::RcInstr& I, unsigned r, tc::RcUop& u) {
  u.op = I.op;
  u.unary = alu_is_unary(I.op);
  if (!resolve_src(I.src_a, I, r, u.a)) return false;
  if (!u.unary && !resolve_src(I.src_b, I, r, u.b)) return false;
  switch (I.dst) {
    case RcDst::kNone:
      u.d = tc::Dst::kNone;
      break;
    case RcDst::kR0:
    case RcDst::kR1:
      u.d = tc::Dst::kRf;
      u.idx = I.dst == RcDst::kR0 ? 0 : 1;
      break;
    case RcDst::kVwrA:
    case RcDst::kVwrB:
    case RcDst::kVwrC:
      u.d = tc::Dst::kVwr;
      u.vwr = static_cast<std::uint8_t>(static_cast<unsigned>(I.dst) -
                                        static_cast<unsigned>(RcDst::kVwrA));
      u.base = static_cast<std::uint16_t>(r * arch::kSliceWords);
      break;
    case RcDst::kSrf:
      u.d = tc::Dst::kSrf;
      u.idx = I.srf;
      break;
    default:
      return false;
  }
  return true;
}

/// Accumulates the statically-addressed SPM rows one execution of a line
/// with LSU op `I` touches (kImm address mode only). Dynamic modes
/// (SRF/pointer) contribute nothing: those accesses stay on the free tier
/// and the runtime masks validate them post hoc. Statically out-of-range
/// rows contribute nothing either -- replay faults there before the access
/// lands, and the launch reruns on the interpreter.
void add_static_spm(const isa::LsuInstr& I, std::uint64_t& sread,
                    std::uint64_t& swrite) {
  if (I.amode != LsuAddrMode::kImm) return;
  const auto addr = static_cast<unsigned>(I.imm);
  unsigned row = 0;
  bool is_write = false;
  switch (I.op) {
    case LsuOp::kLdVwr:
      row = addr;
      break;
    case LsuOp::kStVwr:
      row = addr;
      is_write = true;
      break;
    case LsuOp::kLdSrf:
      row = addr / arch::kVwrWords;
      break;
    case LsuOp::kStSrf:
      row = addr / arch::kVwrWords;
      is_write = true;
      break;
    default:
      return;
  }
  if (row >= arch::kSpmRows) return;
  (is_write ? swrite : sread) |= 1ull << row;
}

/// True when any active RC of the line reads the partner column.
bool line_has_cross(const tc::Line& line) {
  using K = tc::Src::K;
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    if (((line.rc_mask >> r) & 1u) == 0) continue;
    const tc::RcUop& u = line.rc[r];
    if (u.a.k == K::kCross || (!u.unary && u.b.k == K::kCross)) return true;
  }
  return false;
}

/// Lane-uniform shape test: all four RCs run the same op with the same
/// source/destination kinds and shared indices, differing only in their
/// slice. The rc_all() idiom every kernel's inner loop uses.
bool quad_shape(const tc::Line& line) {
  if (line.rc_mask != 0xF) return false;
  const tc::RcUop& a = line.rc[0];
  using K = tc::Src::K;
  auto lane_ok = [](const tc::Src& s) {
    return s.k != K::kPrev && s.k != K::kCross;  // lane-crossing sources
  };
  if (!lane_ok(a.a) || (!a.unary && !lane_ok(a.b))) return false;
  for (unsigned r = 1; r < arch::kRcsPerColumn; ++r) {
    const tc::RcUop& u = line.rc[r];
    if (u.op != a.op || u.d != a.d) return false;
    auto same_src = [](const tc::Src& x, const tc::Src& y) {
      if (x.k != y.k) return false;
      switch (x.k) {
        case K::kImm:
          return x.imm == y.imm;
        case K::kRf:
          return x.idx == y.idx;  // same rf entry, lane-relative rc
        case K::kVwr:
          return x.vwr == y.vwr;  // same VWR, lane-relative slice base
        case K::kSrf:
          return x.idx == y.idx;
        default:
          return false;
      }
    };
    if (!same_src(u.a, a.a)) return false;
    if (!a.unary && !same_src(u.b, a.b)) return false;
    switch (a.d) {
      case tc::Dst::kNone:
        break;
      case tc::Dst::kRf:
        if (u.idx != a.idx) return false;
        break;
      case tc::Dst::kVwr:
        if (u.vwr != a.vwr) return false;
        break;
      case tc::Dst::kSrf:
        return false;  // four SRF writes would be a hazard anyway
    }
  }
  return true;
}

/// The quad handler key of a line, or -1 when the line is not quad or its
/// rc[0] shape lies outside the handler space (lane-crossing operands, SRF
/// destination, arity flag disagreeing with the opcode).
int quad_key_of(const tc::Line& line) {
  if (!quad_shape(line)) return -1;
  const tc::RcUop& q = line.rc[0];
  if (q.unary != alu_is_unary(q.op)) return -1;
  const auto op = static_cast<unsigned>(q.op);
  const auto a = static_cast<unsigned>(q.a.k);
  const unsigned b = q.unary ? tc::kQuadUnary : static_cast<unsigned>(q.b.k);
  const auto d = static_cast<unsigned>(q.d);
  if (!tc::quad_key_valid(op, a, b, d)) return -1;
  return static_cast<int>(tc::quad_key(op, a, b, d));
}

/// Compiles line `pc` into its slot ops, appended to `out`. Each op runs
/// to completion, so the order must put every read of a location before
/// any write to it within the line. Only the RC and LSU slots can interact
/// (the SRF never does: the port check already refused any line that both
/// reads and writes it):
///   * the MXCU index moves after every RC access at the old index, so MXCU
///     goes after the RCs; the LCU registers are private, so LCU goes last;
///   * a row load writes a VWR the RCs may read (never write: VWR port
///     hazard), so it goes after them; a row store reads a VWR they may
///     write, so it goes before; scalar transfers and pointer setup touch
///     nothing the RCs do and go first;
///   * a shuffle reads A and B and writes C. It goes after RCs that read C,
///     before RCs that write A or B -- and when the RCs do both, that is the
///     one real intra-line hazard: the shuffle is staged into a scratch row
///     before the RCs run and committed to C after them.
void compile_ops(const DecodedLine& L, tc::Line& line, unsigned pc,
                 std::vector<tc::SlotOp>& out) {
  line.op = static_cast<std::uint16_t>(out.size());
  auto emit = [&](unsigned id) -> tc::SlotOp& {
    tc::SlotOp& o = out.emplace_back();
    o.id = static_cast<std::uint16_t>(id);
    o.pc = static_cast<std::uint16_t>(pc);
    ++line.nops;
    return o;
  };
  const int key = quad_key_of(line);
  unsigned rc_reads = 0, rc_writes = 0;  // VWR select bit masks
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    if (((line.rc_mask >> r) & 1u) == 0) continue;
    const tc::RcUop& u = line.rc[r];
    if (u.a.k == tc::Src::K::kVwr) rc_reads |= 1u << u.a.vwr;
    if (!u.unary && u.b.k == tc::Src::K::kVwr) rc_reads |= 1u << u.b.vwr;
    if (u.d == tc::Dst::kVwr) rc_writes |= 1u << u.vwr;
  }
  const isa::LsuInstr& u = L.lsu;
  const bool has_lsu = u.op != LsuOp::kNop;
  unsigned lsu = 0;
  bool lsu_first = false, staged = false;
  if (has_lsu) {
    switch (u.op) {
      case LsuOp::kLdVwr:
      case LsuOp::kStVwr:
      case LsuOp::kLdSrf:
      case LsuOp::kStSrf:
        lsu = tc::kOpLsu + tc::lsu_op_id(u.op, u.amode);
        lsu_first = u.op != LsuOp::kLdVwr;
        break;
      case LsuOp::kShuf: {
        const bool writes_ab = (rc_writes & 3u) != 0;
        staged = writes_ab && (rc_reads & 4u) != 0;
        lsu = tc::kOpShuf + static_cast<unsigned>(u.mode);
        lsu_first = writes_ab;
        break;
      }
      default:  // kSetPtr
        lsu = tc::kOpSetPtr;
        lsu_first = true;
        break;
    }
  }
  auto emit_lsu = [&](unsigned id) {
    tc::SlotOp& o = emit(id);
    o.a = static_cast<std::uint8_t>(u.vwr);
    o.av = u.srf_base;
    o.bv = u.srf_data;
    o.dv = static_cast<unsigned>(u.vwr) & 1u;
    o.imm = u.imm;
    if (u.op == LsuOp::kShuf) {
      o.a = 0;
      o.b = 1;
      o.d = static_cast<std::uint8_t>(VwrSel::C);
    }
  };

  if (staged) {
    emit_lsu(tc::kOpShufStage + static_cast<unsigned>(u.mode));
  } else if (has_lsu && lsu_first) {
    emit_lsu(lsu);
  }
  if (key >= 0) {
    const tc::RcUop& q = line.rc[0];
    tc::SlotOp& o = emit(static_cast<unsigned>(key));
    auto src = [](const tc::Src& s, std::uint8_t& vwr, Word& v) {
      vwr = s.vwr;
      v = s.k == tc::Src::K::kImm ? s.imm : s.idx;
    };
    src(q.a, o.a, o.av);
    if (!q.unary) src(q.b, o.b, o.bv);
    o.d = q.vwr;
    o.dv = q.idx;
    // A quad op carries the add_idx step itself.
    if (L.mxcu.op == MxcuOp::kAddIdx) o.imm = L.mxcu.imm;
  } else if (line.rc_mask != 0) {
    emit(tc::kOpLanes);
  }
  if (staged) {
    emit_lsu(tc::kOpShufCommit);
  } else if (has_lsu && !lsu_first) {
    emit_lsu(lsu);
  }
  if (L.mxcu.op != MxcuOp::kNop &&
      !(key >= 0 && L.mxcu.op == MxcuOp::kAddIdx)) {
    tc::SlotOp& o = emit(tc::kOpMxcu + static_cast<unsigned>(L.mxcu.op) - 1);
    o.av = L.mxcu.srf;
    o.imm = L.mxcu.imm;
  }
  if (L.lcu.op != LcuOp::kNop && !is_lcu_control(L.lcu.op)) {
    tc::SlotOp& o = emit(tc::kOpLcu + static_cast<unsigned>(L.lcu.op) -
                         static_cast<unsigned>(LcuOp::kSetI));
    o.av = L.lcu.ra;
    o.bv = L.lcu.srf;
    o.dv = L.lcu.rd;
    o.imm = L.lcu.imm;
  }
}

/// The MAC op fusing quad producer `p` with the quad accumulate `a` that
/// follows it, or -1: `p` has a kMacProducers shape and writes RF entry e,
/// and `a` is kSadd(RF x, RF e) into an RF entry or a VWR word.
int mac_id_of(const tc::SlotOp& p, const tc::SlotOp& a) {
  if (p.id >= tc::kQuadKeys || a.id >= tc::kQuadKeys) return -1;
  const tc::QuadCoords pk = tc::quad_coords(p.id);
  const tc::QuadCoords ak = tc::quad_coords(a.id);
  constexpr auto kRf = static_cast<unsigned>(tc::Src::K::kRf);
  constexpr auto kDstVwr = static_cast<unsigned>(tc::Dst::kVwr);
  if (ak.op != static_cast<unsigned>(RcOp::kSadd) || ak.a != kRf ||
      ak.b != kRf || ak.d == static_cast<unsigned>(tc::Dst::kNone) ||
      a.bv != p.dv) {
    return -1;
  }
  for (unsigned i = 0; i < tc::kMacProducers.size(); ++i) {
    const tc::QuadCoords& m = tc::kMacProducers[i];
    if (m.op == pk.op && m.a == pk.a && m.b == pk.b && m.d == pk.d) {
      return static_cast<int>(tc::kOpMac + 2 * i + (ak.d == kDstVwr ? 1 : 0));
    }
  }
  return -1;
}

/// True for an ld_srf that cannot fault: immediate address inside the SPM.
bool ld_srf_safe(const tc::SlotOp& s) {
  return s.id == tc::kOpLsu + tc::lsu_op_id(LsuOp::kLdSrf, LsuAddrMode::kImm) &&
         s.imm >= 0 && s.imm < static_cast<std::int32_t>(arch::kSpmWords);
}

/// Compiles one trip of a fused self-loop into `out`: the block's `n` ops,
/// with every producer -> accumulate pair (mac_id_of) fused into one MAC
/// op. The pair is adjacent, or straddles one ld_srf (FIR's tap rotation
/// on the accumulate line: [mul][ld_srf][add]). That ld_srf moves after
/// the MAC, which is exact: it reads an in-range SPM word and writes the
/// SRF, the producer has already read the SRF, and the accumulate touches
/// neither -- it reads RF entries and writes an RF entry or a VWR word.
void compile_body(const tc::SlotOp* ops, unsigned n,
                  std::vector<tc::SlotOp>& out) {
  for (unsigned k = 0; k < n;) {
    const unsigned gap = k + 2 < n && ld_srf_safe(ops[k + 1]) ? 1 : 0;
    const int id = k + 1 + gap < n ? mac_id_of(ops[k], ops[k + 1 + gap]) : -1;
    if (id < 0) {
      out.push_back(ops[k++]);
      continue;
    }
    const tc::SlotOp& acc = ops[k + 1 + gap];
    tc::SlotOp m = ops[k];  // the producer's operands and index step
    m.id = static_cast<std::uint16_t>(id);
    m.e = static_cast<std::uint8_t>(ops[k].dv);
    m.x = static_cast<std::uint8_t>(acc.av);
    m.d = acc.d;
    m.dv = acc.dv;
    m.acc_imm = acc.imm;
    out.push_back(m);
    if (gap != 0) out.push_back(ops[k + 1]);
    k += 2 + gap;
  }
}

} // namespace

std::shared_ptr<const CompiledTrace> compile_trace(
    const isa::ColumnProgram& prog) {
  auto trace = std::make_shared<CompiledTrace>();
  auto bail = [&trace](std::string why) {
    trace->ok = false;
    trace->bail_reason = std::move(why);
    trace->lines.clear();
    trace->ops.clear();
    trace->body_ops.clear();
    trace->blocks.clear();
    trace->block_of.clear();
    return std::shared_ptr<const CompiledTrace>(trace);
  };

  const unsigned len = prog.length();
  if (len == 0) return bail("empty program");

  // Decode every line (identically to Column::load_program).
  std::vector<DecodedLine> dec(len);
  try {
    for (unsigned pc = 0; pc < len; ++pc) {
      dec[pc].lcu = isa::decode_lcu(prog.word(Slot::LCU, pc));
      dec[pc].lsu = isa::decode_lsu(prog.word(Slot::LSU, pc));
      dec[pc].mxcu = isa::decode_mxcu(prog.word(Slot::MXCU, pc));
      for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
        dec[pc].rc[r] = isa::decode_rc(prog.word(rc_slot(r), pc));
      }
    }
  } catch (const SimError&) {
    return bail("undecodable configuration word");
  }

  // Legality: static hazards and branch targets. Anything the interpreter
  // would fault on at runtime keeps the program interpreted so the fault
  // surfaces with the documented behaviour and exact partial state.
  for (unsigned pc = 0; pc < len; ++pc) {
    const DecodedLine& L = dec[pc];
    if (!srf_schedule_legal(L)) return bail("static SRF port hazard");
    if (!vwr_schedule_legal(L)) return bail("static VWR write-port hazard");
    if (is_lcu_control(L.lcu.op) && L.lcu.op != LcuOp::kExit &&
        L.lcu.target >= len) {
      return bail("branch target past program end");
    }
  }

  // Flatten lines to micro-ops.
  trace->lines.resize(len);
  for (unsigned pc = 0; pc < len; ++pc) {
    const DecodedLine& L = dec[pc];
    tc::Line& line = trace->lines[pc];
    for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
      if (L.rc[r].op == RcOp::kNop) continue;
      if (!resolve_rc(L.rc[r], r, line.rc[r])) return bail("unresolvable RC");
      line.rc_mask |= 1u << r;
    }
    compile_ops(L, line, pc, trace->ops);
  }

  // Superblock construction. Leaders: entry, every branch target, and every
  // successor of a control line.
  std::vector<bool> leader(len, false);
  leader[0] = true;
  for (unsigned pc = 0; pc < len; ++pc) {
    const LcuOp op = dec[pc].lcu.op;
    if (!is_lcu_control(op)) continue;
    if (op != LcuOp::kExit) leader[dec[pc].lcu.target] = true;
    if (pc + 1 < len) leader[pc + 1] = true;
  }
  trace->block_of.assign(len, 0);
  for (unsigned pc = 0; pc < len;) {
    tc::Block b;
    b.first = static_cast<std::uint16_t>(pc);
    unsigned end = pc;  // inclusive index of the terminator line
    while (true) {
      if (is_lcu_control(dec[end].lcu.op)) break;
      if (end + 1 >= len || leader[end + 1]) break;
      ++end;
    }
    b.len = static_cast<std::uint16_t>(end - pc + 1);
    b.op = trace->lines[pc].op;
    b.nops = static_cast<std::uint16_t>(trace->lines[end].op +
                                        trace->lines[end].nops - b.op);
    const isa::LcuInstr& T = dec[end].lcu;
    b.target = T.target;
    switch (T.op) {
      case LcuOp::kB:
        b.term = tc::Term::kB;
        break;
      case LcuOp::kBeq:
      case LcuOp::kBne:
      case LcuOp::kBlt:
      case LcuOp::kBge:
        b.term = tc::Term::kCond;
        b.cond = static_cast<tc::Cond>(static_cast<unsigned>(T.op) -
                                       static_cast<unsigned>(LcuOp::kBeq));
        b.ra = T.ra;
        b.rb = T.rb;
        break;
      case LcuOp::kBeqI:
      case LcuOp::kBneI:
      case LcuOp::kBltI:
      case LcuOp::kBgeI:
        b.term = tc::Term::kCond;
        b.cond = static_cast<tc::Cond>(
            static_cast<unsigned>(tc::Cond::kEqI) +
            (static_cast<unsigned>(T.op) - static_cast<unsigned>(LcuOp::kBeqI)));
        b.ra = T.ra;
        b.imm = T.imm;
        break;
      case LcuOp::kBsrfZ:
        b.term = tc::Term::kCond;
        b.cond = tc::Cond::kSrfZ;
        b.srf = T.srf;
        break;
      case LcuOp::kBsrfNz:
        b.term = tc::Term::kCond;
        b.cond = tc::Cond::kSrfNz;
        b.srf = T.srf;
        break;
      case LcuOp::kDbnz:
        b.term = tc::Term::kDbnz;
        b.rd = T.rd;
        break;
      case LcuOp::kExit:
        b.term = tc::Term::kExit;
        break;
      default:
        b.term = tc::Term::kFall;  // plain line cut at a leader boundary
        break;
    }

    // Energy of one full block replay, and the block's static SPM rows (the
    // dependence facts the sync scheduler partitions the kernel with).
    std::array<std::uint64_t, static_cast<unsigned>(Event::kCount)> counts{};
    for (unsigned i = pc; i <= end; ++i) {
      add_line_energy(dec[i], counts);
      add_static_spm(dec[i].lsu, b.sread, b.swrite);
      if (line_has_cross(trace->lines[i])) trace->has_cross = true;
    }
    for (unsigned e = 0; e < counts.size(); ++e) {
      if (counts[e] != 0) {
        b.energy.push_back({static_cast<Event>(e), counts[e]});
      }
    }
    trace->static_reads |= b.sread;
    trace->static_writes |= b.swrite;

    // Hardware-loop fusion: a DBNZ back to this block's own start whose
    // body never touches the trip-count register elsewhere replays its
    // whole (runtime-read) trip count as one fused native loop.
    if (b.term == tc::Term::kDbnz && b.target == b.first) {
      bool clean = true;
      for (unsigned i = pc; i < end; ++i) {
        const isa::LcuInstr& I = dec[i].lcu;
        switch (I.op) {
          case LcuOp::kSetI:
          case LcuOp::kAddI:
          case LcuOp::kMvSrf:
            if (I.rd == b.rd) clean = false;
            break;
          case LcuOp::kMvR:
          case LcuOp::kAddR:
          case LcuOp::kSubR:
            if (I.rd == b.rd || I.ra == b.rd) clean = false;
            break;
          case LcuOp::kStSrf:
            if (I.ra == b.rd) clean = false;
            break;
          default:
            break;
        }
      }
      b.fuse_self_loop = clean;
    }
    if (b.fuse_self_loop) {
      b.body_op = static_cast<std::uint16_t>(trace->body_ops.size());
      compile_body(trace->ops.data() + b.op, b.nops, trace->body_ops);
      b.body_nops = static_cast<std::uint16_t>(trace->body_ops.size() - b.body_op);
    }

    const auto bi = static_cast<std::uint16_t>(trace->blocks.size());
    for (unsigned i = pc; i <= end; ++i) trace->block_of[i] = bi;
    trace->blocks.push_back(std::move(b));
    pc = end + 1;
  }

  trace->ok = true;
  return trace;
}

namespace tc {

SyncPlan make_sync_plan(const CompiledTrace* t0, const CompiledTrace* t1) {
  SyncPlan p;
  if (t0 == nullptr || t1 == nullptr || !t0->ok || !t1->ok) {
    // Single-column kernel (or a non-replayable partner, which the caller
    // gates on anyway): nothing to order against, free-run.
    return p;
  }
  if (t0->has_cross || t1->has_cross) {
    // The cross-column operand network needs per-cycle partner snapshots.
    p.has_cross = true;
    return p;
  }
  const std::array<const CompiledTrace*, arch::kNumColumns> t{t0, t1};
  bool any = false;
  for (unsigned c = 0; c < arch::kNumColumns; ++c) {
    const CompiledTrace& self = *t[c];
    const CompiledTrace& peer = *t[1 - c];
    p.sync[c].assign(self.blocks.size(), 0);
    for (std::size_t i = 0; i < self.blocks.size(); ++i) {
      const Block& b = self.blocks[i];
      // Ordered iff the block's rows can carry data across columns: my
      // write vs any peer access, or my read vs a peer write. Read-read
      // sharing (e.g. both columns loading one coefficient row) stays free.
      if (((b.swrite & (peer.static_reads | peer.static_writes)) |
           (b.sread & peer.static_writes)) != 0) {
        p.sync[c][i] = 1;
        any = true;
      }
    }
  }
  if (!any) p.sync = {};  // no sync point: each column free-runs to EXIT
  return p;
}

} // namespace tc

} // namespace vwr2a::cgra
