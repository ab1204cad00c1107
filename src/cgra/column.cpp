#include "cgra/column.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "cgra/alu.hpp"
#include "cgra/shuffle.hpp"
#include "common/status.hpp"

namespace vwr2a::cgra {

using energy::Event;

Column::Column(unsigned id, mem::Spm& spm, energy::EnergyMeter& meter)
    : id_(id),
      spm_(&spm),
      meter_(&meter),
      srf_(meter),
      vwrs_{mem::Vwr("col" + std::to_string(id) + ".A", meter),
            mem::Vwr("col" + std::to_string(id) + ".B", meter),
            mem::Vwr("col" + std::to_string(id) + ".C", meter)} {}

Column::DecodedProgram Column::decode_program(const isa::ColumnProgram& prog) {
  DecodedProgram out;
  out.reserve(prog.length());
  for (unsigned pc = 0; pc < prog.length(); ++pc) {
    DecodedLine line;
    line.lcu = isa::decode_lcu(prog.word(Slot::LCU, pc));
    line.lsu = isa::decode_lsu(prog.word(Slot::LSU, pc));
    line.mxcu = isa::decode_mxcu(prog.word(Slot::MXCU, pc));
    for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
      line.rc[r] = isa::decode_rc(prog.word(rc_slot(r), pc));
    }
    out.push_back(line);
  }
  return out;
}

void Column::load_program(const isa::ColumnProgram& prog) {
  load_program(std::make_shared<const isa::ColumnProgram>(prog),
               std::make_shared<const DecodedProgram>(decode_program(prog)));
}

void Column::load_program(std::shared_ptr<const isa::ColumnProgram> prog,
                          std::shared_ptr<const DecodedProgram> dec) {
  if (prog == nullptr || dec == nullptr || dec->size() != prog->length()) {
    throw HostError("Column: load_program with mismatched decode");
  }
  prog_ = std::move(dec);
  raw_prog_ = std::move(prog);
  trace_.reset();  // a new program invalidates any attached trace
  pc_ = 0;
  running_ = false;
}

std::string Column::line_asm(unsigned pc) const {
  if (raw_prog_ == nullptr || pc >= raw_prog_->length()) return "<past end>";
  const isa::ColumnProgram& rp = *raw_prog_;
  std::string out = "lcu: " + isa::to_asm(isa::decode_lcu(rp.word(Slot::LCU, pc)));
  out += " | lsu: " + isa::to_asm(isa::decode_lsu(rp.word(Slot::LSU, pc)));
  out += " | mxcu: " + isa::to_asm(isa::decode_mxcu(rp.word(Slot::MXCU, pc)));
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    out += " | rc" + std::to_string(r) + ": " +
           isa::to_asm(isa::decode_rc(rp.word(rc_slot(r), pc)));
  }
  return out;
}

void Column::start() {
  if (prog_ == nullptr || prog_->empty()) {
    throw HostError("Column: start with no program loaded");
  }
  pc_ = 0;
  tb_ = nullptr;
  tb_line_ = 0;
  running_ = true;
}

Word Column::read_rc_src(isa::RcSrc src, const isa::RcInstr& instr, unsigned r,
                         const RcOutputs* cross) {
  using isa::RcSrc;
  switch (src) {
    case RcSrc::kZero:
      return 0;
    case RcSrc::kOne:
      return 1;
    case RcSrc::kR0:
      meter_->add(Event::kRcRfRead);
      return rcs_[r].rf[0];
    case RcSrc::kR1:
      meter_->add(Event::kRcRfRead);
      return rcs_[r].rf[1];
    case RcSrc::kVwrA:
      return vwrs_[0].read_word(r, idx_);
    case RcSrc::kVwrB:
      return vwrs_[1].read_word(r, idx_);
    case RcSrc::kVwrC:
      return vwrs_[2].read_word(r, idx_);
    case RcSrc::kSrf:
      return srf_.read(instr.srf);
    case RcSrc::kRcUp:
      return rc_prev_[(r + arch::kRcsPerColumn - 1) % arch::kRcsPerColumn];
    case RcSrc::kRcDown:
      return rc_prev_[(r + 1) % arch::kRcsPerColumn];
    case RcSrc::kRcCross:
      if (cross == nullptr) {
        throw SimError("RC: kRcCross operand used without a synchronized "
                       "partner column");
      }
      return (*cross)[r];
    case RcSrc::kImm:
      return static_cast<Word>(static_cast<SWord>(instr.imm));
    default:
      throw DecodeError("RC: bad operand source");
  }
}

unsigned Column::lsu_address(const isa::LsuInstr& instr) {
  using isa::LsuAddrMode;
  switch (instr.amode) {
    case LsuAddrMode::kImm:
      return static_cast<unsigned>(instr.imm);
    case LsuAddrMode::kSrfImm:
      return static_cast<unsigned>(srf_.read(instr.srf_base)) + instr.imm;
    case LsuAddrMode::kPtr0Post: {
      const unsigned a = lsu_ptr_[0];
      lsu_ptr_[0] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(lsu_ptr_[0]) + instr.imm);
      return a;
    }
    case LsuAddrMode::kPtr1Post: {
      const unsigned a = lsu_ptr_[1];
      lsu_ptr_[1] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(lsu_ptr_[1]) + instr.imm);
      return a;
    }
    default:
      throw DecodeError("LSU: bad addressing mode");
  }
}

void Column::step(const RcOutputs* cross) {
  if (!running_) return;
  if (pc_ >= prog_->size()) {
    throw SimError("Column: PC ran past the end of the program (missing EXIT?)");
  }

  srf_.begin_cycle();
  for (auto& v : vwrs_) v.begin_cycle();

  const DecodedLine& line = (*prog_)[pc_];

  meter_->add(Event::kInstrFetchRc, arch::kRcsPerColumn);
  meter_->add(Event::kInstrFetchCtrl, 3);
  meter_->add(Event::kPcUpdate);

  // ---------------- evaluate phase (reads observe pre-cycle state) ----------

  // LCU: next-PC decision and loop-register arithmetic.
  unsigned next_pc = pc_ + 1;
  bool exit = false;
  std::optional<std::pair<unsigned, Word>> lcu_reg_write;
  std::optional<std::pair<unsigned, Word>> lcu_srf_write;
  {
    using isa::LcuOp;
    const isa::LcuInstr& I = line.lcu;
    const SWord ra = static_cast<SWord>(lcu_rf_[I.ra]);
    const SWord rb = static_cast<SWord>(lcu_rf_[I.rb]);
    switch (I.op) {
      case LcuOp::kNop:
        break;
      case LcuOp::kSetI:
        lcu_reg_write = {I.rd, static_cast<Word>(static_cast<SWord>(I.imm))};
        break;
      // The LCU adder wraps (two's complement): add in Word, not SWord.
      case LcuOp::kAddI:
        lcu_reg_write = {I.rd, lcu_rf_[I.rd] + static_cast<Word>(I.imm)};
        break;
      case LcuOp::kMvR:
        lcu_reg_write = {I.rd, lcu_rf_[I.ra]};
        break;
      case LcuOp::kAddR:
        lcu_reg_write = {I.rd, lcu_rf_[I.rd] + lcu_rf_[I.ra]};
        break;
      case LcuOp::kSubR:
        lcu_reg_write = {I.rd, lcu_rf_[I.rd] - lcu_rf_[I.ra]};
        break;
      case LcuOp::kMvSrf:
        lcu_reg_write = {I.rd, srf_.read(I.srf)};
        break;
      case LcuOp::kStSrf:
        lcu_srf_write = {I.srf, lcu_rf_[I.ra]};
        break;
      case LcuOp::kB:
        next_pc = I.target;
        break;
      case LcuOp::kBeq:
        if (ra == rb) next_pc = I.target;
        break;
      case LcuOp::kBne:
        if (ra != rb) next_pc = I.target;
        break;
      case LcuOp::kBlt:
        if (ra < rb) next_pc = I.target;
        break;
      case LcuOp::kBge:
        if (ra >= rb) next_pc = I.target;
        break;
      case LcuOp::kBeqI:
        if (ra == I.imm) next_pc = I.target;
        break;
      case LcuOp::kBneI:
        if (ra != I.imm) next_pc = I.target;
        break;
      case LcuOp::kBltI:
        if (ra < I.imm) next_pc = I.target;
        break;
      case LcuOp::kBgeI:
        if (ra >= I.imm) next_pc = I.target;
        break;
      case LcuOp::kBsrfZ:
        if (srf_.read(I.srf) == 0) next_pc = I.target;
        break;
      case LcuOp::kBsrfNz:
        if (srf_.read(I.srf) != 0) next_pc = I.target;
        break;
      case LcuOp::kDbnz: {
        const Word nv = lcu_rf_[I.rd] - 1;
        lcu_reg_write = {I.rd, nv};
        if (nv != 0) next_pc = I.target;
        break;
      }
      case LcuOp::kExit:
        exit = true;
        break;
      default:
        throw DecodeError("LCU: bad opcode");
    }
  }

  // LSU: SPM transfers and shuffle operations.
  std::optional<std::pair<VwrSel, VwrRow>> lsu_vwr_write;
  std::optional<std::pair<unsigned, Word>> lsu_srf_write;
  {
    using isa::LsuOp;
    const isa::LsuInstr& I = line.lsu;
    switch (I.op) {
      case LsuOp::kNop:
        break;
      case LsuOp::kLdVwr: {
        const unsigned row = lsu_address(I);
        lsu_vwr_write = {I.vwr, spm_->read_row(id_, row)};
        break;
      }
      case LsuOp::kStVwr: {
        const unsigned row = lsu_address(I);
        spm_->write_row(id_, row, vwrs_[static_cast<unsigned>(I.vwr)].read_row());
        break;
      }
      case LsuOp::kLdSrf: {
        const unsigned word = lsu_address(I);
        lsu_srf_write = {I.srf_data, spm_->read_word_array(id_, word)};
        break;
      }
      case LsuOp::kStSrf: {
        const unsigned word = lsu_address(I);
        spm_->write_word_array(id_, word, srf_.read(I.srf_data));
        break;
      }
      case LsuOp::kShuf: {
        meter_->add(Event::kShuffleOp);
        lsu_vwr_write = {VwrSel::C,
                         shuffle_eval(I.mode, vwrs_[0].read_row(),
                                      vwrs_[1].read_row())};
        break;
      }
      case LsuOp::kSetPtr: {
        const unsigned p = static_cast<unsigned>(I.vwr) & 1u;
        lsu_ptr_[p] = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(srf_.read(I.srf_base)) + I.imm);
        break;
      }
      default:
        throw DecodeError("LSU: bad opcode");
    }
  }

  // MXCU: slice-index arithmetic.
  unsigned new_idx = idx_;
  SWord new_aux = aux_;
  std::optional<std::pair<unsigned, Word>> mxcu_srf_write;
  {
    using isa::MxcuOp;
    const isa::MxcuInstr& I = line.mxcu;
    switch (I.op) {
      case MxcuOp::kNop:
        break;
      case MxcuOp::kSetIdx:
        new_idx = static_cast<unsigned>(I.imm);
        break;
      case MxcuOp::kAddIdx:
        new_idx = static_cast<unsigned>(static_cast<SWord>(idx_) + I.imm);
        break;
      case MxcuOp::kSetIdxSrf:
        new_idx = srf_.read(I.srf);
        break;
      case MxcuOp::kAddIdxSrf:
        new_idx = idx_ + srf_.read(I.srf);
        break;
      case MxcuOp::kAndIdxSrf:
        new_idx = idx_ & srf_.read(I.srf);
        break;
      case MxcuOp::kSetAux:
        new_aux = I.imm;
        break;
      case MxcuOp::kAddAux:  // wraps, like the LCU adder
        new_aux = static_cast<SWord>(static_cast<Word>(aux_) +
                                     static_cast<Word>(I.imm));
        break;
      case MxcuOp::kIdxFromAux:
        new_idx = static_cast<unsigned>(aux_);
        break;
      case MxcuOp::kStIdxSrf:
        mxcu_srf_write = {I.srf, idx_};
        break;
      default:
        throw DecodeError("MXCU: bad opcode");
    }
    new_idx %= arch::kSliceWords;  // the index addresses within a slice
  }

  // RCs: operand routing + ALU. Operand isolation: a NOP touches nothing and
  // the result register holds its value.
  struct RcPending {
    bool active = false;
    Word out = 0;
    isa::RcDst dst = isa::RcDst::kNone;
    std::uint8_t srf = 0;
  };
  std::array<RcPending, arch::kRcsPerColumn> rc_pend{};
  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    const isa::RcInstr& I = line.rc[r];
    if (I.op == isa::RcOp::kNop) continue;
    const Word a = read_rc_src(I.src_a, I, r, cross);
    const Word b = alu_is_unary(I.op) ? 0 : read_rc_src(I.src_b, I, r, cross);
    meter_->add(alu_energy_event(I.op));
    rc_pend[r] = {true, alu_eval(I.op, a, b), I.dst, I.srf};
  }

  // ---------------- commit phase (end-of-cycle register updates) ------------

  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    if (!rc_pend[r].active) continue;
    const RcPending& p = rc_pend[r];
    switch (p.dst) {
      case isa::RcDst::kNone:
        break;
      case isa::RcDst::kR0:
        meter_->add(Event::kRcRfWrite);
        rcs_[r].rf[0] = p.out;
        break;
      case isa::RcDst::kR1:
        meter_->add(Event::kRcRfWrite);
        rcs_[r].rf[1] = p.out;
        break;
      case isa::RcDst::kVwrA:
        vwrs_[0].write_word(r, idx_, p.out);
        break;
      case isa::RcDst::kVwrB:
        vwrs_[1].write_word(r, idx_, p.out);
        break;
      case isa::RcDst::kVwrC:
        vwrs_[2].write_word(r, idx_, p.out);
        break;
      case isa::RcDst::kSrf:
        srf_.write(p.srf, p.out);
        break;
      default:
        throw DecodeError("RC: bad destination");
    }
    rcs_[r].out = p.out;
  }

  if (lsu_vwr_write) {
    vwrs_[static_cast<unsigned>(lsu_vwr_write->first)].write_row(
        lsu_vwr_write->second);
  }
  if (lsu_srf_write) srf_.write(lsu_srf_write->first, lsu_srf_write->second);
  if (mxcu_srf_write) srf_.write(mxcu_srf_write->first, mxcu_srf_write->second);
  if (lcu_srf_write) srf_.write(lcu_srf_write->first, lcu_srf_write->second);
  if (lcu_reg_write) lcu_rf_[lcu_reg_write->first] = lcu_reg_write->second;

  idx_ = new_idx;
  aux_ = new_aux;

  for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
    rc_prev_[r] = rcs_[r].out;
  }

  ++executed_;
  if (exit) {
    running_ = false;
  } else {
    if (next_pc >= prog_->size()) {
      throw SimError("Column: branch past end of program");
    }
    pc_ = next_pc;
  }
}

// ---------------------------------------------------------------------------
// Trace-cache replay (see cgra/tracecache.hpp for the compilation model and
// the identity contract). Everything below must mirror step() bit for bit;
// the hazard checks and per-event meter adds are gone because the compiler
// proved the schedule and pre-aggregated the events per block.
// ---------------------------------------------------------------------------

namespace {

/// The bit-reversal shuffle permutations, the only modes replay gathers
/// through a table (the others are row-wide zips, unzips and copies).
struct ShuffleTables {
  // [hi][i] = source index into the A:B concatenation.
  std::array<std::array<std::uint16_t, arch::kVwrWords>, 2> map{};
  ShuffleTables() {
    for (unsigned h = 0; h < 2; ++h) {
      const auto m = static_cast<isa::ShufMode>(
          static_cast<unsigned>(isa::ShufMode::kBitRevLo) + h);
      for (unsigned i = 0; i < arch::kVwrWords; ++i) {
        map[h][i] = static_cast<std::uint16_t>(shuffle_source_index(m, i));
      }
    }
  }
};

const ShuffleTables& shuffle_tables() {
  static const ShuffleTables t;
  return t;
}

} // namespace

void Column::save_state(Checkpoint& ck) const {
  for (unsigned v = 0; v < arch::kVwrsPerColumn; ++v) {
    ck.vwr[v] = vwrs_[v].trace_row();
  }
  for (unsigned i = 0; i < arch::kSrfEntries; ++i) ck.srf[i] = srf_.trace_read(i);
  ck.rcs = rcs_;
  ck.rc_prev = rc_prev_;
  ck.lcu_rf = lcu_rf_;
  ck.lsu_ptr = lsu_ptr_;
  ck.idx = idx_;
  ck.aux = aux_;
  ck.pc = pc_;
  ck.running = running_;
  ck.executed = executed_;
}

void Column::restore_state(const Checkpoint& ck) {
  for (unsigned v = 0; v < arch::kVwrsPerColumn; ++v) {
    vwrs_[v].trace_row() = ck.vwr[v];
  }
  for (unsigned i = 0; i < arch::kSrfEntries; ++i) {
    srf_.trace_write(i, ck.srf[i]);
  }
  rcs_ = ck.rcs;
  rc_prev_ = ck.rc_prev;
  lcu_rf_ = ck.lcu_rf;
  lsu_ptr_ = ck.lsu_ptr;
  idx_ = ck.idx;
  aux_ = ck.aux;
  pc_ = ck.pc;
  running_ = ck.running;
  executed_ = ck.executed;
}

inline const Word* Column::spm_trace_read_row(unsigned row) {
  const Word* p = spm_->trace_row(row);  // range-checks like the interpreter
  spm_rmask_[mask_tier_] |= 1ull << row;
  return p;
}

inline void Column::spm_trace_write_row(unsigned row, const mem::Vwr::Row& v) {
  if (undo_ != nullptr && row < arch::kSpmRows &&
      ((undo_->saved_mask >> row) & 1u) == 0) {
    undo_->saved_mask |= 1ull << row;
    std::copy_n(spm_->trace_row(row), arch::kVwrWords,
                undo_->rows[row].begin());
    undo_->versions[row] = spm_->row_version(row);
  }
  spm_->trace_write_row(row, v);
  spm_wmask_[mask_tier_] |= 1ull << row;
}

inline Word Column::spm_trace_read_word(unsigned word) {
  const Word v = spm_->trace_read_word(word);
  spm_rmask_[mask_tier_] |= 1ull << (word / arch::kVwrWords);
  return v;
}

inline void Column::spm_trace_write_word(unsigned word, Word v) {
  const unsigned row = word / arch::kVwrWords;
  if (undo_ != nullptr && row < arch::kSpmRows &&
      ((undo_->saved_mask >> row) & 1u) == 0) {
    undo_->saved_mask |= 1ull << row;
    std::copy_n(spm_->trace_row(row), arch::kVwrWords,
                undo_->rows[row].begin());
    undo_->versions[row] = spm_->row_version(row);
  }
  spm_->trace_write_word(word, v);
  spm_wmask_[mask_tier_] |= 1ull << row;
}

inline Word Column::trace_src(const tc::Src& s) const {
  using K = tc::Src::K;
  switch (s.k) {
    case K::kImm:
      return s.imm;
    case K::kRf:
      return rcs_[s.rc].rf[s.idx];
    case K::kVwr:
      return vwrs_[s.vwr].trace_row()[s.base + idx_];
    case K::kSrf:
      return srf_.trace_read(s.idx);
    case K::kPrev:
      return rc_prev_[s.rc];
    case K::kCross:
      if (cross_ == nullptr) {
        // Same fault as the interpreter; the caller rolls back and reruns
        // interpreted so the error surfaces with the exact partial state.
        throw SimError("RC: kRcCross operand used without a synchronized "
                       "partner column");
      }
      return (*cross_)[s.rc];
    default:
      return 0;
  }
}

/// Slot-op handlers: one specialization per slot-op id (tracecache.hpp
/// "Line handlers"), with the opcode, address mode and operand kinds fixed
/// at compile time, so a replayed line runs no opcode or operand switch.
/// Each handler runs its slot to completion (reads, then writes); the
/// compiler ordered a line's ops so that this matches step()'s pre-cycle
/// reads and end-of-cycle commits.
struct Column::LineOps {
  using Handler = Op::Handler;
  static constexpr unsigned kN = arch::kRcsPerColumn;
  static constexpr unsigned kS = arch::kSliceWords;
  static constexpr unsigned kImm = static_cast<unsigned>(tc::Src::K::kImm);
  static constexpr unsigned kRf = static_cast<unsigned>(tc::Src::K::kRf);
  static constexpr unsigned kVwr = static_cast<unsigned>(tc::Src::K::kVwr);
  static constexpr unsigned kSrf = static_cast<unsigned>(tc::Src::K::kSrf);
  static constexpr unsigned kDstRf = static_cast<unsigned>(tc::Dst::kRf);
  static constexpr unsigned kDstVwr = static_cast<unsigned>(tc::Dst::kVwr);

  /// A quad operand of kind `Kind` (a Src::K value or tc::kQuadUnary):
  /// lane r at slice index idx is then a plain load. `row` and `v` come
  /// from the bound op; an SRF operand is read here, once per call.
  template <unsigned Kind>
  struct In {
    const Word* row = nullptr;       // kVwr: VWR row base
    const RcState* rcs = nullptr;    // kRf: lane 0's RC state
    unsigned entry = 0;              // kRf: register file entry
    Word v = 0;                      // kImm, kSrf: broadcast value

    In(const Column& c, const mem::Vwr::Row* r, Word bound) {
      if constexpr (Kind == kImm) {
        v = bound;
      } else if constexpr (Kind == kSrf) {
        v = c.srf_.trace_read(bound);
      } else if constexpr (Kind == kVwr) {
        row = r->data();
      } else if constexpr (Kind == kRf) {
        rcs = c.rcs_.data();
        entry = bound;
      }
    }
    Word operator()(unsigned r, unsigned idx) const {
      if constexpr (Kind == kVwr) {
        return row[idx + r * kS];
      } else if constexpr (Kind == kRf) {
        return rcs[r].rf[entry];
      } else {
        return v;  // broadcast, or 0 for a unary op's b
      }
    }
  };

  /// A quad destination of kind `D` (a Dst value below tc::kQuadDstKinds).
  template <unsigned D>
  struct Out {
    Word* row = nullptr;        // kVwr
    RcState* rcs = nullptr;     // kRf
    unsigned entry = 0;

    Out(Column& c, const Op& o) {
      if constexpr (D == kDstVwr) {
        row = o.d->data();
      } else if constexpr (D == kDstRf) {
        rcs = c.rcs_.data();
        entry = o.s.dv;
      }
    }
    void operator()(unsigned r, unsigned idx, Word v) const {
      if constexpr (D == kDstVwr) {
        row[idx + r * kS] = v;
      } else if constexpr (D == kDstRf) {
        rcs[r].rf[entry] = v;
      }
    }
  };

  /// A quad RC op, `iters` times, advancing the slice index by the bound
  /// step after each iteration. Within one call nothing else runs, so the
  /// routing (and an SRF broadcast) holds for every iteration; each
  /// iteration loads every lane before storing any, so a destination
  /// aliasing a source stays exact.
  template <isa::RcOp Op, unsigned A, unsigned B, unsigned D>
  static void quad(Column& c, const Column::Op& o, std::uint64_t iters) {
    const In<A> a(c, o.a, o.s.av);
    const In<B> b(c, o.b, o.s.bv);
    const Out<D> d(c, o);
    unsigned idx = c.idx_;
    Word out[kN] = {};
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (unsigned r = 0; r < kN; ++r) out[r] = alu_op<Op>(a(r, idx), b(r, idx));
      for (unsigned r = 0; r < kN; ++r) d(r, idx, out[r]);
      idx = next_idx(idx, o.s.imm);
    }
    // rc_prev_ is unobservable between the iterations of one call (the op
    // is alone in its loop body), so only the last iteration's outputs matter.
    for (unsigned r = 0; r < kN; ++r) c.rc_prev_[r] = out[r];
    c.idx_ = idx;
  }

  /// A MAC superinstruction (tc::kMacProducers), `iters` trips of exactly
  /// what its two quad ops run back to back: the producer Op(a, b) -> RF e
  /// on every lane, its index step, the accumulate kSadd(RF x, RF e) -> D
  /// on every lane, its index step.
  template <isa::RcOp Op, unsigned A, unsigned B, unsigned D>
  static void mac(Column& c, const Column::Op& o, std::uint64_t iters) {
    const In<A> a(c, o.a, o.s.av);
    const In<B> b(c, o.b, o.s.bv);
    const Out<D> d(c, o);
    RcState* rcs = c.rcs_.data();
    const unsigned e = o.s.e, x = o.s.x;
    unsigned idx = c.idx_;
    Word out[kN] = {};
    for (std::uint64_t it = 0; it < iters; ++it) {
      Word p[kN];
      for (unsigned r = 0; r < kN; ++r) p[r] = alu_op<Op>(a(r, idx), b(r, idx));
      for (unsigned r = 0; r < kN; ++r) rcs[r].rf[e] = p[r];
      idx = next_idx(idx, o.s.imm);
      for (unsigned r = 0; r < kN; ++r) {
        out[r] = alu_op<isa::RcOp::kSadd>(rcs[r].rf[x], rcs[r].rf[e]);
      }
      for (unsigned r = 0; r < kN; ++r) d(r, idx, out[r]);
      idx = next_idx(idx, o.s.acc_imm);
    }
    for (unsigned r = 0; r < kN; ++r) c.rc_prev_[r] = out[r];
    c.idx_ = idx;
  }

  /// The slice index after an MXCU add_idx of `imm` (wraps like step()).
  static unsigned next_idx(unsigned idx, std::int32_t imm) {
    return static_cast<unsigned>(static_cast<SWord>(idx) + imm) % kS;
  }

  /// Repeats a one-shot slot function `iters` times.
  template <void (*F)(Column&, const Column::Op&)>
  static void each(Column& c, const Column::Op& o, std::uint64_t iters) {
    for (std::uint64_t it = 0; it < iters; ++it) F(c, o);
  }

  /// RC lines that are not quad: per-RC operands, every lane evaluated
  /// against pre-cycle state (kPrev reads rc_prev_) before any commits.
  static void lanes(Column& c, const Column::Op& o) {
    const tc::Line& L = c.trace_->lines[o.s.pc];
    Word outs[kN];
    for (unsigned r = 0; r < kN; ++r) {
      if (((L.rc_mask >> r) & 1u) == 0) continue;
      const tc::RcUop& u = L.rc[r];
      const Word a = c.trace_src(u.a);
      const Word b = u.unary ? 0 : c.trace_src(u.b);
      outs[r] = alu_eval(u.op, a, b);
    }
    for (unsigned r = 0; r < kN; ++r) {
      if (((L.rc_mask >> r) & 1u) == 0) continue;
      const tc::RcUop& u = L.rc[r];
      switch (u.d) {
        case tc::Dst::kRf:
          c.rcs_[r].rf[u.idx] = outs[r];
          break;
        case tc::Dst::kVwr:
          c.vwrs_[u.vwr].trace_row()[u.base + c.idx_] = outs[r];
          break;
        case tc::Dst::kSrf:
          c.srf_.trace_write(u.idx, outs[r]);
          break;
        default:
          break;
      }
      c.rc_prev_[r] = outs[r];
    }
  }

  // --- LSU (av = SRF base, bv = SRF data, imm = address/stride) -------------
  template <isa::LsuAddrMode M>
  static unsigned address(Column& c, const Column::Op& o) {
    if constexpr (M == isa::LsuAddrMode::kImm) {
      return static_cast<unsigned>(o.s.imm);
    } else if constexpr (M == isa::LsuAddrMode::kSrfImm) {
      return static_cast<unsigned>(c.srf_.trace_read(o.s.av)) +
             static_cast<unsigned>(o.s.imm);
    } else {
      std::uint32_t& p = c.lsu_ptr_[M == isa::LsuAddrMode::kPtr0Post ? 0 : 1];
      const unsigned a = p;
      p = static_cast<std::uint32_t>(static_cast<std::int64_t>(p) + o.s.imm);
      return a;
    }
  }
  template <isa::LsuAddrMode M>
  static void ld_vwr(Column& c, const Column::Op& o) {
    std::copy_n(c.spm_trace_read_row(address<M>(c, o)), arch::kVwrWords,
                o.a->begin());
  }
  template <isa::LsuAddrMode M>
  static void st_vwr(Column& c, const Column::Op& o) {
    c.spm_trace_write_row(address<M>(c, o), *o.a);
  }
  template <isa::LsuAddrMode M>
  static void ld_srf(Column& c, const Column::Op& o) {
    c.srf_.trace_write(o.s.bv, c.spm_trace_read_word(address<M>(c, o)));
  }
  template <isa::LsuAddrMode M>
  static void st_srf(Column& c, const Column::Op& o) {
    const unsigned word = address<M>(c, o);
    c.spm_trace_write_word(word, c.srf_.trace_read(o.s.bv));
  }
  /// Shuffles A:B into `dst`, which is never A or B: one row-wide
  /// permutation per mode (shuffle.hpp has the definitions).
  template <isa::ShufMode M>
  static void shuffle_into(const Column::Op& o, Word* dst) {
    using isa::ShufMode;
    constexpr unsigned kW = arch::kVwrWords;
    constexpr unsigned kH = kW / 2;
    const Word* a = o.a->data();
    const Word* b = o.b->data();
    if constexpr (M == ShufMode::kInterleaveLo || M == ShufMode::kInterleaveHi) {
      // Zip the low (high) halves of A and B.
      constexpr unsigned h = M == ShufMode::kInterleaveLo ? 0 : kH;
      for (unsigned j = 0; j < kH; ++j) {
        dst[2 * j] = a[h + j];
        dst[2 * j + 1] = b[h + j];
      }
    } else if constexpr (M == ShufMode::kEvenPrune || M == ShufMode::kOddPrune) {
      // Unzip: the even (odd) words of A, then those of B.
      constexpr unsigned odd = M == ShufMode::kOddPrune ? 1 : 0;
      for (unsigned j = 0; j < kH; ++j) {
        dst[j] = a[2 * j + odd];
        dst[kH + j] = b[2 * j + odd];
      }
    } else if constexpr (M == ShufMode::kCircShiftLo ||
                         M == ShufMode::kCircShiftHi) {
      // A:B rotated down one slice: Lo = A[32..128) B[0..32), Hi the same
      // with A and B swapped.
      const Word* first = M == ShufMode::kCircShiftLo ? a : b;
      const Word* second = M == ShufMode::kCircShiftLo ? b : a;
      std::copy_n(first + kS, kW - kS, dst);
      std::copy_n(second, kS, dst + kW - kS);
    } else {
      static_assert(M == ShufMode::kBitRevLo || M == ShufMode::kBitRevHi);
      const auto& map = shuffle_tables().map[M == ShufMode::kBitRevHi ? 1 : 0];
      for (unsigned i = 0; i < kW; ++i) {
        const unsigned s = map[i];
        dst[i] = s < kW ? a[s] : b[s - kW];
      }
    }
  }
  template <isa::ShufMode M>
  static void shuf(Column&, const Column::Op& o) {
    shuffle_into<M>(o, o.d->data());
  }
  template <isa::ShufMode M>
  static void shuf_stage(Column& c, const Column::Op& o) {
    shuffle_into<M>(o, c.shuf_scratch_.data());
  }
  static void shuf_commit(Column& c, const Column::Op& o) {
    *o.d = c.shuf_scratch_;
  }
  static void set_ptr(Column& c, const Column::Op& o) {  // dv = pointer
    c.lsu_ptr_[o.s.dv] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(c.srf_.trace_read(o.s.av)) + o.s.imm);
  }

  // --- MXCU (av = SRF entry) ------------------------------------------------
  template <isa::MxcuOp M>
  static void mxcu(Column& c, const Column::Op& o) {
    using isa::MxcuOp;
    if constexpr (M == MxcuOp::kStIdxSrf) {
      c.srf_.trace_write(o.s.av, c.idx_);
    } else if constexpr (M == MxcuOp::kSetAux) {
      c.aux_ = o.s.imm;
    } else if constexpr (M == MxcuOp::kAddAux) {
      c.aux_ = static_cast<SWord>(static_cast<Word>(c.aux_) +
                                  static_cast<Word>(o.s.imm));
    } else {
      unsigned idx = 0;
      if constexpr (M == MxcuOp::kSetIdx) {
        idx = static_cast<unsigned>(o.s.imm);
      } else if constexpr (M == MxcuOp::kAddIdx) {
        idx = static_cast<unsigned>(static_cast<SWord>(c.idx_) + o.s.imm);
      } else if constexpr (M == MxcuOp::kSetIdxSrf) {
        idx = c.srf_.trace_read(o.s.av);
      } else if constexpr (M == MxcuOp::kAddIdxSrf) {
        idx = c.idx_ + c.srf_.trace_read(o.s.av);
      } else if constexpr (M == MxcuOp::kAndIdxSrf) {
        idx = c.idx_ & c.srf_.trace_read(o.s.av);
      } else {
        static_assert(M == MxcuOp::kIdxFromAux);
        idx = static_cast<unsigned>(c.aux_);
      }
      c.idx_ = idx % kS;
    }
  }

  // --- LCU register ops (dv = rd, av = ra, bv = SRF entry; adds wrap) ------
  template <isa::LcuOp L>
  static void lcu(Column& c, const Column::Op& o) {
    using isa::LcuOp;
    auto& rf = c.lcu_rf_;
    if constexpr (L == LcuOp::kSetI) {
      rf[o.s.dv] = static_cast<Word>(static_cast<SWord>(o.s.imm));
    } else if constexpr (L == LcuOp::kAddI) {
      rf[o.s.dv] += static_cast<Word>(o.s.imm);
    } else if constexpr (L == LcuOp::kMvR) {
      rf[o.s.dv] = rf[o.s.av];
    } else if constexpr (L == LcuOp::kAddR) {
      rf[o.s.dv] += rf[o.s.av];
    } else if constexpr (L == LcuOp::kSubR) {
      rf[o.s.dv] -= rf[o.s.av];
    } else if constexpr (L == LcuOp::kMvSrf) {
      rf[o.s.dv] = c.srf_.trace_read(o.s.bv);
    } else {
      static_assert(L == LcuOp::kStSrf);
      c.srf_.trace_write(o.s.bv, rf[o.s.av]);
    }
  }

  /// The handler of slot-op id K; null exactly at invalid quad keys, which
  /// no compiled line names.
  template <std::size_t K>
  static constexpr Handler handler_of() {
    if constexpr (K < tc::kQuadKeys) {
      constexpr tc::QuadCoords q = tc::quad_coords(K);
      static_assert(tc::quad_key(q.op, q.a, q.b, q.d) == K);
      if constexpr (tc::quad_key_valid(q.op, q.a, q.b, q.d)) {
        return &quad<static_cast<isa::RcOp>(q.op), q.a, q.b, q.d>;
      } else {
        return nullptr;
      }
    } else if constexpr (K == tc::kOpLanes) {
      return &each<&lanes>;
    } else if constexpr (K < tc::kOpShuf) {
      constexpr unsigned kModes = static_cast<unsigned>(isa::LsuAddrMode::kCount);
      constexpr auto m = static_cast<isa::LsuAddrMode>((K - tc::kOpLsu) % kModes);
      constexpr auto op = static_cast<isa::LsuOp>(
          static_cast<unsigned>(isa::LsuOp::kLdVwr) + (K - tc::kOpLsu) / kModes);
      static_assert(tc::kOpLsu + tc::lsu_op_id(op, m) == K);
      if constexpr (op == isa::LsuOp::kLdVwr) {
        return &each<&ld_vwr<m>>;
      } else if constexpr (op == isa::LsuOp::kStVwr) {
        return &each<&st_vwr<m>>;
      } else if constexpr (op == isa::LsuOp::kLdSrf) {
        return &each<&ld_srf<m>>;
      } else {
        static_assert(op == isa::LsuOp::kStSrf);
        return &each<&st_srf<m>>;
      }
    } else if constexpr (K < tc::kOpShufStage) {
      return &each<&shuf<static_cast<isa::ShufMode>(K - tc::kOpShuf)>>;
    } else if constexpr (K < tc::kOpShufCommit) {
      return &each<&shuf_stage<static_cast<isa::ShufMode>(K - tc::kOpShufStage)>>;
    } else if constexpr (K == tc::kOpShufCommit) {
      return &each<&shuf_commit>;
    } else if constexpr (K == tc::kOpSetPtr) {
      return &each<&set_ptr>;
    } else if constexpr (K < tc::kOpLcu) {
      return &each<&mxcu<static_cast<isa::MxcuOp>(K - tc::kOpMxcu + 1)>>;
    } else if constexpr (K < tc::kOpMac) {
      return &each<&lcu<static_cast<isa::LcuOp>(
          K - tc::kOpLcu + static_cast<unsigned>(isa::LcuOp::kSetI))>>;
    } else {
      constexpr tc::QuadCoords p = tc::kMacProducers[(K - tc::kOpMac) / 2];
      constexpr unsigned d = (K - tc::kOpMac) % 2 != 0 ? kDstVwr : kDstRf;
      return &mac<static_cast<isa::RcOp>(p.op), p.a, p.b, d>;
    }
  }
  template <std::size_t... K>
  static constexpr std::array<Handler, tc::kOps> table(
      std::index_sequence<K...>) {
    return {handler_of<K>()...};
  }

  /// Indexed by slot-op id.
  static const std::array<Handler, tc::kOps> kTable;
};

const std::array<Column::Op::Handler, tc::kOps> Column::LineOps::kTable =
    Column::LineOps::table(std::make_index_sequence<tc::kOps>{});

inline void Column::bind_op(const tc::SlotOp& s, Op& o) {
  o.run = LineOps::kTable[s.id];
  o.a = &vwrs_[s.a].trace_row();
  o.b = &vwrs_[s.b].trace_row();
  o.d = &vwrs_[s.d].trace_row();
  o.s = s;
}

void Column::run_ops(const tc::SlotOp* ops, unsigned n) {
  for (unsigned k = 0; k < n; ++k) {
    Op o;
    bind_op(ops[k], o);
    o.run(*this, o, 1);
  }
}

inline unsigned Column::eval_term(const tc::Block& b, bool& exit) {
  unsigned next = b.first + b.len;  // fallthrough
  switch (b.term) {
    case tc::Term::kFall:
      break;
    case tc::Term::kB:
      next = b.target;
      break;
    case tc::Term::kCond: {
      const SWord ra = static_cast<SWord>(lcu_rf_[b.ra]);
      const SWord rb = static_cast<SWord>(lcu_rf_[b.rb]);
      bool taken = false;
      switch (b.cond) {
        case tc::Cond::kEq: taken = ra == rb; break;
        case tc::Cond::kNe: taken = ra != rb; break;
        case tc::Cond::kLt: taken = ra < rb; break;
        case tc::Cond::kGe: taken = ra >= rb; break;
        case tc::Cond::kEqI: taken = ra == b.imm; break;
        case tc::Cond::kNeI: taken = ra != b.imm; break;
        case tc::Cond::kLtI: taken = ra < b.imm; break;
        case tc::Cond::kGeI: taken = ra >= b.imm; break;
        case tc::Cond::kSrfZ: taken = srf_.trace_read(b.srf) == 0; break;
        case tc::Cond::kSrfNz: taken = srf_.trace_read(b.srf) != 0; break;
      }
      if (taken) next = b.target;
      break;
    }
    case tc::Term::kDbnz: {
      const Word nv = lcu_rf_[b.rd] - 1;
      lcu_rf_[b.rd] = nv;
      if (nv != 0) next = b.target;
      break;
    }
    case tc::Term::kExit:
      exit = true;
      break;
  }
  return next;
}

void Column::step_traced() {
  const CompiledTrace& T = *trace_;
  if (tb_ == nullptr) {
    tb_ = &T.blocks[T.block_of[pc_]];
    tb_line_ = 0;
  }
  const tc::Line& L = T.lines[tb_->first + tb_line_];
  run_ops(T.ops.data() + L.op, L.nops);
  ++executed_;
  if (++tb_line_ < tb_->len) {
    ++pc_;
    return;
  }
  const tc::Block& b = *tb_;
  tb_ = nullptr;
  meter_->add_block(b.energy, 1);
  bool exit = false;
  const unsigned next = eval_term(b, exit);
  if (exit) {
    running_ = false;  // pc stays at the EXIT line, like the interpreter
    return;
  }
  if (next >= T.length()) {
    throw SimError("Column: branch past end of program");
  }
  pc_ = next;
}

Cycle Column::step_block_traced(Cycle budget_left) {
  const CompiledTrace& T = *trace_;
  const tc::Block& b = T.blocks[T.block_of[pc_]];
  unsigned next = b.first + b.len;  // fallthrough
  Cycle n = 0;
  if (b.fuse_self_loop) {
    // Hardware loop: bind the body (its MAC-fused op list) once, then
    // replay the whole (runtime-read) trip count over the bound ops -- no
    // per-trip decode, handler lookup or routing work. A one-op body runs
    // its trip count inside its handler.
    const Word cnt = lcu_rf_[b.rd];
    const std::uint64_t iters = cnt == 0 ? (1ull << 32) : cnt;
    if (iters * b.len > budget_left) throw tc::ReplayBudgetExceeded{};
    const tc::SlotOp* ops = T.body_ops.data() + b.body_op;
    const unsigned nops = b.body_nops;
    if (body_.size() < nops) body_.resize(nops);
    Op* body = body_.data();
    for (unsigned k = 0; k < nops; ++k) bind_op(ops[k], body[k]);
    if (nops == 1) {
      body->run(*this, *body, iters);
    } else if (nops > 1) {
      for (std::uint64_t it = 0; it < iters; ++it) {
        for (unsigned k = 0; k < nops; ++k) body[k].run(*this, body[k], 1);
      }
    }
    lcu_rf_[b.rd] = 0;  // dbnz leaves the counter at zero
    meter_->add_block(b.energy, iters);
    executed_ += iters * b.len;
    n = iters * b.len;
  } else {
    run_ops(T.ops.data() + b.op, b.nops);
    meter_->add_block(b.energy, 1);
    executed_ += b.len;
    n = b.len;
    bool exit = false;
    next = eval_term(b, exit);
    if (exit) running_ = false;
  }
  if (!running_) {
    pc_ = b.first + b.len - 1;  // the interpreter leaves pc at the EXIT line
    return n;
  }
  if (next >= T.length()) {
    throw SimError("Column: branch past end of program");
  }
  pc_ = next;
  return n;
}

Cycle Column::run_free(const std::uint8_t* sync, Cycle budget) {
  Cycle n = 0;
  do {
    if (n > budget) throw tc::ReplayBudgetExceeded{};  // caller rolls back
    n += step_block_traced(budget - n);
  } while (running_ && (sync == nullptr || sync[block()] == 0));
  return n;
}

} // namespace vwr2a::cgra
