// Trace-cache identity: ExecMode::kTraceCache must be indistinguishable
// from the interpreter -- bit-identical architectural state, exactly equal
// cycle counts, exactly equal per-event energy counts -- on every program
// that runs, and must surface the same documented faults on every program
// that does not. The random-program differential fuzz is the strongest pin:
// any divergence between compile_trace()/replay and Column::step() shows up
// as a state or meter mismatch.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "app/mbiotracker.hpp"
#include "bus/ahb.hpp"
#include "casm/builder.hpp"
#include "casm/factories.hpp"
#include "cgra/shuffle.hpp"
#include "cgra/tracecache.hpp"
#include "cgra/vwr2a.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "dsp/signal.hpp"
#include "energy/meter.hpp"
#include "mem/sram.hpp"
#include "runtime/device.hpp"
#include "soc/platform.hpp"

namespace vwr2a {
namespace {

using namespace casm;
using cgra::ExecMode;

/// A standalone VWR2A rig with a selectable execution engine.
struct Rig {
  energy::EnergyMeter sys_meter;
  mem::SystemSram sram{sys_meter};
  bus::AhbBus ahb{sram, sys_meter};
  cgra::Vwr2a acc{ahb};

  explicit Rig(ExecMode mode) { acc.set_exec_mode(mode, "test"); }

  /// Seeds SPM, SRFs, VWRs and LCU-visible SRF params deterministically.
  void seed(Rng rng) {
    for (unsigned w = 0; w < arch::kSpmWords; ++w) {
      acc.spm().poke(w, rng.next_u32());
    }
    for (unsigned c = 0; c < arch::kNumColumns; ++c) {
      for (unsigned i = 0; i < arch::kSrfEntries; ++i) {
        acc.column(c).srf().poke(i, rng.next_below(1u << 16));
      }
      for (unsigned v = 0; v < arch::kVwrsPerColumn; ++v) {
        for (unsigned s = 0; s < arch::kRcsPerColumn; ++s) {
          for (unsigned i = 0; i < arch::kSliceWords; ++i) {
            acc.column(c).vwr(static_cast<VwrSel>(v)).poke(s, i, rng.next_u32());
          }
        }
      }
    }
  }
};

/// Full observable-state comparison of the two rigs.
void expect_identical(Rig& a, Rig& b, const std::string& what) {
  EXPECT_EQ(a.acc.cycles(), b.acc.cycles()) << what;
  for (unsigned e = 0; e < static_cast<unsigned>(energy::Event::kCount); ++e) {
    EXPECT_EQ(a.acc.meter().count(static_cast<energy::Event>(e)),
              b.acc.meter().count(static_cast<energy::Event>(e)))
        << what << " event " << energy::to_string(static_cast<energy::Event>(e));
  }
  EXPECT_EQ(a.acc.meter().total_pj(), b.acc.meter().total_pj()) << what;
  for (unsigned w = 0; w < arch::kSpmWords; ++w) {
    ASSERT_EQ(a.acc.spm().peek(w), b.acc.spm().peek(w))
        << what << " SPM word " << w;
  }
  for (unsigned c = 0; c < arch::kNumColumns; ++c) {
    const cgra::Column& ca = a.acc.column(c);
    const cgra::Column& cb = b.acc.column(c);
    for (unsigned i = 0; i < arch::kSrfEntries; ++i) {
      ASSERT_EQ(ca.srf().peek(i), cb.srf().peek(i))
          << what << " col " << c << " SRF " << i;
    }
    for (unsigned v = 0; v < arch::kVwrsPerColumn; ++v) {
      for (unsigned s = 0; s < arch::kRcsPerColumn; ++s) {
        for (unsigned i = 0; i < arch::kSliceWords; ++i) {
          ASSERT_EQ(ca.vwr(static_cast<VwrSel>(v)).peek(s, i),
                    cb.vwr(static_cast<VwrSel>(v)).peek(s, i))
              << what << " col " << c << " VWR " << v;
        }
      }
    }
    for (unsigned r = 0; r < arch::kLcuRegs; ++r) {
      ASSERT_EQ(ca.lcu_reg(r), cb.lcu_reg(r)) << what << " col " << c;
    }
    for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
      ASSERT_EQ(ca.rc_state(r).rf, cb.rc_state(r).rf) << what << " col " << c;
      ASSERT_EQ(ca.rc_state(r).out, cb.rc_state(r).out) << what << " col " << c;
    }
    ASSERT_EQ(ca.mxcu_index(), cb.mxcu_index()) << what;
    ASSERT_EQ(ca.executed_cycles(), cb.executed_cycles()) << what;
  }
}

// --- random-program differential fuzz ---------------------------------------

isa::RcInstr random_rc(Rng& rng) {
  isa::RcInstr i;
  i.op = static_cast<isa::RcOp>(
      rng.next_below(static_cast<unsigned>(isa::RcOp::kCount)));
  i.src_a = static_cast<isa::RcSrc>(
      rng.next_below(static_cast<unsigned>(isa::RcSrc::kCount)));
  i.src_b = static_cast<isa::RcSrc>(
      rng.next_below(static_cast<unsigned>(isa::RcSrc::kCount)));
  i.dst = static_cast<isa::RcDst>(
      rng.next_below(static_cast<unsigned>(isa::RcDst::kCount)));
  i.srf = static_cast<std::uint8_t>(rng.next_below(8));
  i.imm = static_cast<std::int8_t>(rng.next_u32());
  return i;
}

isa::LsuInstr random_lsu(Rng& rng) {
  isa::LsuInstr i;
  switch (rng.next_below(8)) {
    case 0: return i;  // nop
    case 1: return lsu_ld_vwr(static_cast<VwrSel>(rng.next_below(3)),
                              rng.next_below(arch::kSpmRows));
    case 2: return lsu_st_vwr(static_cast<VwrSel>(rng.next_below(3)),
                              rng.next_below(arch::kSpmRows));
    case 3: return lsu_ld_srf(static_cast<std::uint8_t>(rng.next_below(8)),
                              rng.next_below(arch::kSpmWords));
    case 4: return lsu_st_srf(static_cast<std::uint8_t>(rng.next_below(8)),
                              rng.next_below(arch::kSpmWords));
    case 5: return lsu_shuf(static_cast<isa::ShufMode>(rng.next_below(8)));
    case 6:
      // SRF-based addressing: data-dependent rows, range-checked at replay.
      return lsu_st_vwr_srf(static_cast<VwrSel>(rng.next_below(3)),
                            static_cast<std::uint8_t>(rng.next_below(8)),
                            static_cast<int>(rng.next_below(8)));
    default:
      return lsu_ld_vwr_srf(static_cast<VwrSel>(rng.next_below(3)),
                            static_cast<std::uint8_t>(rng.next_below(8)),
                            static_cast<int>(rng.next_below(8)));
  }
}

isa::MxcuInstr random_mxcu(Rng& rng) {
  isa::MxcuInstr i;
  i.op = static_cast<isa::MxcuOp>(
      rng.next_below(static_cast<unsigned>(isa::MxcuOp::kCount)));
  i.srf = static_cast<std::uint8_t>(rng.next_below(8));
  i.imm = static_cast<std::int16_t>(static_cast<int>(rng.next_below(128)) - 64);
  return i;
}

/// Random LCU op at line `pc` of `len` lines (line 0 is a prologue that
/// seeds r3 with a small trip count). Register-writing ops stay off r3 and
/// at most one DBNZ (always on r3, always backward) is emitted per program,
/// so every generated program terminates in both engines.
isa::LcuInstr random_lcu(Rng& rng, unsigned pc, unsigned len, bool& used_dbnz) {
  isa::LcuInstr i;
  switch (rng.next_below(8)) {
    case 0:
      return lcu_nop();
    case 1:
      return lcu_set(static_cast<std::uint8_t>(rng.next_below(3)),
                     static_cast<int>(rng.next_below(64)) - 32);
    case 2:
      return lcu_add(static_cast<std::uint8_t>(rng.next_below(3)),
                     static_cast<int>(rng.next_below(16)) - 8);
    case 3:
      i.op = isa::LcuOp::kMvSrf;
      i.rd = static_cast<std::uint8_t>(rng.next_below(3));
      i.srf = static_cast<std::uint8_t>(rng.next_below(8));
      return i;
    case 4:
      i.op = isa::LcuOp::kStSrf;
      i.ra = static_cast<std::uint8_t>(rng.next_below(4));
      i.srf = static_cast<std::uint8_t>(rng.next_below(8));
      return i;
    case 5: {  // forward conditional skip
      i.op = static_cast<isa::LcuOp>(
          static_cast<unsigned>(isa::LcuOp::kBeq) + rng.next_below(8));
      i.ra = static_cast<std::uint8_t>(rng.next_below(4));
      i.rb = static_cast<std::uint8_t>(rng.next_below(4));
      i.imm = static_cast<std::int16_t>(static_cast<int>(rng.next_below(8)) - 4);
      i.target = static_cast<std::uint8_t>(
          pc + 1 + rng.next_below(len + 1 - pc));  // (pc, len+1] incl. EXIT
      return i;
    }
    case 6: {  // SRF zero test, forward
      i.op = rng.next_below(2) ? isa::LcuOp::kBsrfZ : isa::LcuOp::kBsrfNz;
      i.srf = static_cast<std::uint8_t>(rng.next_below(8));
      i.target =
          static_cast<std::uint8_t>(pc + 1 + rng.next_below(len + 1 - pc));
      return i;
    }
    default: {  // tight backward DBNZ loop over the previous line
      if (used_dbnz || pc < 2) return lcu_nop();
      used_dbnz = true;
      i.op = isa::LcuOp::kDbnz;
      i.rd = 3;  // seeded by the prologue, untouched elsewhere
      i.target = static_cast<std::uint8_t>(pc - 1);
      return i;
    }
  }
}

/// One random VLIW program, terminating by construction (bounded DBNZ,
/// forward-only conditional skips). One program in four may read kRcCross,
/// which keeps it off the trace cache; the rest map it to kImm. Half the
/// programs fill each RC, MXCU and LCU slot with probability 1/2; dense
/// lines mostly collide on the single-ported SRF (a compile bail too). The
/// other half fill them with probability 1/8, so most of those replay. The
/// LSU slot is filled half the time in both, and its rows span the whole
/// SPM, so two-column trials exercise the sync schedule (static overlaps)
/// and the post-hoc dynamic masks alike.
isa::ColumnProgram random_program(Rng& rng, unsigned len) {
  const bool cross = rng.next_below(4) == 0;
  const unsigned fill = rng.next_below(2) != 0 ? 2 : 8;  // 1 in `fill`
  ProgramBuilder pb;
  // Prologue: bound every DBNZ trip count.
  pb.line().lcu(lcu_set(3, 1 + static_cast<int>(rng.next_below(4)))).emit();
  bool used_dbnz = false;
  for (unsigned l = 1; l <= len; ++l) {
    auto line = pb.line();
    if (rng.next_below(2) == 0) line.lsu(random_lsu(rng));
    if (rng.next_below(fill) == 0) line.mxcu(random_mxcu(rng));
    if (rng.next_below(fill) == 0) line.lcu(random_lcu(rng, l, len, used_dbnz));
    for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) {
      if (rng.next_below(fill) != 0) continue;
      isa::RcInstr i = random_rc(rng);
      for (isa::RcSrc* src : {&i.src_a, &i.src_b}) {
        if (!cross && *src == isa::RcSrc::kRcCross) *src = isa::RcSrc::kImm;
      }
      line.rc(r, i);
    }
    line.emit();
  }
  pb.line().lcu(lcu_exit()).emit();
  return pb.build();
}

TEST(TraceCacheFuzz, RandomProgramsBitCycleEnergyIdentical) {
  Rng rng(0x7AC3);
  unsigned completed = 0, faulted = 0;
  // Fallback routes to the interpreter, counted per trial.
  unsigned bailed = 0, cross_bails = 0, replay_faults = 0, rolled_back = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::uint64_t data_seed = rng.next_u64();
    const isa::ColumnProgram prog = random_program(rng, 2 + rng.next_below(12));
    const auto trace = cgra::compile_trace(prog);
    // Two-column trials exercise the decoupled replay + conflict detector;
    // single-column trials the plain block replay.
    const bool two_cols = rng.next_below(2) == 1;
    const isa::KernelImage img =
        two_cols ? make_kernel2("fuzz2", prog, prog) : make_kernel("fuzz", 0, prog);

    Rig ri(ExecMode::kInterpret);
    Rig rt(ExecMode::kTraceCache);
    ri.seed(Rng(data_seed));
    rt.seed(Rng(data_seed));
    // Bound every DBNZ: r3 holds a small count (host-style SRF write would
    // disturb state symmetrically anyway; poke is free and identical).
    // Two-column trials pass both columns one parameter set of in-range
    // rows (SRF-based rows add an offset below 8), so a dynamic store can
    // land where the partner column reads or writes: the post-hoc conflict
    // route. Single-column trials keep the wide seeded values, which
    // mostly fault as out-of-range rows.
    for (unsigned c = 0; c < arch::kNumColumns; ++c) {
      Rng params(data_seed);
      for (unsigned i = 0; two_cols && i < arch::kSrfEntries; ++i) {
        const Word v = params.next_below(arch::kSpmRows - 8);
        ri.acc.column(c).srf().poke(i, v);
        rt.acc.column(c).srf().poke(i, v);
      }
      ri.acc.column(c).srf().poke(3, 3);
      rt.acc.column(c).srf().poke(3, 3);
    }

    const unsigned ki = ri.acc.register_kernel(img);
    const unsigned kt = rt.acc.register_kernel(img);
    int outcome_i = 0, outcome_t = 0;
    std::string err_i, err_t;
    try {
      ri.acc.run_kernel(ki);
    } catch (const StructuralHazard& e) {
      outcome_i = 1;
      err_i = e.what();
    } catch (const SimError& e) {
      outcome_i = 2;
      err_i = e.what();
    }
    try {
      rt.acc.run_kernel(kt);
    } catch (const StructuralHazard& e) {
      outcome_t = 1;
      err_t = e.what();
    } catch (const SimError& e) {
      outcome_t = 2;
      err_t = e.what();
    }
    ASSERT_EQ(outcome_i, outcome_t) << "trial " << trial << ": interpreter '"
                                    << err_i << "' vs trace '" << err_t << "'";
    ASSERT_EQ(err_i, err_t) << "trial " << trial;
    if (!trace->ok) {
      ++bailed;
      if (trace->bail_reason == "kRcCross operand") ++cross_bails;
    } else if (outcome_t != 0) {
      ++replay_faults;
    }
    if (rt.acc.replay_stats().traced_rollbacks > 0) ++rolled_back;
    if (outcome_i == 0) {
      ++completed;
      expect_identical(ri, rt, "trial " + std::to_string(trial));
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      ++faulted;
      // Faulting replays fall back to the interpreter, so even the partial
      // state and partial energy of the fault path match exactly.
      expect_identical(ri, rt, "faulted trial " + std::to_string(trial));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The generator must exercise both the clean path and the fault path
  // (dense random lines collide on the single-ported SRF frequently, so
  // faults dominate -- exactly the population that pins the fallback).
  EXPECT_GT(completed, 15u);
  EXPECT_GT(faulted, 100u);
  // Every route to the interpreter runs, each floored at about half the
  // count this seed reads: compile bails (kRcCross among them), replay
  // faults, and post-hoc conflicts that roll back before the rerun.
  const std::string routes =
      std::to_string(bailed) + " bailed (" + std::to_string(cross_bails) +
      " kRcCross), " + std::to_string(replay_faults) + " replay faults, " +
      std::to_string(rolled_back) + " rolled back, " +
      std::to_string(completed) + " completed";
  EXPECT_GE(bailed, 200u) << routes;  // reads 408
  EXPECT_GE(cross_bails, 9u) << routes;  // reads 19
  EXPECT_GE(replay_faults, 17u) << routes;  // reads 35
  EXPECT_GE(rolled_back, 6u) << routes;  // reads 13
}

// --- multi-line hardware-loop bodies ------------------------------------------

/// The slots of one VLIW line, kept as instructions so a candidate can be
/// screened before it is emitted.
struct SlotLine {
  std::array<isa::RcInstr, arch::kRcsPerColumn> rc{};
  isa::LsuInstr lsu;
  isa::MxcuInstr mxcu;
  isa::LcuInstr lcu;

  void emit(ProgramBuilder& pb, std::optional<Label> dbnz = {}) const {
    auto line = pb.line();
    for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) line.rc(r, rc[r]);
    line.lsu(lsu).mxcu(mxcu);
    if (dbnz) {
      line.lcu(lcu_dbnz(3), *dbnz);  // r3: the trip counter
    } else {
      line.lcu(lcu);
    }
    line.emit();
  }
};

/// An RC op over sources that cannot fault: no kRcCross, SRF reads and
/// writes only at `srf`.
isa::RcInstr light_rc(Rng& rng, std::uint8_t srf) {
  static constexpr isa::RcSrc kSrcs[] = {
      isa::RcSrc::kZero,  isa::RcSrc::kOne,  isa::RcSrc::kR0,
      isa::RcSrc::kR1,    isa::RcSrc::kVwrA, isa::RcSrc::kVwrB,
      isa::RcSrc::kVwrC,  isa::RcSrc::kSrf,  isa::RcSrc::kRcUp,
      isa::RcSrc::kRcDown, isa::RcSrc::kImm};
  isa::RcInstr i = random_rc(rng);
  i.op = static_cast<isa::RcOp>(
      1 + rng.next_below(static_cast<unsigned>(isa::RcOp::kCount) - 1));
  i.src_a = kSrcs[rng.next_below(std::size(kSrcs))];
  i.src_b = kSrcs[rng.next_below(std::size(kSrcs))];
  i.srf = srf;
  return i;
}

/// A random line whose slots pass the static hazard checks and cannot fault
/// at runtime: LSU accesses use immediate addresses, LCU ops never touch
/// the trip counter r3 (so the loop still fuses), and SRF entry `keep` is
/// never written. Half the lines are quad, as in real loop bodies; lanes,
/// shuffles and every side slot appear too.
SlotLine light_line(Rng& rng, unsigned keep) {
  for (;;) {
    SlotLine l;
    auto srf = [&rng] { return static_cast<std::uint8_t>(rng.next_below(8)); };
    switch (rng.next_below(4)) {
      case 0:
        break;  // no RC
      case 1:
        for (auto& rc : l.rc) {
          if (rng.next_below(2)) rc = light_rc(rng, srf());
        }
        break;
      default:
        l.rc.fill(light_rc(rng, srf()));
        break;
    }
    switch (rng.next_below(7)) {
      case 0: break;
      case 1: l.lsu = lsu_ld_vwr(static_cast<VwrSel>(rng.next_below(3)),
                                 rng.next_below(arch::kSpmRows)); break;
      case 2: l.lsu = lsu_st_vwr(static_cast<VwrSel>(rng.next_below(3)),
                                 rng.next_below(arch::kSpmRows)); break;
      case 3: l.lsu = lsu_ld_srf(srf(), rng.next_below(arch::kSpmWords)); break;
      case 4: l.lsu = lsu_st_srf(srf(), rng.next_below(arch::kSpmWords)); break;
      default: l.lsu = lsu_shuf(static_cast<isa::ShufMode>(rng.next_below(8)));
    }
    if (rng.next_below(2)) l.mxcu = random_mxcu(rng);
    switch (rng.next_below(6)) {
      case 0:
        l.lcu = lcu_set(static_cast<std::uint8_t>(rng.next_below(3)),
                        static_cast<int>(rng.next_below(64)) - 32);
        break;
      case 1:
        l.lcu = lcu_addr(static_cast<std::uint8_t>(rng.next_below(3)),
                         static_cast<std::uint8_t>(rng.next_below(3)));
        break;
      case 2:
        l.lcu = lcu_mv_srf(static_cast<std::uint8_t>(rng.next_below(3)), srf());
        break;
      case 3:
        l.lcu = lcu_st_srf(srf(), static_cast<std::uint8_t>(rng.next_below(3)));
        break;
      default:
        break;
    }
    bool writes_keep = l.lsu.op == isa::LsuOp::kLdSrf && l.lsu.srf_data == keep;
    writes_keep |= l.mxcu.op == isa::MxcuOp::kStIdxSrf && l.mxcu.srf == keep;
    writes_keep |= l.lcu.op == isa::LcuOp::kStSrf && l.lcu.srf == keep;
    for (const auto& rc : l.rc) {
      writes_keep |= rc.op != isa::RcOp::kNop && rc.dst == isa::RcDst::kSrf &&
                     rc.srf == keep;
    }
    if (writes_keep) continue;
    ProgramBuilder probe;
    l.emit(probe);
    probe.line().lcu(lcu_exit()).emit();
    if (cgra::compile_trace(probe.build())->ok) return l;
  }
}

/// A kernel around one DBNZ hardware loop whose body spans `body` lines
/// (2..7: the back-edge spans 1..6 lines), with a few light lines before
/// and after. Inside the body SRF[s] is written (MXCU st_idx_srf, so the
/// value is a slice index), then read by a quad kSrf operand and, in a
/// longer body, by an SRF-addressed row load -- both on every trip, after
/// the write. An add_idx on the quad reader moves the index, so the value
/// changes from trip to trip.
isa::ColumnProgram loop_body_program(Rng& rng, unsigned body) {
  const auto s = static_cast<std::uint8_t>(rng.next_below(8));
  ProgramBuilder pb;
  pb.line().lcu(lcu_set(3, 1 + static_cast<int>(rng.next_below(9)))).emit();
  for (unsigned i = rng.next_below(3); i > 0; --i) light_line(rng, s).emit(pb);
  std::vector<SlotLine> lines;
  for (unsigned i = 0; i < body; ++i) lines.push_back(light_line(rng, s));
  // Writer w, then quad reader q, then (bodies of 3+ lines) a row loader.
  const unsigned tail = body >= 3 ? 1 : 0;
  const unsigned w = rng.next_below(body - 1 - tail);
  const unsigned q = w + 1 + rng.next_below(body - 1 - tail - w);
  SlotLine& writer = lines[w];
  writer = SlotLine{};
  writer.mxcu.op = isa::MxcuOp::kStIdxSrf;
  writer.mxcu.srf = s;
  writer.rc.fill(rc_add(isa::RcDst::kR0, isa::RcSrc::kR0, isa::RcSrc::kVwrA));
  SlotLine& reader = lines[q];
  reader = SlotLine{};
  reader.rc.fill(rc_add(isa::RcDst::kVwrB, isa::RcSrc::kSrf, isa::RcSrc::kVwrA, s));
  reader.mxcu = mxcu_add_idx(1 + static_cast<int>(rng.next_below(7)));
  if (tail != 0) {
    // Row SRF[s] + imm stays inside the SPM: the index is below 32. The
    // line's other SRF users move to entry s (reads) or go (writes, and the
    // MXCU/LCU forms), since the port serves one entry per cycle.
    SlotLine& loader = lines[q + 1 + rng.next_below(body - 1 - q)];
    loader.lsu = lsu_ld_vwr_srf(VwrSel::C, s, static_cast<int>(rng.next_below(32)));
    for (auto& rc : loader.rc) {
      if (rc.dst == isa::RcDst::kVwrC || rc.dst == isa::RcDst::kSrf) {
        rc = rc_nop();  // VWR C write port, SRF port
      }
      rc.srf = s;
    }
    loader.mxcu = mxcu_nop();
    if (loader.lcu.op == isa::LcuOp::kMvSrf || loader.lcu.op == isa::LcuOp::kStSrf) {
      loader.lcu = lcu_nop();
    }
  }
  Label loop = pb.make_label();
  pb.bind(loop);
  for (unsigned i = 0; i < body; ++i) {
    lines[i].emit(pb, i + 1 == body ? std::optional<Label>(loop) : std::nullopt);
  }
  for (unsigned i = rng.next_below(3); i > 0; --i) light_line(rng, s).emit(pb);
  pb.line().lcu(lcu_exit()).emit();
  return pb.build();
}

/// Launches `img` twice (or until it faults) on an interpreter rig and a
/// trace rig seeded alike, checking after each launch that both raised the
/// same SimError text, or none, and left identical state and energy.
/// Returns the error text, empty when both launches ran clean.
std::string launch_twice_identical(const isa::KernelImage& img,
                                   std::uint64_t data_seed,
                                   const std::string& what) {
  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  ri.seed(Rng(data_seed));
  rt.seed(Rng(data_seed));
  const unsigned ki = ri.acc.register_kernel(img);
  const unsigned kt = rt.acc.register_kernel(img);
  std::string err_i, err_t;
  for (int launch = 0; launch < 2 && err_i.empty(); ++launch) {
    try {
      ri.acc.run_kernel(ki);
    } catch (const SimError& e) {
      err_i = e.what();
    }
    try {
      rt.acc.run_kernel(kt);
    } catch (const SimError& e) {
      err_t = e.what();
    }
    EXPECT_EQ(err_i, err_t) << what;
    expect_identical(ri, rt, what);
    if (err_i != err_t || ::testing::Test::HasFailure()) break;
  }
  return err_i;
}

/// The replay a sync plan asks for: "scheduled" (some block is a sync
/// point) or "decoupled" (no sync vectors at all). Non-empty vectors
/// without a sync point read "invalid".
std::string plan_kind(const cgra::tc::SyncPlan& p) {
  unsigned flagged = 0, blocks = 0;
  for (const auto& v : p.sync) {
    blocks += static_cast<unsigned>(v.size());
    for (std::uint8_t f : v) flagged += f;
  }
  if (blocks == 0) return "decoupled";
  return flagged > 0 ? "scheduled" : "invalid";
}

/// Multi-line fused bodies against the interpreter: the bound-body replay
/// must re-read SRF operands every trip and keep each line's slot order,
/// on one column and on two (decoupled or scheduled, and interpreted after
/// a conflict rollback).
TEST(TraceCacheFuzz, MultiLineLoopBodiesMatchInterpreter) {
  Rng rng(0x100B);
  unsigned clean = 0, long_fused = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t data_seed = rng.next_u64();
    const unsigned body = 2 + rng.next_below(6);
    const isa::ColumnProgram prog = loop_body_program(rng, body);
    const auto trace = cgra::compile_trace(prog);
    ASSERT_TRUE(trace->ok) << "trial " << trial << ": " << trace->bail_reason;
    bool fused_long = false;
    for (const auto& b : trace->blocks) {
      if (b.fuse_self_loop && b.len >= 3) fused_long = true;
    }
    const bool two_cols = rng.next_below(2) == 1;
    const isa::KernelImage img =
        two_cols ? make_kernel2("body2", prog, prog) : make_kernel("body", 0, prog);
    const std::string err = launch_twice_identical(
        img, data_seed, "loop trial " + std::to_string(trial));
    if (::testing::Test::HasFailure()) return;
    if (err.empty()) {
      ++clean;
      if (fused_long) ++long_fused;
    }
  }
  // Hazard-light lines keep nearly every trial clean; five in six bodies
  // span three or more lines.
  EXPECT_GT(clean, 180u);
  EXPECT_GT(long_fused, 140u);
}

/// A producer -> accumulate pair on two lines, shaped so the loop body
/// compiles it into one MAC op (tc::kMacProducers): the producer line is
/// the quad alone, with an add_idx step most of the time; the accumulate
/// line is a quad kSadd(R x, R e) with its own step and, half the time, an
/// ld_srf at an immediate address (FIR's tap rotation). x equals e half
/// the time, the RF producer reads e or x, and a VWR accumulate writes the
/// producer's VWR source a third of the time.
std::array<SlotLine, 2> mac_pair(Rng& rng) {
  using isa::RcDst;
  using isa::RcSrc;
  auto rf = [](unsigned entry) { return entry == 0 ? RcSrc::kR0 : RcSrc::kR1; };
  auto vwr_src = [](unsigned v) {
    return static_cast<RcSrc>(static_cast<unsigned>(RcSrc::kVwrA) + v);
  };
  auto step = [&rng] {
    return rng.next_below(4) == 0 ? mxcu_nop()
                                  : mxcu_add_idx(static_cast<int>(rng.next_below(81)) - 40);
  };
  const unsigned e = rng.next_below(2);
  const unsigned x = rng.next_below(2);
  const RcDst to_e = e == 0 ? RcDst::kR0 : RcDst::kR1;
  const unsigned va = rng.next_below(3);
  const unsigned vb = rng.next_below(3);
  const auto srf = static_cast<std::uint8_t>(rng.next_below(8));
  isa::RcInstr p;
  unsigned src_vwr = va;  // the producer's (first) VWR source
  switch (rng.next_below(4)) {
    case 0:
      p = rc_fxpmul(to_e, vwr_src(va), RcSrc::kSrf, srf);
      break;
    case 1:
      p = rc_fxpmul(to_e, vwr_src(va), vwr_src(vb));
      break;
    case 2:
      p = rc_fxpmul(to_e, rf(rng.next_below(2) != 0 ? e : x), vwr_src(vb));
      src_vwr = vb;
      break;
    default:
      p = rc_op(isa::RcOp::kCmpLe, to_e, vwr_src(va), RcSrc::kSrf, srf);
      break;
  }
  RcDst dst = RcDst::kR0;
  switch (rng.next_below(3)) {
    case 0:
      dst = rng.next_below(2) != 0 ? RcDst::kR1 : RcDst::kR0;
      break;
    case 1:
      dst = static_cast<RcDst>(static_cast<unsigned>(RcDst::kVwrA) + src_vwr);
      break;
    default:
      dst = static_cast<RcDst>(static_cast<unsigned>(RcDst::kVwrA) +
                               rng.next_below(3));
      break;
  }
  std::array<SlotLine, 2> pair;
  pair[0].rc.fill(p);
  pair[0].mxcu = step();
  pair[1].rc.fill(rc_add(dst, rf(x), rf(e)));
  pair[1].mxcu = step();
  if (rng.next_below(2) != 0) {
    pair[1].lsu = lsu_ld_srf(rng.next_below(2) != 0 ? srf : static_cast<std::uint8_t>(
                                                            rng.next_below(8)),
                             rng.next_below(arch::kSpmWords));
  }
  return pair;
}

/// MAC superinstructions against the interpreter: loop bodies of one to
/// three fusable pairs, with light lines between them, over trip counts
/// that wrap the slice index, on one column and on two. Every generated
/// pair must fuse, and the fused shapes must cover the alias and step
/// cases the MAC handler has to get right.
TEST(TraceCacheFuzz, MacBodiesMatchInterpreter) {
  Rng rng(0x3AC0);
  unsigned pairs_total = 0, macs_total = 0, x_is_e = 0, reads_acc = 0;
  unsigned vwr_acc = 0, vwr_alias = 0, producer_step = 0, steps_differ = 0;
  unsigned ld_srf_between = 0, wraps = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t data_seed = rng.next_u64();
    const unsigned trips = 1 + rng.next_below(48);
    ProgramBuilder pb;
    pb.line()
        .lcu(lcu_set(3, static_cast<int>(trips)))
        .mxcu(mxcu_set_idx(static_cast<int>(rng.next_below(arch::kSliceWords))))
        .emit();
    std::vector<SlotLine> lines;
    const unsigned pairs = 1 + rng.next_below(3);
    for (unsigned i = 0; i < pairs; ++i) {
      if (rng.next_below(3) == 0) lines.push_back(light_line(rng, /*keep=*/8));
      const auto pair = mac_pair(rng);
      lines.insert(lines.end(), pair.begin(), pair.end());
    }
    if (rng.next_below(2) != 0) lines.push_back(light_line(rng, /*keep=*/8));
    Label loop = pb.make_label();
    pb.bind(loop);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      lines[i].emit(pb, i + 1 == lines.size() ? std::optional<Label>(loop)
                                              : std::nullopt);
    }
    pb.line().lcu(lcu_exit()).emit();
    const isa::ColumnProgram prog = pb.build();

    const auto trace = cgra::compile_trace(prog);
    ASSERT_TRUE(trace->ok) << "trial " << trial << ": " << trace->bail_reason;
    const cgra::tc::Block& b = trace->blocks[trace->block_of[1]];
    ASSERT_TRUE(b.fuse_self_loop) << "trial " << trial;
    unsigned macs = 0;
    for (unsigned i = b.body_op; i < b.body_op + b.body_nops; ++i) {
      const cgra::tc::SlotOp& m = trace->body_ops[i];
      if (m.id < cgra::tc::kOpMac) continue;
      ++macs;
      const unsigned producer = (m.id - cgra::tc::kOpMac) / 2;
      const bool to_vwr = (m.id - cgra::tc::kOpMac) % 2 != 0;
      const bool rf_producer = cgra::tc::kMacProducers[producer].a ==
                               static_cast<unsigned>(cgra::tc::Src::K::kRf);
      x_is_e += m.e == m.x ? 1 : 0;
      reads_acc += rf_producer && (m.av == m.e || m.av == m.x) ? 1 : 0;
      vwr_acc += to_vwr ? 1 : 0;
      vwr_alias += to_vwr && (rf_producer ? m.d == m.b : m.d == m.a) ? 1 : 0;
      producer_step += m.imm != 0 ? 1 : 0;
      steps_differ += m.imm != m.acc_imm ? 1 : 0;
      wraps += trips * static_cast<unsigned>(std::abs(m.imm) + std::abs(m.acc_imm)) >=
                       arch::kSliceWords
                   ? 1
                   : 0;
      const bool next_ld_srf =
          i + 1 < b.body_op + b.body_nops &&
          trace->body_ops[i + 1].id ==
              cgra::tc::kOpLsu +
                  cgra::tc::lsu_op_id(isa::LsuOp::kLdSrf, isa::LsuAddrMode::kImm);
      ld_srf_between += next_ld_srf ? 1 : 0;
    }
    ASSERT_GE(macs, pairs) << "trial " << trial << ": a generated pair did not fuse";
    pairs_total += pairs;
    macs_total += macs;

    const bool two_cols = rng.next_below(2) == 1;
    const isa::KernelImage img =
        two_cols ? make_kernel2("mac2", prog, prog) : make_kernel("mac", 0, prog);
    const std::string err =
        launch_twice_identical(img, data_seed, "mac trial " + std::to_string(trial));
    if (::testing::Test::HasFailure()) return;
    EXPECT_TRUE(err.empty()) << "trial " << trial << ": " << err;
  }
  EXPECT_GE(pairs_total, 350u);
  EXPECT_GE(macs_total, pairs_total);
  for (unsigned covered : {x_is_e, reads_acc, vwr_acc, vwr_alias, producer_step,
                           steps_differ, ld_srf_between, wraps}) {
    EXPECT_GE(covered, 20u);
  }
}

// --- directed coverage -------------------------------------------------------

/// A kernel whose LCU trip count is data-dependent: the host parameter in
/// SRF0 feeds the DBNZ counter (fused self-loop replay must read it at
/// runtime, not bake it in).
isa::ColumnProgram counted_accumulate_program() {
  ProgramBuilder pb;
  pb.line().lcu(lcu_mv_srf(0, 0)).emit();  // r0 = SRF0 (trip count)
  pb.line().rc_all(rc_mv(isa::RcDst::kR0, isa::RcSrc::kZero)).emit();
  Label loop = pb.make_label();
  pb.bind(loop);
  pb.line()
      .rc_all(rc_add(isa::RcDst::kR0, isa::RcSrc::kR0, isa::RcSrc::kVwrA))
      .mxcu(mxcu_add_idx(1))
      .lcu(lcu_dbnz(0), loop)
      .emit();
  pb.line().rc_all(rc_mv(isa::RcDst::kVwrC, isa::RcSrc::kR0)).emit();
  pb.line().lcu(lcu_exit()).emit();
  return pb.build();
}

TEST(TraceCache, DataDependentTripCountIsIdentical) {
  for (Word trips : {1u, 2u, 7u, 31u, 97u}) {
    Rig ri(ExecMode::kInterpret);
    Rig rt(ExecMode::kTraceCache);
    ri.seed(Rng(42));
    rt.seed(Rng(42));
    const isa::KernelImage img =
        make_kernel("counted", 0, counted_accumulate_program());
    const unsigned ki = ri.acc.register_kernel(img);
    const unsigned kt = rt.acc.register_kernel(img);
    ri.acc.host_write_srf(0, 0, trips);
    rt.acc.host_write_srf(0, 0, trips);
    const Cycle ci = ri.acc.run_kernel(ki);
    const Cycle ct = rt.acc.run_kernel(kt);
    EXPECT_EQ(ci, ct) << "trips " << trips;
    // Trip count must show in the cycle count (data dependence is real).
    EXPECT_GT(ci, static_cast<Cycle>(trips));
    expect_identical(ri, rt, "trips " + std::to_string(trips));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Two columns that communicate through the SPM at *statically* known rows:
/// column 0 stores row 40 (immediate address), column 1 loads it a few
/// cycles later. The block dependence analysis sees the overlap at compile
/// time, so the launch replays on the sync schedule -- the conflicting
/// blocks advance in interpreter order from the start, with no rollback.
TEST(TraceCache, StaticSpmFlowReplaysOnSyncSchedule) {
  auto writer = [] {
    ProgramBuilder pb;
    pb.line().rc_all(rc_add(isa::RcDst::kVwrA, isa::RcSrc::kVwrA,
                            isa::RcSrc::kOne)).emit();
    pb.line().lsu(lsu_st_vwr(VwrSel::A, 40)).emit();
    pb.line().emit();  // idle while the partner loads
    pb.line().emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  auto reader = [] {
    ProgramBuilder pb;
    pb.line().emit();
    pb.line().emit();
    pb.line().lsu(lsu_ld_vwr(VwrSel::B, 40)).emit();  // sees the new row
    pb.line().rc_all(rc_add(isa::RcDst::kVwrC, isa::RcSrc::kVwrB,
                            isa::RcSrc::kOne)).emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  const isa::KernelImage img = make_kernel2("spmflow", writer(), reader());

  // The compiled traces carry the static row masks the plan is built from.
  const auto tw = cgra::compile_trace(writer());
  const auto tr = cgra::compile_trace(reader());
  ASSERT_TRUE(tw->ok && tr->ok);
  EXPECT_EQ(tw->static_writes, 1ull << 40);
  EXPECT_EQ(tr->static_reads, 1ull << 40);
  EXPECT_EQ(plan_kind(cgra::tc::make_sync_plan(tw.get(), tr.get())),
            "scheduled");

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  ri.seed(Rng(77));
  rt.seed(Rng(77));
  const unsigned ki = ri.acc.register_kernel(img);
  const unsigned kt = rt.acc.register_kernel(img);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  expect_identical(ri, rt, "first launch (sync schedule)");
  EXPECT_EQ(rt.acc.replay_stats().traced_rollbacks, 0u);
  EXPECT_GT(rt.acc.replay_stats().replay_sync_points, 0u);
  EXPECT_EQ(rt.acc.replay_stats().replay_interpreted_cycles, 0u);

  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  expect_identical(ri, rt, "second launch (sync schedule)");
  EXPECT_EQ(rt.acc.replay_stats().traced_rollbacks, 0u);
  EXPECT_EQ(rt.acc.replay_stats().traced_launches, 2u);
}

/// The same dataflow with a *dynamically* addressed store (SRF-based row):
/// invisible to the static analysis, so the launch free-runs decoupled, the
/// post-hoc mask check catches the overlap, and the launch rolls back and
/// reruns on the interpreter. Each conflicting launch pays its own free
/// pass and rollback; once the row parameter stops overlapping (here
/// across a reload), the next launch stays decoupled.
TEST(TraceCache, DynamicSpmConflictRollsBackEachLaunch) {
  auto writer = [] {
    ProgramBuilder pb;
    pb.line().rc_all(rc_add(isa::RcDst::kVwrA, isa::RcSrc::kVwrA,
                            isa::RcSrc::kOne)).emit();
    pb.line().lsu(lsu_st_vwr_srf(VwrSel::A, /*base srf=*/4)).emit();
    pb.line().emit();
    pb.line().emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  auto reader = [] {
    ProgramBuilder pb;
    pb.line().emit();
    pb.line().emit();
    pb.line().lsu(lsu_ld_vwr(VwrSel::B, 40)).emit();
    pb.line().rc_all(rc_add(isa::RcDst::kVwrC, isa::RcSrc::kVwrB,
                            isa::RcSrc::kOne)).emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  const isa::KernelImage img = make_kernel2("dynflow", writer(), reader());
  // A throwaway single-column kernel used to force a reload of the columns.
  ProgramBuilder other;
  other.line().emit();
  other.line().lcu(lcu_exit()).emit();
  const isa::KernelImage evict = make_kernel("evict", 0, other.build());

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  ri.seed(Rng(78));
  rt.seed(Rng(78));
  const unsigned ki = ri.acc.register_kernel(img);
  const unsigned kt = rt.acc.register_kernel(img);
  const unsigned ei = ri.acc.register_kernel(evict);
  const unsigned et = rt.acc.register_kernel(evict);
  // SRF4 = 40: the dynamic store lands on the row the partner reads.
  ri.acc.host_write_srf(0, 4, 40);
  rt.acc.host_write_srf(0, 4, 40);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  expect_identical(ri, rt, "dynamic conflict (rollback to interpreter)");
  EXPECT_EQ(rt.acc.replay_stats().traced_rollbacks, 1u);
  EXPECT_EQ(rt.acc.replay_stats().traced_launches, 0u);
  EXPECT_EQ(rt.acc.replay_stats().replay_interpreted_cycles,
            ri.acc.replay_stats().replay_interpreted_cycles);

  // Still resident: the relaunch conflicts again and rolls back again.
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  expect_identical(ri, rt, "relaunch (conflicts again, rollback)");
  EXPECT_EQ(rt.acc.replay_stats().traced_rollbacks, 2u);
  EXPECT_EQ(rt.acc.replay_stats().traced_launches, 0u);

  // Change the row parameter so the store no longer overlaps, and force a
  // reload: the relaunch free-runs decoupled and the post-hoc check passes
  // -- no new rollback, decoupled cycles grow.
  ri.acc.run_kernel(ei);
  rt.acc.run_kernel(et);
  ri.acc.host_write_srf(0, 4, 10);
  rt.acc.host_write_srf(0, 4, 10);
  const std::uint64_t dec_before =
      rt.acc.replay_stats().replay_decoupled_cycles;
  const std::uint64_t traced_before = rt.acc.replay_stats().traced_launches;
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  expect_identical(ri, rt, "non-conflicting reload (decoupled)");
  EXPECT_EQ(rt.acc.replay_stats().traced_rollbacks, 2u);
  EXPECT_EQ(rt.acc.replay_stats().traced_launches, traced_before + 1);
  EXPECT_GT(rt.acc.replay_stats().replay_decoupled_cycles, dec_before);
}

/// A cross-column POLL at a statically known word: column 0 spins on an SPM
/// word until column 1 writes it non-zero. The immediate addresses put both
/// sides in the static masks, so the spin block and the store block are
/// sync points -- the scheduled replay interleaves them like the
/// interpreter and terminates exactly when it does, with no budget blow-up
/// and no rollback.
TEST(TraceCache, StaticCrossColumnPollRunsOnSyncSchedule) {
  constexpr unsigned kFlagWord = 40 * arch::kVwrWords;  // row 40, word 0
  auto poller = [] {
    ProgramBuilder pb;
    Label spin = pb.make_label();
    pb.bind(spin);
    pb.line().lsu(lsu_ld_srf(1, kFlagWord)).emit();  // SRF1 = SPM[flag]
    isa::LcuInstr b;
    b.op = isa::LcuOp::kBsrfZ;
    b.srf = 1;
    pb.line().lcu(b, spin).emit();                   // while (SRF1 == 0)
    pb.line().rc_all(rc_mv(isa::RcDst::kVwrC, isa::RcSrc::kSrf, 1)).emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  auto writer = [] {
    ProgramBuilder pb;
    pb.line().emit();                                // give the poller a spin
    pb.line().emit();
    pb.line().lsu(lsu_st_srf(2, kFlagWord)).emit();  // SPM[flag] = SRF2
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  const isa::KernelImage img = make_kernel2("poll", poller(), writer());

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  for (Rig* r : {&ri, &rt}) {
    r->seed(Rng(88));
    r->acc.spm().poke(kFlagWord, 0);          // flag starts clear
    r->acc.column(1).srf().poke(2, 7);        // the value the writer posts
  }
  const unsigned ki = ri.acc.register_kernel(img);
  const unsigned kt = rt.acc.register_kernel(img);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  EXPECT_EQ(rt.acc.replay_stats().traced_rollbacks, 0u);
  EXPECT_GT(rt.acc.replay_stats().replay_sync_points, 0u);
  expect_identical(ri, rt, "static cross-column poll");

  for (Rig* r : {&ri, &rt}) r->acc.spm().poke(kFlagWord, 0);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  EXPECT_EQ(rt.acc.replay_stats().traced_rollbacks, 0u);
  expect_identical(ri, rt, "static cross-column poll, relaunch");
}

/// The same poll through an SRF-based (dynamic) address: invisible to the
/// static analysis, so free-running column 0 alone would never terminate.
/// Every launch's decoupled attempt must hit its replay budget, roll back,
/// and rerun on the interpreter -- terminating exactly like it.
TEST(TraceCache, DynamicCrossColumnPollHitsBudgetAndRunsInterpreted) {
  constexpr unsigned kFlagWord = 40 * arch::kVwrWords;  // row 40, word 0
  auto poller = [] {
    ProgramBuilder pb;
    pb.line().lsu(lsu_setptr(0, /*base srf=*/4)).emit();  // P0 = SRF4
    Label spin = pb.make_label();
    pb.bind(spin);
    pb.line().lsu(lsu_ld_srf_ptr(1, 0, /*stride=*/0)).emit();  // SRF1 = SPM[P0]
    isa::LcuInstr b;
    b.op = isa::LcuOp::kBsrfZ;
    b.srf = 1;
    pb.line().lcu(b, spin).emit();                   // while (SRF1 == 0)
    pb.line().rc_all(rc_mv(isa::RcDst::kVwrC, isa::RcSrc::kSrf, 1)).emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  auto writer = [] {
    ProgramBuilder pb;
    pb.line().emit();
    pb.line().emit();
    pb.line().emit();
    pb.line().lsu(lsu_st_srf(2, kFlagWord)).emit();  // SPM[flag] = SRF2
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  const isa::KernelImage img = make_kernel2("dynpoll", poller(), writer());

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  for (Rig* r : {&ri, &rt}) {
    r->seed(Rng(89));
    r->acc.spm().poke(kFlagWord, 0);          // flag starts clear
    r->acc.column(0).srf().poke(4, kFlagWord);
    r->acc.column(1).srf().poke(2, 7);        // the value the writer posts
  }
  const unsigned ki = ri.acc.register_kernel(img);
  const unsigned kt = rt.acc.register_kernel(img);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);  // must terminate (budget -> rollback -> interpreter)
  EXPECT_EQ(rt.acc.replay_stats().traced_rollbacks, 1u);
  expect_identical(ri, rt, "dynamic cross-column poll");
  // The rerun counts every column-cycle the interpreter ran, and the
  // abandoned pass leaves no traced launch behind.
  EXPECT_EQ(rt.acc.replay_stats().replay_interpreted_cycles,
            ri.acc.replay_stats().replay_interpreted_cycles);
  EXPECT_EQ(rt.acc.replay_stats().traced_launches, 0u);
  EXPECT_EQ(rt.acc.replay_stats().replay_sync_points, 0u);

  // The relaunch pays the budget again: another rollback and rerun.
  for (Rig* r : {&ri, &rt}) r->acc.spm().poke(kFlagWord, 0);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  EXPECT_EQ(rt.acc.replay_stats().traced_rollbacks, 2u);
  expect_identical(ri, rt, "dynamic cross-column poll, relaunch");
  EXPECT_EQ(rt.acc.replay_stats().replay_interpreted_cycles,
            ri.acc.replay_stats().replay_interpreted_cycles);
  EXPECT_EQ(rt.acc.replay_stats().traced_launches, 0u);
  EXPECT_EQ(rt.acc.replay_stats().replay_sync_points, 0u);
}

/// kRcCross operands in a two-column pair: both columns read the partner's
/// previous-cycle RC results, which the interpreter models cycle by cycle.
/// Such programs do not compile to traces (the bail names kRcCross), so
/// every launch runs interpreted and nothing is replayed.
TEST(TraceCache, CrossColumnOperandsBailToInterpreter) {
  auto make_prog = [](isa::RcDst dst) {
    ProgramBuilder pb;
    pb.line().rc_all(rc_add(isa::RcDst::kR0, isa::RcSrc::kVwrA,
                            isa::RcSrc::kOne)).emit();
    pb.line().rc_all(rc_add(dst, isa::RcSrc::kRcCross,
                            isa::RcSrc::kR0)).emit();
    pb.line().rc_all(rc_mv(dst, isa::RcSrc::kRcCross)).emit();
    pb.line().lcu(lcu_exit()).emit();
    return pb.build();
  };
  const isa::ColumnProgram p0 = make_prog(isa::RcDst::kVwrB);
  const isa::ColumnProgram p1 = make_prog(isa::RcDst::kVwrC);

  for (const isa::ColumnProgram* p : {&p0, &p1}) {
    const auto t = cgra::compile_trace(*p);
    EXPECT_FALSE(t->ok);
    EXPECT_NE(t->bail_reason.find("kRcCross"), std::string::npos)
        << t->bail_reason;
  }

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  ri.seed(Rng(91));
  rt.seed(Rng(91));
  const isa::KernelImage img = make_kernel2("cross", p0, p1);
  const unsigned ki = ri.acc.register_kernel(img);
  const unsigned kt = rt.acc.register_kernel(img);
  ri.acc.run_kernel(ki);
  rt.acc.run_kernel(kt);
  expect_identical(ri, rt, "cross-operand interpreted run");
  EXPECT_EQ(rt.acc.replay_stats().traced_launches, 0u);
  EXPECT_EQ(rt.acc.replay_stats().traced_rollbacks, 0u);
  EXPECT_EQ(rt.acc.replay_stats().replay_interpreted_cycles,
            ri.acc.replay_stats().replay_interpreted_cycles);
}

/// A kRcCross operand without a running partner column must surface the
/// interpreter's documented SimError with identical partial state: the
/// program does not compile to a trace, so the interpreter raises it.
TEST(TraceCache, CrossWithoutPartnerFaultsIdentically) {
  ProgramBuilder pb;
  pb.line().rc_all(rc_mv(isa::RcDst::kR0, isa::RcSrc::kOne)).emit();
  pb.line().rc_all(rc_mv(isa::RcDst::kVwrC, isa::RcSrc::kRcCross)).emit();
  pb.line().lcu(lcu_exit()).emit();
  const isa::KernelImage img = make_kernel("lonecross", 0, pb.build());

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  ri.seed(Rng(92));
  rt.seed(Rng(92));
  const unsigned ki = ri.acc.register_kernel(img);
  const unsigned kt = rt.acc.register_kernel(img);
  std::string err_i, err_t;
  try {
    ri.acc.run_kernel(ki);
  } catch (const SimError& e) {
    err_i = e.what();
  }
  try {
    rt.acc.run_kernel(kt);
  } catch (const SimError& e) {
    err_t = e.what();
  }
  EXPECT_FALSE(err_i.empty());
  EXPECT_EQ(err_i, err_t);
  expect_identical(ri, rt, "lone cross fault path");
}

/// The trace-mode twin of Column.MissingExitThrows: a program that falls
/// through its last line raises the interpreter's "branch past end" fault
/// from every replay site -- a plain block and a fused loop on one column,
/// decoupled and scheduled plans on two -- and the rollback leaves the
/// interpreter's exact partial state and energy.
TEST(TraceCache, MissingExitFaultsIdentically) {
  using isa::RcDst;
  using isa::RcSrc;
  auto plain = [] {
    ProgramBuilder pb;
    pb.line().rc_all(rc_mv(RcDst::kR0, RcSrc::kOne)).emit();
    pb.line().rc_all(rc_add(RcDst::kVwrC, RcSrc::kR0, RcSrc::kVwrA)).emit();
    return pb.build();
  };
  auto loop = [] {  // a fused DBNZ self-loop is the last line
    ProgramBuilder pb;
    pb.line().lcu(lcu_set(0, 5)).emit();
    Label l = pb.make_label();
    pb.bind(l);
    pb.line()
        .rc_all(rc_add(RcDst::kR1, RcSrc::kR1, RcSrc::kVwrA))
        .mxcu(mxcu_add_idx(3))
        .lcu(lcu_dbnz(0), l)
        .emit();
    return pb.build();
  };
  auto store = [] {  // row 40 statically shared: a sync block
    ProgramBuilder pb;
    pb.line().rc_all(rc_add(RcDst::kVwrA, RcSrc::kVwrA, RcSrc::kOne)).emit();
    pb.line().lsu(lsu_st_vwr(VwrSel::A, 40)).emit();
    return pb.build();
  };
  auto load = [] {
    ProgramBuilder pb;
    pb.line().emit();
    pb.line().lsu(lsu_ld_vwr(VwrSel::B, 40)).emit();
    return pb.build();
  };
  struct Case {
    const char* what;
    isa::KernelImage img;
    const char* plan;
  };
  const Case cases[] = {
      {"one column", make_kernel("fall", 0, plain()), "decoupled"},
      {"one column, fused loop", make_kernel("fall_loop", 0, loop()),
       "decoupled"},
      {"two columns, decoupled", make_kernel2("fall2", plain(), loop()),
       "decoupled"},
      {"two columns, scheduled", make_kernel2("fall_sync", store(), load()),
       "scheduled"},
  };
  for (const Case& c : cases) {
    std::array<std::shared_ptr<const cgra::CompiledTrace>, arch::kNumColumns> t;
    for (unsigned col = 0; col < arch::kNumColumns; ++col) {
      if (!isa::contains(c.img.columns, col)) continue;
      t[col] = cgra::compile_trace(c.img.program[col]);
      ASSERT_TRUE(t[col]->ok) << c.what << ": " << t[col]->bail_reason;
    }
    EXPECT_EQ(plan_kind(cgra::tc::make_sync_plan(t[0].get(), t[1].get())),
              c.plan)
        << c.what;
    const std::string err = launch_twice_identical(c.img, 93, c.what);
    EXPECT_EQ(err, "Column: branch past end of program") << c.what;
    if (::testing::Test::HasFailure()) return;
  }
}

/// Every shuffle mode through a one-line traced program, as the plain
/// shuffle into C and as the staged shuffle of a line whose RCs read C and
/// write A: the row-wide handler of each mode must produce shuffle_eval()
/// of the pre-cycle rows and match the interpreter in every state word and
/// energy event.
TEST(TraceCache, EveryShuffleModeMatchesInterpreter) {
  for (unsigned m = 0; m < cgra::tc::kShufModes; ++m) {
    const auto mode = static_cast<isa::ShufMode>(m);
    for (const bool staged : {false, true}) {
      const std::string what =
          "mode " + std::to_string(m) + (staged ? " staged" : " plain");
      ProgramBuilder pb;
      auto line = pb.line().lsu(lsu_shuf(mode));
      if (staged) {
        line.rc_all(rc_add(isa::RcDst::kVwrA, isa::RcSrc::kVwrC, isa::RcSrc::kOne));
      }
      line.emit();
      pb.line().lcu(lcu_exit()).emit();
      const isa::ColumnProgram prog = pb.build();

      const auto trace = cgra::compile_trace(prog);
      ASSERT_TRUE(trace->ok) << what << ": " << trace->bail_reason;
      const cgra::tc::Line& l = trace->lines[0];
      ASSERT_EQ(l.nops, staged ? 3u : 1u) << what;
      ASSERT_EQ(trace->ops[l.op].id,
                (staged ? cgra::tc::kOpShufStage : cgra::tc::kOpShuf) + m)
          << what;
      if (staged) {
        ASSERT_EQ(trace->ops[l.op + 2].id, cgra::tc::kOpShufCommit) << what;
      }

      Rig ri(ExecMode::kInterpret);
      Rig rt(ExecMode::kTraceCache);
      ri.seed(Rng(500 + m));
      rt.seed(Rng(500 + m));
      const cgra::VwrRow a = rt.acc.column(0).vwr(VwrSel::A).read_row();
      const cgra::VwrRow b = rt.acc.column(0).vwr(VwrSel::B).read_row();
      const isa::KernelImage img = make_kernel("shuf", 0, prog);
      ri.acc.run_kernel(ri.acc.register_kernel(img));
      rt.acc.run_kernel(rt.acc.register_kernel(img));
      EXPECT_EQ(rt.acc.replay_stats().replay_interpreted_cycles, 0u)
          << what;
      EXPECT_EQ(rt.acc.column(0).vwr(VwrSel::C).read_row(),
                cgra::shuffle_eval(mode, a, b))
          << what;
      expect_identical(ri, rt, what);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// --- quad handler keys ---------------------------------------------------------

/// One quad line for handler key (op, a, b, d). `alias` routes the
/// destination onto a source (same VWR row or same RC register) and makes
/// both operands read one location; otherwise every operand is distinct
/// where the register space allows.
isa::RcInstr quad_rc_for(unsigned op, unsigned a, unsigned b, unsigned d,
                         bool alias) {
  using isa::RcDst;
  using isa::RcSrc;
  using K = cgra::tc::Src::K;
  auto src = [alias](unsigned kind, bool second) {
    switch (static_cast<K>(kind)) {
      case K::kImm:
        return RcSrc::kImm;
      case K::kRf:
        return second && !alias ? RcSrc::kR1 : RcSrc::kR0;
      case K::kVwr:
        return second && !alias ? RcSrc::kVwrB : RcSrc::kVwrA;
      default:
        return RcSrc::kSrf;
    }
  };
  RcDst dst = RcDst::kNone;
  if (d == static_cast<unsigned>(cgra::tc::Dst::kRf)) {
    dst = alias ? RcDst::kR0 : RcDst::kR1;
  } else if (d == static_cast<unsigned>(cgra::tc::Dst::kVwr)) {
    dst = alias ? RcDst::kVwrA : RcDst::kVwrC;
  }
  const RcSrc sb = b == cgra::tc::kQuadUnary ? RcSrc::kZero : src(b, true);
  return rc_op(static_cast<isa::RcOp>(op), dst, src(a, false), sb,
               /*srf=*/5, /*imm=*/-3);
}

/// The MXCU op riding along with the quad line: mostly nonzero index steps
/// (wrapping the slice), with the set/aux forms and no-op rotated in.
isa::MxcuInstr quad_mxcu_for(unsigned key) {
  isa::MxcuInstr m;
  switch (key % 7) {
    case 0: return mxcu_add_idx(1);
    case 1: return mxcu_add_idx(3);
    case 2: return mxcu_add_idx(-5);
    case 3: return mxcu_set_idx(7);
    case 4:
      m.op = isa::MxcuOp::kAddAux;
      m.imm = 2;
      return m;
    case 5:
      m.op = isa::MxcuOp::kIdxFromAux;
      return m;
    default:
      return m;  // no MXCU op
  }
}

/// Plain: three copies of the quad line in one straight-line block.
/// Fused: the quad line as a single-line DBNZ self-loop over 37 iterations,
/// more than one slice's worth, so the index wraps.
isa::ColumnProgram quad_key_program(const isa::RcInstr& rc,
                                    const isa::MxcuInstr& mx, bool fused) {
  ProgramBuilder pb;
  isa::MxcuInstr aux;
  aux.op = isa::MxcuOp::kSetAux;
  aux.imm = 11;
  pb.line().lcu(lcu_set(0, 37)).mxcu(aux).emit();
  if (fused) {
    Label loop = pb.make_label();
    pb.bind(loop);
    pb.line().rc_all(rc).mxcu(mx).lcu(lcu_dbnz(0), loop).emit();
  } else {
    for (int i = 0; i < 3; ++i) pb.line().rc_all(rc).mxcu(mx).emit();
  }
  pb.line().lcu(lcu_exit()).emit();
  return pb.build();
}

/// Every reachable handler key, as plain lines and as a fused self-loop,
/// with and without destination/source aliasing: the traced run must match
/// the interpreter in state, cycles and every energy event count.
TEST(TraceCacheQuadKeys, EveryKeyPlainAndFusedMatchesInterpreter) {
  using cgra::tc::kQuadKeys;
  unsigned covered = 0;
  for (unsigned op = 0; op < static_cast<unsigned>(isa::RcOp::kCount); ++op) {
    for (unsigned a = 0; a < cgra::tc::kQuadSrcKinds; ++a) {
      for (unsigned b = 0; b <= cgra::tc::kQuadUnary; ++b) {
        for (unsigned d = 0; d < cgra::tc::kQuadDstKinds; ++d) {
          if (!cgra::tc::quad_key_valid(op, a, b, d)) continue;
          const unsigned key = cgra::tc::quad_key(op, a, b, d);
          ASSERT_LT(key, kQuadKeys);
          ++covered;
          for (int variant = 0; variant < 4; ++variant) {
            const bool fused = (variant & 1) != 0;
            const bool alias = (variant & 2) != 0;
            const isa::ColumnProgram prog = quad_key_program(
                quad_rc_for(op, a, b, d, alias), quad_mxcu_for(key), fused);
            const std::string what = "key " + std::to_string(key) +
                                     (fused ? " fused" : " plain") +
                                     (alias ? " aliased" : "");
            const auto trace = cgra::compile_trace(prog);
            ASSERT_TRUE(trace->ok) << what << ": " << trace->bail_reason;
            // The quad op comes first; it carries an add_idx step itself,
            // any other MXCU op follows as its own op.
            const cgra::tc::Line& line = trace->lines[1];
            const isa::MxcuOp mx = quad_mxcu_for(key).op;
            const bool folds = mx == isa::MxcuOp::kNop || mx == isa::MxcuOp::kAddIdx;
            ASSERT_EQ(line.nops, folds ? 1u : 2u) << what;
            ASSERT_EQ(trace->ops[line.op].id, key) << what;
            if (fused) {
              ASSERT_TRUE(trace->blocks[trace->block_of[1]].fuse_self_loop)
                  << what;
            }

            Rig ri(ExecMode::kInterpret);
            Rig rt(ExecMode::kTraceCache);
            ri.seed(Rng(key * 4 + variant));
            rt.seed(Rng(key * 4 + variant));
            const isa::KernelImage img = make_kernel("quad", 0, prog);
            ri.acc.run_kernel(ri.acc.register_kernel(img));
            rt.acc.run_kernel(rt.acc.register_kernel(img));
            EXPECT_EQ(rt.acc.replay_stats().replay_interpreted_cycles, 0u)
                << what;
            expect_identical(ri, rt, what);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
  // 15 binary ops x 4 x 4 operand kinds + 3 unary ops x 4, x 3 destinations.
  EXPECT_EQ(covered, (15u * 4 * 4 + 3u * 4) * 3);
}

/// Catalog coverage: every column program a device loads to serve one
/// MBioTracker window and one FIR -> energy -> rFFT pipeline window compiles,
/// and every line replays through slot handlers -- none needs the staged
/// evaluate/commit sequence kept for a real intra-line hazard. The fused
/// loop bodies take MAC ops: every reduce count-le and sum-of-squares body
/// is one op that runs its whole trip count, and the FIR-11 body drops from
/// 29 ops per trip to 19.
TEST(TraceCache, CatalogLinesTakeSlotHandlers) {
  isa::ImageCache cache;
  runtime::Device dev(0, cache, soc::ArchConfig{.exec_mode = ExecMode::kTraceCache});
  Rng rng(31);
  std::vector<std::int32_t> x(app::kWindow);
  for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.4, 0.4));
  const runtime::SharedBuffer window = runtime::make_buffer(x);
  dev.run(runtime::Job{runtime::BioTrackerJob{app::Target::kCpuVwr2a, window}, ""}, 0);
  dev.run(runtime::Job{runtime::PipelineJob{app::kWindow,
                                            runtime::make_buffer(dsp::fir11_lowpass_q15()),
                                            window},
                       ""},
          1);

  const mem::ConfigMem& cm = dev.platform().vwr2a().config_mem();
  unsigned programs = 0, lines = 0, staged = 0, quad = 0, multi_line_loops = 0;
  unsigned mac = 0, one_op_bodies = 0, reduce_bodies = 0, fir_bodies = 0;
  for (unsigned k = 0; k < cm.size(); ++k) {
    const isa::KernelImage& img = cm.kernel(k);
    const bool reduce = img.name.starts_with("reduce_countle") ||
                        img.name.starts_with("reduce_sumsq");
    const bool fir = img.name.starts_with("fir11");
    for (unsigned c = 0; c < arch::kNumColumns; ++c) {
      if (!isa::contains(img.columns, c)) continue;
      const auto trace = cgra::compile_trace(img.program[c]);
      ASSERT_TRUE(trace->ok) << img.name << ": " << trace->bail_reason;
      ++programs;
      for (const cgra::tc::Line& line : trace->lines) {
        ++lines;
        for (unsigned i = line.op; i < line.op + line.nops; ++i) {
          const unsigned id = trace->ops[i].id;
          ASSERT_LT(id, cgra::tc::kOpMac) << img.name;  // MACs: bodies only
          if (id >= cgra::tc::kOpShufStage && id < cgra::tc::kOpShufCommit) ++staged;
          if (id < cgra::tc::kQuadKeys) ++quad;
        }
      }
      for (const cgra::tc::Block& b : trace->blocks) {
        if (!b.fuse_self_loop) continue;
        for (unsigned i = b.body_op; i < b.body_op + b.body_nops; ++i) {
          const unsigned id = trace->body_ops[i].id;
          ASSERT_LT(id, cgra::tc::kOps) << img.name;
          if (id >= cgra::tc::kOpMac) ++mac;
        }
        if (b.len == 1) continue;
        ++multi_line_loops;
        if (b.body_nops == 1) ++one_op_bodies;
        if (reduce) {
          ++reduce_bodies;
          EXPECT_EQ(b.body_nops, 1u) << img.name;
          EXPECT_GE(trace->body_ops[b.body_op].id, cgra::tc::kOpMac) << img.name;
        }
        if (fir) {
          ++fir_bodies;
          EXPECT_EQ(b.nops, 29u) << img.name;
          EXPECT_EQ(b.body_nops, 19u) << img.name;
        }
      }
    }
  }
  // 34 programs, 903 lines, 295 quad ops, 31 multi-line hardware loops,
  // 44 MAC ops, 3 multi-line bodies of one op, 3 reduce and 4 FIR bodies
  // today; the floors only guard against the walk going vacuous.
  EXPECT_GE(programs, 30u);
  EXPECT_GE(lines, 800u);
  EXPECT_GE(quad, 250u);
  EXPECT_GE(multi_line_loops, 25u);
  EXPECT_GE(mac, 40u);
  EXPECT_GE(one_op_bodies, 3u);
  EXPECT_GE(reduce_bodies, 3u);
  EXPECT_GE(fir_bodies, 2u);
  EXPECT_EQ(staged, 0u);  // lines left on an evaluate/commit path
}

TEST(TraceCache, StaticHazardBailsToInterpreterWithSameFault) {
  // Two different SRF addresses in one line: the single-ported SRF throws
  // StructuralHazard at runtime; the compiler must refuse to trace it and
  // the traced rig must raise the identical fault.
  ProgramBuilder pb;
  pb.line()
      .rc(0, rc_op(isa::RcOp::kSadd, isa::RcDst::kR0, isa::RcSrc::kSrf,
                   isa::RcSrc::kZero, /*srf=*/1))
      .rc(1, rc_op(isa::RcOp::kSadd, isa::RcDst::kR0, isa::RcSrc::kSrf,
                   isa::RcSrc::kZero, /*srf=*/2))
      .emit();
  pb.line().lcu(lcu_exit()).emit();
  const isa::ColumnProgram prog = pb.build();

  const auto trace = cgra::compile_trace(prog);
  EXPECT_FALSE(trace->ok);
  EXPECT_FALSE(trace->bail_reason.empty());

  Rig ri(ExecMode::kInterpret);
  Rig rt(ExecMode::kTraceCache);
  const unsigned ki = ri.acc.register_kernel(make_kernel("hz", 0, prog));
  const unsigned kt = rt.acc.register_kernel(make_kernel("hz", 0, prog));
  EXPECT_THROW(ri.acc.run_kernel(ki), StructuralHazard);
  EXPECT_THROW(rt.acc.run_kernel(kt), StructuralHazard);
  expect_identical(ri, rt, "hazard fault path");
}

TEST(TraceCache, SharedTraceCacheCompilesOnce) {
  cgra::TraceCache shared;
  const isa::ColumnProgram prog = counted_accumulate_program();
  const auto t1 = shared.get_or_compile("vwr3.w32", prog);
  const auto t2 = shared.get_or_compile("vwr3.w32", prog);
  EXPECT_EQ(t1.get(), t2.get());
  auto st = shared.stats();
  EXPECT_EQ(st.compiled, 1u);
  EXPECT_EQ(st.hits, 1u);
  // A different variant namespace compiles its own copy (ISSUE: traces are
  // keyed by ArchConfig variant).
  const auto t3 = shared.get_or_compile("vwr2.w32", prog);
  EXPECT_NE(t1.get(), t3.get());
  EXPECT_EQ(shared.stats().compiled, 2u);
}

TEST(TraceCache, CompiledBlocksLookRight) {
  const auto trace = cgra::compile_trace(counted_accumulate_program());
  ASSERT_TRUE(trace->ok);
  ASSERT_EQ(trace->length(), 5u);
  // Blocks: [0,1] (falls to the loop leader), [2] dbnz self-loop (fused),
  // [3,4] exit.
  ASSERT_EQ(trace->blocks.size(), 3u);
  EXPECT_EQ(trace->blocks[0].len, 2u);
  EXPECT_EQ(trace->blocks[1].first, 2u);
  EXPECT_EQ(trace->blocks[1].term, cgra::tc::Term::kDbnz);
  EXPECT_TRUE(trace->blocks[1].fuse_self_loop);
  EXPECT_EQ(trace->blocks[2].term, cgra::tc::Term::kExit);
  // Per-block energy is non-empty and contains the per-cycle fetch events.
  for (const auto& b : trace->blocks) {
    bool has_fetch = false;
    for (const auto& d : b.energy) {
      if (d.e == energy::Event::kInstrFetchRc) {
        has_fetch = true;
        EXPECT_EQ(d.n, 4ull * b.len);
      }
    }
    EXPECT_TRUE(has_fetch);
  }
}

TEST(TraceCache, ExecModeIsCostModelTransparent) {
  soc::ArchConfig a;
  a.exec_mode = ExecMode::kTraceCache;
  EXPECT_TRUE(a.is_baseline());          // engine choice is not a variant
  EXPECT_EQ(a.name(), "vwr3.w32");       // image-cache namespace unchanged
  soc::Platform::Config b;               // the ISSUE's spelling
  b.exec_mode = ExecMode::kInterpret;
  EXPECT_EQ(soc::ArchConfig{}, b);
}

} // namespace
} // namespace vwr2a
