#pragma once
// One VWR2A column: four RCs plus the three specialized slots (LCU, LSU,
// MXCU) advancing in lock-step behind a shared program counter (paper
// Sec 3.1/3.3). The column owns its three VWRs, its SRF and its shuffle
// unit; the SPM is shared across columns and passed in by the top level.
//
// Cycle semantics (reconstructed from the paper's Table 1 flow):
//  * All register state (RC register files, RC result registers, LCU loop
//    counters, the MXCU slice index, VWR contents, the PC) commits at end of
//    cycle; every read during a cycle observes the pre-cycle state.
//  * Neighbour operands (kRcUp/kRcDown/kRcCross) read the neighbouring RC's
//    previous-cycle result register.
//  * The LCU resolves branches combinationally: the next PC takes effect in
//    the following cycle with no delay slot (zero-overhead loops, since the
//    LCU occupies its own slot).
//  * Structural hazards (SRF single port, VWR write port, SPM array port)
//    throw StructuralHazard: kernels must be scheduled hazard-free, as on
//    the real machine.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cgra/tracecache.hpp"
#include "common/types.hpp"
#include "energy/meter.hpp"
#include "isa/instr.hpp"
#include "isa/program.hpp"
#include "mem/regfile.hpp"
#include "mem/spm.hpp"
#include "mem/srf.hpp"
#include "mem/vwr.hpp"

namespace vwr2a::cgra {

/// Per-RC architectural state.
struct RcState {
  std::array<Word, arch::kRcRegs> rf{};  ///< R0, R1
  Word out = 0;                          ///< previous-cycle ALU result
};

/// One column of the reconfigurable array.
class Column {
 public:
  using RcOutputs = std::array<Word, arch::kRcsPerColumn>;

  /// One predecoded VLIW line.
  struct DecodedLine {
    isa::LcuInstr lcu;
    isa::LsuInstr lsu;
    isa::MxcuInstr mxcu;
    std::array<isa::RcInstr, arch::kRcsPerColumn> rc;
  };
  using DecodedProgram = std::vector<DecodedLine>;

  Column(unsigned id, mem::Spm& spm, energy::EnergyMeter& meter);

  /// Decodes a whole program (what load_program does internally). Exposed
  /// so the synchronizer can predecode each kernel once and share the
  /// result across reloads instead of re-decoding on every kernel switch.
  static DecodedProgram decode_program(const isa::ColumnProgram& prog);

  /// Copies (predecodes) a program into the unit program memories. Resets
  /// the PC. Configuration-load cost is charged by the top level.
  void load_program(const isa::ColumnProgram& prog);

  /// Shared-ownership variant: aliases an already-decoded program (and the
  /// encoded image) instead of copying either. `dec` must be the decode of
  /// `prog`.
  void load_program(std::shared_ptr<const isa::ColumnProgram> prog,
                    std::shared_ptr<const DecodedProgram> dec);

  /// Starts execution at PC 0.
  void start();

  /// True while the kernel has not executed EXIT.
  bool running() const { return running_; }

  /// Current program counter.
  unsigned pc() const { return pc_; }

  /// Executes one cycle. `cross` points at the other column's previous-cycle
  /// RC results when both columns run synchronized; nullptr otherwise (using
  /// a kRcCross operand then throws).
  void step(const RcOutputs* cross);

  /// Previous-cycle RC results (for the cross-column network).
  const RcOutputs& rc_outputs() const { return rc_prev_; }

  // --- trace-cache replay (see cgra/tracecache.hpp) --------------------------

  /// Attaches (or detaches, with nullptr) the compiled trace of the loaded
  /// program. The trace is consulted only by the traced entry points;
  /// step() stays the interpreter.
  void set_trace(std::shared_ptr<const CompiledTrace> trace) {
    trace_ = std::move(trace);
  }

  /// True when a replayable compiled trace is attached.
  bool has_trace() const { return trace_ != nullptr && trace_->ok; }

  /// Replays exactly one superblock from the current PC (a fused self-loop
  /// replays its whole trip count). Returns the cycles executed; clears
  /// running() at EXIT. Throws tc::ReplayBudgetExceeded when a fused loop
  /// alone would exceed `budget_left`.
  Cycle step_block_traced(Cycle budget_left);

  /// Free stretch of the replay schedule: replays whole superblocks from
  /// the current PC until EXIT or until the next block flagged in `sync`
  /// (one byte per block, tc::SyncPlan::sync; nullptr = none, so the column
  /// runs to EXIT). Returns the cycles executed. Bit-, cycle- and energy-
  /// identical to stepping the interpreter the same number of cycles.
  /// Throws tc::ReplayBudgetExceeded past `budget` cycles (the caller rolls
  /// back): a column polling its partner's SPM writes would otherwise spin
  /// forever. Called between begin_traced() and end_traced().
  Cycle run_free(const std::uint8_t* sync, Cycle budget);

  /// SPM rows this column read / wrote during the last replay, across both
  /// mask tiers (free-running and sync-scheduled accesses).
  std::uint64_t spm_read_mask() const { return spm_rmask_[0] | spm_rmask_[1]; }
  std::uint64_t spm_write_mask() const { return spm_wmask_[0] | spm_wmask_[1]; }

  /// Free-tier-only masks: rows touched while free-running (run_free
  /// stretches, dynamically addressed accesses included). The post-hoc
  /// conflict check intersects these with the partner's totals; sync-tier
  /// accesses are excluded because the schedule already ordered them.
  std::uint64_t spm_free_read_mask() const { return spm_rmask_[0]; }
  std::uint64_t spm_free_write_mask() const { return spm_wmask_[0]; }

  /// Selects which mask tier subsequent traced SPM accesses accumulate
  /// into: 0 = free-running, 1 = sync-scheduled. begin_traced() resets to 0.
  void set_mask_tier(unsigned tier) { mask_tier_ = tier & 1u; }

  /// Superblock index of the current PC in the attached trace.
  unsigned block() const { return trace_->block_of[pc_]; }

  /// True while a sync-scheduled block is mid-flight (between step_traced()
  /// calls); block classification cannot change until it completes.
  bool mid_block() const { return tb_ != nullptr; }

  /// Traced replay of one launch: begin_traced() arms the replay state
  /// (SPM access masks and, when `undo` is given, the copy-on-write SPM
  /// undo log for rollback); run_free() replays free stretches and
  /// step_traced() one compiled line (one cycle of this column, for sync
  /// blocks) with the interpreter's per-cycle semantics; end_traced() syncs
  /// the observable state back. Bit-identical to step() for traceable
  /// programs.
  void begin_traced(tc::SpmUndo* undo) {
    undo_ = undo;
    spm_rmask_[0] = spm_rmask_[1] = 0;
    spm_wmask_[0] = spm_wmask_[1] = 0;
    mask_tier_ = 0;
    tb_ = nullptr;
  }
  void step_traced();
  void end_traced() {
    for (unsigned r = 0; r < arch::kRcsPerColumn; ++r) rcs_[r].out = rc_prev_[r];
    undo_ = nullptr;
  }

  /// Full architectural state of a column, snapshotted before a traced
  /// launch so a detected cross-column SPM conflict (or a replay fault) can
  /// roll back and rerun on the interpreter.
  struct Checkpoint {
    std::array<mem::Vwr::Row, arch::kVwrsPerColumn> vwr;
    std::array<Word, arch::kSrfEntries> srf;
    std::array<RcState, arch::kRcsPerColumn> rcs;
    RcOutputs rc_prev;
    std::array<Word, arch::kLcuRegs> lcu_rf;
    std::array<std::uint32_t, 2> lsu_ptr;
    unsigned idx = 0;
    SWord aux = 0;
    unsigned pc = 0;
    bool running = false;
    Cycle executed = 0;
  };
  void save_state(Checkpoint& ck) const;
  void restore_state(const Checkpoint& ck);

  // --- state access for the host interface and tests ------------------------
  mem::Srf& srf() { return srf_; }
  const mem::Srf& srf() const { return srf_; }
  mem::Vwr& vwr(VwrSel v) { return vwrs_[static_cast<unsigned>(v)]; }
  const mem::Vwr& vwr(VwrSel v) const { return vwrs_[static_cast<unsigned>(v)]; }
  const RcState& rc_state(unsigned r) const { return rcs_.at(r); }
  unsigned mxcu_index() const { return idx_; }
  SWord mxcu_aux() const { return aux_; }
  Word lcu_reg(unsigned r) const { return lcu_rf_.at(r); }
  std::uint32_t lsu_ptr(unsigned p) const { return lsu_ptr_.at(p); }
  unsigned id() const { return id_; }

  /// Cycles this column has executed since construction (excludes stalls and
  /// configuration loads, which the top level accounts).
  Cycle executed_cycles() const { return executed_; }

  /// Disassembles the VLIW line at program address `pc` (tracing/debugging).
  std::string line_asm(unsigned pc) const;

 private:
  Word read_rc_src(isa::RcSrc src, const isa::RcInstr& instr, unsigned r,
                   const RcOutputs* cross);
  unsigned lsu_address(const isa::LsuInstr& instr);

  // --- trace replay internals (column.cpp) -----------------------------------
  /// A compiled slot op bound to this column: its handler, and its VWR
  /// selects resolved to row bases. SRF values are never bound: handlers
  /// read them on every call, since other ops may write the SRF.
  struct Op {
    /// Runs the op `iters` times back to back (a fused one-op loop body
    /// passes its whole trip count).
    using Handler = void (*)(Column&, const Op&, std::uint64_t iters);
    Handler run = nullptr;
    mem::Vwr::Row* a = nullptr;  ///< VWR row of SlotOp::a
    mem::Vwr::Row* b = nullptr;  ///< VWR row of SlotOp::b
    mem::Vwr::Row* d = nullptr;  ///< VWR row of SlotOp::d
    tc::SlotOp s;                ///< the compiled op (operand words)
  };
  /// The handler templates and the one table every slot-op id indexes.
  struct LineOps;
  void bind_op(const tc::SlotOp& s, Op& o);
  /// Binds and runs `n` compiled ops once each, in order.
  void run_ops(const tc::SlotOp* ops, unsigned n);
  /// Evaluates a block terminator; returns the next pc and sets `exit`.
  unsigned eval_term(const tc::Block& b, bool& exit);
  Word trace_src(const tc::Src& s) const;
  const Word* spm_trace_read_row(unsigned row);
  void spm_trace_write_row(unsigned row, const mem::Vwr::Row& v);
  Word spm_trace_read_word(unsigned word);
  void spm_trace_write_word(unsigned word, Word v);

  unsigned id_;
  mem::Spm* spm_;
  energy::EnergyMeter* meter_;

  mem::Srf srf_;
  std::array<mem::Vwr, arch::kVwrsPerColumn> vwrs_;
  std::array<RcState, arch::kRcsPerColumn> rcs_{};
  RcOutputs rc_prev_{};
  std::array<Word, arch::kLcuRegs> lcu_rf_{};
  std::array<std::uint32_t, 2> lsu_ptr_{};  ///< LSU pointer registers P0, P1
  unsigned idx_ = 0;   ///< MXCU shared VWR slice index (mod kSliceWords)
  SWord aux_ = 0;      ///< MXCU auxiliary register

  std::shared_ptr<const DecodedProgram> prog_;
  std::shared_ptr<const isa::ColumnProgram> raw_prog_;  ///< for disassembly
  unsigned pc_ = 0;
  bool running_ = false;
  Cycle executed_ = 0;

  // --- trace replay state ----------------------------------------------------
  std::shared_ptr<const CompiledTrace> trace_;
  std::vector<Op> body_;             ///< fused loop body, bound per replay
  tc::SpmUndo* undo_ = nullptr;      ///< active only during traced replay
  /// SPM row-access masks of the current replay, split by tier ([0] = free-
  /// running, [1] = sync-scheduled) so the post-hoc conflict check can
  /// exclude accesses the sync schedule already ordered. Indexed stores
  /// keep the hot accessors branch-free.
  std::uint64_t spm_rmask_[2] = {0, 0};
  std::uint64_t spm_wmask_[2] = {0, 0};
  unsigned mask_tier_ = 0;
  mem::Vwr::Row shuf_scratch_{};     ///< staged shuffle result (hazard lines)
  const tc::Block* tb_ = nullptr;    ///< step_traced: current block
  unsigned tb_line_ = 0;             ///< step_traced: line within block
};

} // namespace vwr2a::cgra
