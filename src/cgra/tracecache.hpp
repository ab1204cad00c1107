#pragma once
// Trace-cached kernel execution (the interpreter -> trace-cache move).
//
// Column::step() is a decode-everything switch interpreter: every simulated
// cycle re-resolves operand routing, re-checks the single-port structural
// hazards and issues a dozen EnergyMeter::add() calls -- for loop bodies
// that the LCU's zero-overhead loops (paper Sec 3.1) replay thousands of
// times per kernel completely unchanged. The trace compiler here hoists all
// of that invariant work out of the hot loop:
//
//   * each VLIW line is flattened into a micro-op line with operand sources
//     pre-resolved (register/VWR-slice indices computed, immediates
//     sign-extended, SRF addresses bound) and compiled into slot ops that
//     name their specialized handlers, so replay runs no opcode switch;
//   * the structural-hazard schedule (single-ported SRF, VWR write ports)
//     is validated once at compile time -- programs that would trip a
//     hazard at runtime simply fail to compile and fall back to the
//     interpreter, which raises the documented StructuralHazard;
//   * straight-line runs between LCU control-flow decisions become
//     superblocks whose energy events are pre-aggregated into one
//     EnergyMeter::add_block() delta per block replay;
//   * self-loop DBNZ blocks (the hardware-loop idiom every kernel uses)
//     additionally replay their whole trip count in one fused native loop
//     over the body's ops, bound once to the column's state.
//
// Identity contract: a traced run must be bit-identical to the interpreted
// run -- same outputs, same cycle counts, same energy event counts (hence
// exactly equal energy totals: equal integer counts give equal sums), and
// the same SPM row-stamp predicates (write sets are identical; only the
// interleaving of stamp values between decoupled columns may differ, which
// the residency logic is insensitive to). Anything the compiler cannot
// prove faithful -- kRcCross operands, static hazards, branch targets past
// the program end -- makes the program non-traceable and the block falls
// back to the interpreter for that kernel. The interpreter is also the one
// runtime fallback: a launch the replay pass cannot finish exactly (a
// post-hoc cross-column SPM conflict, an expired replay budget, a replay
// fault) rolls back to its checkpoint and reruns interpreted.
//
// Sharing: compiled traces are cached process-wide (or pool-wide, via
// isa::ImageCache::traces()) keyed by the ArchConfig variant name plus the
// program's encoded content, so every device of a DevicePool compiles each
// hot loop body once. Content keying is sound because architecture variants
// share the functional model (soc/platform.hpp): they adjust reported
// cycle/energy at snapshot time, never the executed semantics.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cgra/alu.hpp"
#include "common/codec.hpp"
#include "common/types.hpp"
#include "energy/meter.hpp"
#include "isa/instr.hpp"
#include "isa/program.hpp"

namespace vwr2a::cgra {

/// How Vwr2a::run_kernel executes kernels (soc::ArchConfig::exec_mode).
enum class ExecMode : std::uint8_t {
  kInterpret = 0,  ///< per-cycle switch interpreter (the reference model)
  kTraceCache,     ///< compiled micro-op block replay (bit/cycle/energy-identical)
};

namespace tc {

/// A pre-resolved RC operand source.
struct Src {
  enum class K : std::uint8_t {
    kImm = 0,  ///< constant (imm8 sign-extended, or the 0/1 constants)
    kRf,       ///< rcs_[rc].rf[entry]
    kVwr,      ///< vwrs_[vwr] word at slice base + shared index
    kSrf,      ///< SRF[idx]
    kPrev,     ///< rc_prev_[idx] (neighbour result, index pre-wrapped)
  };
  K k = K::kImm;
  std::uint8_t vwr = 0;    ///< VWR select for kVwr
  std::uint8_t rc = 0;     ///< RC index for kRf; rc_prev index for kPrev
  std::uint8_t idx = 0;    ///< rf entry for kRf; SRF entry for kSrf
  std::uint16_t base = 0;  ///< slice word base (rc * kSliceWords) for kVwr
  Word imm = 0;            ///< value for kImm
};

/// A pre-resolved RC destination.
enum class Dst : std::uint8_t { kNone = 0, kRf, kVwr, kSrf };

/// One RC micro-op.
struct RcUop {
  isa::RcOp op = isa::RcOp::kNop;
  bool unary = false;
  Src a, b;
  Dst d = Dst::kNone;
  std::uint8_t vwr = 0;    ///< VWR select for Dst::kVwr
  std::uint8_t idx = 0;    ///< rf entry for kRf; SRF entry for kSrf
  std::uint16_t base = 0;  ///< slice word base for Dst::kVwr
};

// --- line handlers -----------------------------------------------------------
//
// Every traced line compiles into a short, fixed sequence of *slot ops*, each
// naming one entry of Column's handler table by a dense id. Running the ops
// one after another, each to completion, reproduces the interpreter's
// read-everything-then-commit cycle: the compiler orders them so that no op
// writes state a later op of the same line reads (see compile_trace). A
// fetch-only line (no slot op besides a terminator) compiles to no op at all.
//
// Quad RC ops (all four RCs run one lane-uniform op) are indexed by a dense
// key over (RcOp x a-source kind x b-source kind-or-unary x destination
// kind); a quad op also carries its line's add_idx step, so such a line has
// no separate MXCU op. The remaining ids name one handler per LSU op and
// address mode, per shuffle mode, per MXCU op and per LCU register op, plus
// the per-RC lane loop for RC lines that are not quad.
//
// A fused loop body also gets its own op list (Block::body_op), in which
// each multiply/compare quad that feeds a quad accumulate becomes one MAC
// op (see compile_body in tracecache.cpp).

inline constexpr unsigned kQuadSrcKinds = 4;  ///< Src::K kImm..kSrf
inline constexpr unsigned kQuadUnary = 4;     ///< b coordinate of unary ops
inline constexpr unsigned kQuadDstKinds = 3;  ///< Dst kNone..kVwr
inline constexpr unsigned kQuadKeys = static_cast<unsigned>(isa::RcOp::kCount) *
                                      kQuadSrcKinds * (kQuadSrcKinds + 1) *
                                      kQuadDstKinds;

/// Key of (op, a, b, d); b is a Src::K below kQuadSrcKinds or kQuadUnary.
constexpr unsigned quad_key(unsigned op, unsigned a, unsigned b, unsigned d) {
  return ((op * kQuadSrcKinds + a) * (kQuadSrcKinds + 1) + b) * kQuadDstKinds +
         d;
}

/// True when (op, a, b, d) names a handler: a real opcode, in-range
/// coordinates, and a b coordinate that is kQuadUnary exactly for unary ops.
constexpr bool quad_key_valid(unsigned op, unsigned a, unsigned b, unsigned d) {
  return op > 0 && op < static_cast<unsigned>(isa::RcOp::kCount) &&
         a < kQuadSrcKinds && b <= kQuadUnary && d < kQuadDstKinds &&
         (b == kQuadUnary) == alu_is_unary(static_cast<isa::RcOp>(op));
}

/// The coordinates of a quad key: the inverse of quad_key.
struct QuadCoords {
  unsigned op, a, b, d;
};
constexpr QuadCoords quad_coords(unsigned key) {
  return {key / (kQuadDstKinds * (kQuadSrcKinds + 1) * kQuadSrcKinds),
          key / (kQuadDstKinds * (kQuadSrcKinds + 1)) % kQuadSrcKinds,
          key / kQuadDstKinds % (kQuadSrcKinds + 1), key % kQuadDstKinds};
}

/// The producers a MAC op fuses with the accumulate that follows them: the
/// (op, a, b) shapes of the catalog's multiply and compare loop bodies,
/// each writing an RF entry.
constexpr QuadCoords mac_producer(isa::RcOp op, Src::K a, Src::K b) {
  return {static_cast<unsigned>(op), static_cast<unsigned>(a),
          static_cast<unsigned>(b), static_cast<unsigned>(Dst::kRf)};
}
inline constexpr std::array<QuadCoords, 4> kMacProducers = {
    mac_producer(isa::RcOp::kFxpMul, Src::K::kVwr, Src::K::kSrf),
    mac_producer(isa::RcOp::kFxpMul, Src::K::kVwr, Src::K::kVwr),
    mac_producer(isa::RcOp::kFxpMul, Src::K::kRf, Src::K::kVwr),
    mac_producer(isa::RcOp::kCmpLe, Src::K::kVwr, Src::K::kSrf),
};
/// MAC ops: one per producer x accumulate destination (Dst::kRf, kVwr).
inline constexpr unsigned kMacKeys = kMacProducers.size() * 2;

/// Offset of an addressed LSU op (kLdVwr..kStSrf) from kOpLsu.
constexpr unsigned lsu_op_id(isa::LsuOp op, isa::LsuAddrMode m) {
  return (static_cast<unsigned>(op) - static_cast<unsigned>(isa::LsuOp::kLdVwr)) *
             static_cast<unsigned>(isa::LsuAddrMode::kCount) +
         static_cast<unsigned>(m);
}

/// Slot-op ids past the quad keys.
inline constexpr unsigned kOpLanes = kQuadKeys;  ///< per-RC lanes (non-quad)
/// kLdVwr..kStSrf x address mode: kOpLsu + lsu_op_id(op, amode).
inline constexpr unsigned kOpLsu = kOpLanes + 1;
inline constexpr unsigned kShufModes = static_cast<unsigned>(isa::ShufMode::kCount);
/// Shuffle into VWR C, kOpShuf + mode (the first ids past the addressed
/// LSU ops).
inline constexpr unsigned kOpShuf =
    kOpLsu + lsu_op_id(isa::LsuOp::kShuf, isa::LsuAddrMode::kImm);
/// Shuffle into staging, kOpShufStage + mode.
inline constexpr unsigned kOpShufStage = kOpShuf + kShufModes;
inline constexpr unsigned kOpShufCommit = kOpShufStage + kShufModes;  ///< staging -> C
inline constexpr unsigned kOpSetPtr = kOpShufCommit + 1;
/// kSetIdx..kStIdxSrf: kOpMxcu + op - 1.
inline constexpr unsigned kOpMxcu = kOpSetPtr + 1;
/// kSetI..kStSrf: kOpLcu + op - kSetI.
inline constexpr unsigned kOpLcu =
    kOpMxcu + static_cast<unsigned>(isa::MxcuOp::kCount) - 1;
/// MAC superinstructions, kOpMac + 2 * producer + (accumulate into a VWR):
/// only fused loop bodies (Block::body_op) name these.
inline constexpr unsigned kOpMac =
    kOpLcu + static_cast<unsigned>(isa::LcuOp::kStSrf) -
    static_cast<unsigned>(isa::LcuOp::kSetI) + 1;
inline constexpr unsigned kOps = kOpMac + kMacKeys;

/// One compiled slot op: its handler id and every operand resolved at
/// compile time except the column-state addresses, which are VWR selects
/// here and pointers once a column binds the op.
struct SlotOp {
  std::uint16_t id = 0;  ///< handler (a quad key, or a kOp* id)
  std::uint16_t pc = 0;  ///< program address of the line
  /// VWR selects: quad sources / destination, the LSU row, shuffle A/B/C.
  std::uint8_t a = 0, b = 0, d = 0;
  /// MAC ops only: the producer's RF destination (the accumulate's b
  /// operand) and the accumulate's RF a operand.
  std::uint8_t e = 0, x = 0;
  /// Operand words: quad immediates, SRF or RF indices; LSU SRF base, data
  /// and pointer select; MXCU SRF; LCU ra, SRF, rd. A MAC op carries its
  /// producer's a and b and its accumulate's destination.
  Word av = 0, bv = 0, dv = 0;
  /// Quad (a MAC's producer) index step; LSU/MXCU/LCU immediate.
  std::int32_t imm = 0;
  std::int32_t acc_imm = 0;  ///< a MAC's accumulate index step
};

/// One flattened VLIW line: its slot ops, plus the per-RC micro-ops the
/// lane handler of a non-quad RC line reads.
struct Line {
  std::uint8_t rc_mask = 0;  ///< bit r set when RC r is active
  std::uint8_t nops = 0;     ///< slot ops the line replays as
  std::uint16_t op = 0;      ///< its first op in CompiledTrace::ops
  std::array<RcUop, arch::kRcsPerColumn> rc{};
};

/// Block terminator kinds (the LCU control-flow decision re-evaluated each
/// replay; everything else in the block is straight-line).
enum class Term : std::uint8_t {
  kFall = 0,  ///< no control op: fall through to the next block
  kB,         ///< unconditional branch
  kCond,      ///< conditional branch (cond re-evaluated every replay)
  kDbnz,      ///< decrement-and-branch-if-nonzero (hardware loop)
  kExit,      ///< kernel end
};

/// Condition kinds for Term::kCond.
enum class Cond : std::uint8_t {
  kEq = 0, kNe, kLt, kGe,          ///< register-register
  kEqI, kNeI, kLtI, kGeI,          ///< register-immediate
  kSrfZ, kSrfNz,                   ///< SRF zero test
};

/// One superblock: a straight-line run of lines plus its terminator and the
/// pre-aggregated energy of one full replay.
struct Block {
  std::uint16_t first = 0;  ///< program address of the first line
  std::uint16_t len = 0;    ///< lines in the block (terminator included)
  Term term = Term::kFall;
  Cond cond = Cond::kEq;
  std::uint8_t ra = 0, rb = 0, rd = 0, srf = 0;
  std::int32_t imm = 0;
  std::uint16_t target = 0;     ///< branch-taken program address
  bool fuse_self_loop = false;  ///< DBNZ back to `first`, trip-count fusable
  std::uint16_t op = 0;         ///< first slot op of the block
  std::uint16_t nops = 0;       ///< slot ops of one block replay
  /// Fused self-loops: one trip's ops in CompiledTrace::body_ops, with MAC
  /// pairs fused; the fused-loop replay runs these instead of op/nops.
  std::uint16_t body_op = 0;
  std::uint16_t body_nops = 0;
  std::vector<energy::EventDelta> energy;  ///< one full block replay
  /// Statically-addressed SPM rows one replay of this block reads / writes
  /// (LSU kImm address mode; kSpmRows = 64, one word each). Dynamically
  /// addressed accesses (SRF/pointer modes) are absent here -- they stay on
  /// the free-running tier and are validated post hoc by the runtime masks.
  std::uint64_t sread = 0;
  std::uint64_t swrite = 0;
};

} // namespace tc

/// A compiled column program: micro-op lines indexed by program address,
/// superblocks, and the pc -> block map. Immutable once built; shared
/// across every device whose configuration memory holds the same program.
class CompiledTrace {
 public:
  bool ok = false;           ///< false: program is non-traceable (see reason)
  std::string bail_reason;   ///< why compilation fell back to the interpreter
  std::vector<tc::Line> lines;
  std::vector<tc::Block> blocks;
  std::vector<std::uint16_t> block_of;  ///< pc -> index into blocks
  std::vector<tc::SlotOp> ops;  ///< every line's slot ops, in line order
  std::vector<tc::SlotOp> body_ops;  ///< fused loop bodies (Block::body_op)
  /// Whole-trace unions of the per-block static SPM row masks.
  std::uint64_t static_reads = 0;
  std::uint64_t static_writes = 0;

  unsigned length() const { return static_cast<unsigned>(lines.size()); }
};

/// Compiles one column program. Never throws on untraceable input: the
/// result carries ok = false and the interpreter stays authoritative.
std::shared_ptr<const CompiledTrace> compile_trace(const isa::ColumnProgram& prog);

/// Thread-safe cache of compiled traces, keyed by (variant namespace,
/// program content). Negative results (ok = false) are cached too, so a
/// non-traceable kernel costs one compile attempt fleet-wide, not one per
/// launch. Owned by isa::ImageCache so a DevicePool's devices share it.
class TraceCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;      ///< lookups served from the cache
    std::uint64_t compiled = 0;  ///< programs compiled to replayable traces
    std::uint64_t bailed = 0;    ///< programs that stayed on the interpreter
  };

  /// Returns the compiled trace for `prog` under the `variant` namespace
  /// (soc::ArchConfig::name()), compiling it on first use.
  std::shared_ptr<const CompiledTrace> get_or_compile(
      const std::string& variant, const isa::ColumnProgram& prog) {
    const std::uint64_t h = hash_program(variant, prog);
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, end] = entries_.equal_range(h);
    for (; it != end; ++it) {
      if (it->second.variant == variant && it->second.prog == prog) {
        ++hits_;
        return it->second.trace;
      }
    }
    std::shared_ptr<const CompiledTrace> trace = compile_trace(prog);
    trace->ok ? ++compiled_ : ++bailed_;
    entries_.emplace(h, Entry{variant, prog, trace});
    return trace;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Stats{hits_, compiled_, bailed_};
  }

 private:
  struct Entry {
    std::string variant;
    isa::ColumnProgram prog;  ///< full copy: collision-proof equality check
    std::shared_ptr<const CompiledTrace> trace;
  };

  static std::uint64_t hash_program(const std::string& variant,
                                    const isa::ColumnProgram& prog) {
    std::uint64_t h = codec::kFnvBasis;
    auto mix = [&h](std::uint64_t v) { h = codec::fnv1a_word(h, v); };
    for (char c : variant) mix(static_cast<unsigned char>(c));
    mix(prog.length());
    for (unsigned s = 0; s < arch::kSlotsPerColumn; ++s) {
      for (std::uint32_t w : prog.stream(static_cast<Slot>(s))) mix(w);
    }
    return h;
  }

  mutable std::mutex mu_;
  std::multimap<std::uint64_t, Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t compiled_ = 0;
  std::uint64_t bailed_ = 0;
};

namespace tc {

/// Thrown when a column of a two-column replay pass (Column::run_free, or a
/// sync step of Vwr2a::run_scheduled_traced) exceeds its cycle budget. A
/// column polling SPM state its partner has not produced yet (cross-column
/// dataflow the conflict masks would only catch after the fact) spins
/// forever when free-run alone; the budget turns that into a rollback and
/// an interpreter rerun, which interleaves the columns cycle by cycle and
/// therefore terminates exactly when the hardware does. The thrower
/// abandons mid-kernel state -- the caller always rolls back.
struct ReplayBudgetExceeded {};

/// Replay cycle budget per column: ~40x the largest catalog kernel (~10^5
/// cycles), so only pathological cross-column polls or runaway loops ever
/// hit it -- and when they do, the wasted replay stays in the tens of
/// milliseconds before the interpreter takes over.
inline constexpr Cycle kReplayBudget = 1ull << 22;

/// Copy-on-write SPM undo log for one traced kernel launch: decoupled
/// two-column replay saves each row (data + stamp) before its first write,
/// so a detected cross-column conflict can roll the SPM back and rerun the
/// kernel on the interpreter. kSpmRows = 64, so access masks are one word.
/// A row is only read back once saved, so the log is allocated without
/// zeroing `rows` and its pages commit only as rows are saved.
struct SpmUndo {
  std::uint64_t saved_mask = 0;
  std::uint64_t write_gen = 0;
  std::array<std::array<Word, arch::kVwrWords>, arch::kSpmRows> rows;
  std::array<std::uint64_t, arch::kSpmRows> versions{};

  void reset(std::uint64_t gen) {
    saved_mask = 0;
    write_gen = gen;
  }
};

/// The compiled sync schedule of one two-column kernel: which superblocks
/// of each column are sync points. A block is a sync point when its static
/// SPM rows intersect the partner trace's static unions (write/write,
/// write/read or read/write); such blocks replay one line per local cycle
/// under the behind-column-first schedule, which reproduces the
/// interpreter's access order exactly. All other blocks free-run (fused
/// loops included) and their runtime access masks are validated post hoc.
/// Empty `sync` vectors mean no block is a sync point (whole-kernel
/// free-run).
struct SyncPlan {
  std::array<std::vector<std::uint8_t>, arch::kNumColumns> sync;  ///< [col][block]
};

/// Builds the sync schedule for a kernel occupying the given column traces
/// (nullptr = column idle). Null/non-ok traces yield the empty plan: the
/// caller gates on has_trace() before replaying at all.
SyncPlan make_sync_plan(const CompiledTrace* t0, const CompiledTrace* t1);

} // namespace tc

} // namespace vwr2a::cgra
