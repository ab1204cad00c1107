#include "cgra/vwr2a.hpp"

#include <algorithm>

#include "common/status.hpp"

namespace vwr2a::cgra {

using energy::Event;

Vwr2a::Vwr2a(bus::SysPort& sys)
    : spm_(meter_),
      config_(meter_),
      dma_(spm_, sys, meter_),
      col0_(0, spm_, meter_),
      col1_(1, spm_, meter_) {}

Column& Vwr2a::column(unsigned c) {
  if (c >= arch::kNumColumns) throw RangeError("Vwr2a: bad column id");
  return c == 0 ? col0_ : col1_;
}

const Column& Vwr2a::column(unsigned c) const {
  if (c >= arch::kNumColumns) throw RangeError("Vwr2a: bad column id");
  return c == 0 ? col0_ : col1_;
}

void Vwr2a::advance(Cycle n) {
  cycles_ += n;
  meter_.add(Event::kLeakCycle, n);
}

void Vwr2a::host_write_srf(unsigned col, unsigned idx, Word v) {
  column(col).srf().poke(idx, v);
  meter_.add(Event::kSrfWrite);
  advance(kSlavePortWriteCycles);
}

Word Vwr2a::host_read_srf(unsigned col, unsigned idx) {
  meter_.add(Event::kSrfRead);
  advance(kSlavePortWriteCycles);
  return column(col).srf().peek(idx);
}

Cycle Vwr2a::dma_transfer(const dma::Descriptor& d) {
  const Cycle setup = kSlavePortWriteCycles * 4;  // descriptor registers
  const Cycle t = dma_.transfer(d);
  advance(setup + t);
  meter_.add(Event::kIrq);
  return setup + t;
}

void Vwr2a::start_kernel(unsigned kernel_id) {
  const isa::KernelImage& img = config_.kernel(kernel_id);
  cur_kernel_ = kernel_id;
  bool reload = false;
  for (unsigned c = 0; c < arch::kNumColumns; ++c) {
    if (isa::contains(img.columns, c) && loaded_[c] != kernel_id) reload = true;
  }
  if (reload) {
    advance(config_.charge_load(kernel_id));
    if (kernel_rt_.size() <= kernel_id) kernel_rt_.resize(kernel_id + 1);
    KernelRuntime& rt = kernel_rt_[kernel_id];
    const std::shared_ptr<const isa::KernelImage> img_sp =
        config_.kernel_ptr(kernel_id);
    for (unsigned c = 0; c < arch::kNumColumns; ++c) {
      if (isa::contains(img.columns, c)) {
        if (rt.dec[c] == nullptr) {
          rt.dec[c] = std::make_shared<const Column::DecodedProgram>(
              Column::decode_program(img.program[c]));
        }
        // Alias the image's program (no copy on reload).
        column(c).load_program(
            std::shared_ptr<const isa::ColumnProgram>(img_sp, &img.program[c]),
            rt.dec[c]);
        if (exec_mode_ == ExecMode::kTraceCache) {
          if (rt.trace[c] == nullptr) {
            rt.trace[c] =
                trace_cache().get_or_compile(trace_variant_, img.program[c]);
          }
          column(c).set_trace(rt.trace[c]);
        }
        loaded_[c] = kernel_id;
      }
    }
    if (exec_mode_ == ExecMode::kTraceCache) {
      // The sync plan is a pure function of the memoized traces, so it is
      // built once, when they are first bound. A reload only clears the
      // runtime lockstep hint, so a kernel whose trip counts or pointer
      // parameters stopped conflicting leaves the slow path again.
      if (!rt.plan_ready) {
        rt.plan = tc::make_sync_plan(
            isa::contains(img.columns, 0) ? rt.trace[0].get() : nullptr,
            isa::contains(img.columns, 1) ? rt.trace[1].get() : nullptr);
        rt.plan_ready = true;
      }
      rt.lockstep_hint = false;
    }
  }
  advance(kLaunchCycles);
  for (unsigned c = 0; c < arch::kNumColumns; ++c) {
    if (isa::contains(img.columns, c)) column(c).start();
  }
}

bool Vwr2a::busy() const { return col0_.running() || col1_.running(); }

void Vwr2a::step() {
  if (tracer_ != nullptr) tracer_->on_cycle(cycles_, col0_, col1_);
  const bool synced = col0_.running() && col1_.running();
  replay_.replay_interpreted_cycles +=
      static_cast<std::uint64_t>(col0_.running()) +
      static_cast<std::uint64_t>(col1_.running());
  // Snapshot both columns' previous-cycle results before either commits, so
  // cross-column operands observe a consistent pre-cycle state.
  const Column::RcOutputs outs0 = col0_.rc_outputs();
  const Column::RcOutputs outs1 = col1_.rc_outputs();
  spm_.begin_cycle();
  if (col0_.running()) col0_.step(synced ? &outs1 : nullptr);
  if (col1_.running()) col1_.step(synced ? &outs0 : nullptr);
  advance(1);
}

Cycle Vwr2a::run_kernel(unsigned kernel_id) {
  const Cycle t0 = cycles_;
  start_kernel(kernel_id);
  if (exec_mode_ == ExecMode::kTraceCache && tracer_ == nullptr) {
    run_kernel_traced();
  } else {
    while (busy()) step();
  }
  meter_.add(Event::kIrq);
  advance(kIrqCycles);
  ++launches_;
  return cycles_ - t0;
}

Cycle Vwr2a::run_lockstep_traced() {
  // Per-cycle alternation, exactly the interpreter's interleaving: column 0
  // executes (and commits, including its SPM side effects) before column 1
  // each cycle, so cross-column SPM dataflow is observed identically. Both
  // columns' previous-cycle RC results are snapshotted before either
  // commits, so kCross operands observe a consistent pre-cycle state --
  // the slot that used to punt such kernels all the way to the interpreter.
  col0_.begin_traced(undo_.get());
  col1_.begin_traced(undo_.get());
  const KernelRuntime& rt = kernel_rt_[cur_kernel_];
  const bool cross = (rt.trace[0] != nullptr && rt.trace[0]->has_cross) ||
                     (rt.trace[1] != nullptr && rt.trace[1]->has_cross);
  Column::RcOutputs outs0{}, outs1{};
  Cycle n = 0;
  while (col0_.running() || col1_.running()) {
    if (cross) {
      const bool synced = col0_.running() && col1_.running();
      outs0 = col0_.rc_outputs();
      outs1 = col1_.rc_outputs();
      col0_.set_cross(synced ? &outs1 : nullptr);
      col1_.set_cross(synced ? &outs0 : nullptr);
    }
    if (col0_.running()) {
      col0_.step_traced();
      ++replay_.replay_lockstep_cycles;
    }
    if (col1_.running()) {
      col1_.step_traced();
      ++replay_.replay_lockstep_cycles;
    }
    ++n;
  }
  col0_.set_cross(nullptr);
  col1_.set_cross(nullptr);
  col0_.end_traced();
  col1_.end_traced();
  return n;
}

Cycle Vwr2a::run_scheduled_traced(const tc::SyncPlan& plan) {
  // Behind-column-first schedule over local clocks (a column's local time
  // equals its interpreter global cycle: columns launch together and never
  // stall). The behind column advances; ties go to column 0, matching the
  // interpreter's intra-cycle column order. Sync blocks advance one line
  // (one cycle) per pick, so for any two sync-classified accesses A (col 0,
  // time a) and B (col 1, time b): A executes only once t1 >= a and B only
  // once t0 > b, which forbids either from overtaking the other -- the
  // interpreter's (time, column) access order is reproduced exactly. Free
  // blocks leap whole (fused trip counts included); the rows they touch are
  // checked against the partner's totals after the run.
  col0_.begin_traced(undo_.get());
  col1_.begin_traced(undo_.get());
  const KernelRuntime& rt = kernel_rt_[cur_kernel_];
  const std::array<const CompiledTrace*, arch::kNumColumns> tr{
      rt.trace[0].get(), rt.trace[1].get()};
  Cycle t0 = 0, t1 = 0;
  while (col0_.running() || col1_.running()) {
    const bool pick0 = col0_.running() && (!col1_.running() || t0 <= t1);
    Column& col = pick0 ? col0_ : col1_;
    Cycle& t = pick0 ? t0 : t1;
    const unsigned c = pick0 ? 0u : 1u;
    if (t > tc::kReplayBudget) throw tc::ReplayBudgetExceeded{};
    const unsigned bi = tr[c]->block_of[col.pc()];
    if (plan.sync[c][bi] != 0) {
      if (!col.mid_block()) ++replay_.replay_sync_points;
      col.set_mask_tier(1);
      col.step_traced();
      ++t;
      ++replay_.replay_lockstep_cycles;
    } else {
      col.set_mask_tier(0);
      const Cycle n = col.step_block_traced(tc::kReplayBudget - t);
      t += n;
      replay_.replay_decoupled_cycles += n;
    }
  }
  col0_.end_traced();
  col1_.end_traced();
  return std::max(t0, t1);
}

void Vwr2a::run_kernel_traced() {
  const bool r0 = col0_.running();
  const bool r1 = col1_.running();
  if ((r0 && !col0_.has_trace()) || (r1 && !col1_.has_trace())) {
    // Non-traceable program (static hazard, undecodable line, ...): the
    // interpreter stays authoritative, including its documented faults.
    run_interpreted();
    return;
  }
  // Checkpoint everything the replay can touch, so a cross-column SPM
  // conflict (or a replay fault) can roll back and rerun. The SPM side is a
  // lazy copy-on-write undo log; the rest is small.
  if (undo_ == nullptr) undo_ = std::make_unique_for_overwrite<tc::SpmUndo>();
  undo_->reset(spm_.write_gen());
  Column::Checkpoint ck0, ck1;
  if (r0) col0_.save_state(ck0);
  if (r1) col1_.save_state(ck1);
  const energy::EnergyMeter meter_ck = meter_;
  auto rollback = [&] {
    if (r0) col0_.restore_state(ck0);
    if (r1) col1_.restore_state(ck1);
    meter_ = meter_ck;
    for (unsigned row = 0; row < arch::kSpmRows; ++row) {
      if ((undo_->saved_mask >> row) & 1u) {
        spm_.trace_restore_row(row, undo_->rows[row], undo_->versions[row]);
      }
    }
    spm_.trace_restore_write_gen(undo_->write_gen);
    undo_->reset(spm_.write_gen());
  };

  if (kernel_rt_.size() <= cur_kernel_) kernel_rt_.resize(cur_kernel_ + 1);
  KernelRuntime& rt = kernel_rt_[cur_kernel_];
  if (!rt.plan_ready) {
    rt.plan = tc::make_sync_plan(r0 ? rt.trace[0].get() : nullptr,
                                 r1 ? rt.trace[1].get() : nullptr);
    rt.plan_ready = true;
  }
  const tc::SyncPlan& plan = rt.plan;
  const bool both = r0 && r1;
  if (!both ||
      (plan.mode != tc::SyncPlan::Mode::kLockstep && !rt.lockstep_hint)) {
    // Free tiers: whole-kernel decoupled free-run, or the compiled sync
    // schedule when some blocks statically share SPM rows. Either way the
    // free-running accesses are validated against the partner's totals
    // after the fact; sync-scheduled accesses are already ordered.
    bool conflict = false;
    try {
      Cycle n = 0;
      if (both && plan.mode == tc::SyncPlan::Mode::kScheduled) {
        n = run_scheduled_traced(plan);
      } else {
        // Decoupled replay: each column free-runs its compiled blocks to
        // EXIT (hardware-loop fusion applies). A per-column cycle budget is
        // only needed with a partner: a column polling the other's SPM
        // writes would free-run forever.
        Cycle n0 = 0, n1 = 0;
        const Cycle budget = both ? tc::kReplayBudget : ~Cycle{0};
        if (r0) n0 = col0_.run_traced(undo_.get(), budget);
        if (r1) n1 = col1_.run_traced(undo_.get(), budget);
        replay_.replay_decoupled_cycles += n0 + n1;
        n = std::max(n0, n1);
      }
      if (both) {
        const std::uint64_t t0r = col0_.spm_read_mask();
        const std::uint64_t t0w = col0_.spm_write_mask();
        const std::uint64_t t1r = col1_.spm_read_mask();
        const std::uint64_t t1w = col1_.spm_write_mask();
        conflict = ((col0_.spm_free_write_mask() & (t1r | t1w)) |
                    (col1_.spm_free_write_mask() & (t0r | t0w)) |
                    (col0_.spm_free_read_mask() & t1w) |
                    (col1_.spm_free_read_mask() & t0w)) != 0;
      }
      if (!conflict) {
        advance(n);
        ++replay_.traced_launches;
        return;
      }
    } catch (const tc::ReplayBudgetExceeded&) {
      // Undetectable-in-advance cross-column poll: handled exactly like a
      // detected conflict below (rollback, then per-cycle lockstep).
    } catch (...) {
      // Replay fault: rerun interpreted so the documented error surfaces
      // with the interpreter's exact partial state.
      rollback();
      run_interpreted();
      return;
    }
    ++replay_.traced_rollbacks;
    rollback();
    // Dynamically addressed rows carried data across columns this launch;
    // assume they will again until the next reload re-evaluates.
    rt.lockstep_hint = true;
  }
  // Per-cycle lockstep replay: cross-column SPM dataflow and kCross
  // operands preserved with the interpreter's exact interleaving.
  try {
    advance(run_lockstep_traced());
    ++replay_.traced_launches;
  } catch (...) {
    rollback();
    run_interpreted();
  }
}

} // namespace vwr2a::cgra
