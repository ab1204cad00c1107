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
    if (exec_mode_ == ExecMode::kTraceCache && !rt.plan_ready) {
      // The sync plan is a pure function of the memoized traces, so it is
      // built once, when they are first bound.
      rt.plan = tc::make_sync_plan(
          isa::contains(img.columns, 0) ? rt.trace[0].get() : nullptr,
          isa::contains(img.columns, 1) ? rt.trace[1].get() : nullptr);
      rt.plan_ready = true;
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

Cycle Vwr2a::run_scheduled_traced(const tc::SyncPlan& plan) {
  // Behind-column-first schedule over local clocks (a column's local time
  // equals its interpreter global cycle: columns launch together and never
  // stall). The behind column advances; ties go to column 0, matching the
  // interpreter's intra-cycle column order. Sync steps advance one line
  // (one cycle) per pick, so for any two sync accesses A (col 0, time a)
  // and B (col 1, time b): A executes only once t1 >= a and B only once
  // t0 > b, which forbids either from overtaking the other -- the
  // interpreter's (time, column) access order is reproduced exactly. Free
  // stretches leap to the next sync block (fused trip counts included);
  // the rows they touch are checked against the partner's totals after the
  // run.
  const bool r0 = col0_.running();
  const bool r1 = col1_.running();
  if (r0) col0_.begin_traced(undo_.get());
  if (r1) col1_.begin_traced(undo_.get());
  // A lone column cannot wait on a partner, so it needs no budget.
  const Cycle budget = r0 && r1 ? tc::kReplayBudget : ~Cycle{0};
  const std::array<const std::uint8_t*, arch::kNumColumns> sync{
      plan.sync[0].empty() ? nullptr : plan.sync[0].data(),
      plan.sync[1].empty() ? nullptr : plan.sync[1].data()};
  Cycle t0 = 0, t1 = 0;
  while (col0_.running() || col1_.running()) {
    const bool pick0 = col0_.running() && (!col1_.running() || t0 <= t1);
    Column& col = pick0 ? col0_ : col1_;
    Cycle& t = pick0 ? t0 : t1;
    const std::uint8_t* s = sync[pick0 ? 0 : 1];
    if (t > budget) throw tc::ReplayBudgetExceeded{};
    if (s != nullptr && s[col.block()] != 0) {
      if (!col.mid_block()) ++replay_.replay_sync_points;
      col.set_mask_tier(1);
      col.step_traced();
      ++t;
      ++replay_.replay_lockstep_cycles;
    } else {
      col.set_mask_tier(0);
      const Cycle n = col.run_free(s, budget - t);
      t += n;
      replay_.replay_decoupled_cycles += n;
    }
  }
  if (r0) col0_.end_traced();
  if (r1) col1_.end_traced();
  return std::max(t0, t1);
}

void Vwr2a::run_kernel_traced() {
  const bool r0 = col0_.running();
  const bool r1 = col1_.running();
  if ((r0 && !col0_.has_trace()) || (r1 && !col1_.has_trace())) {
    // Non-traceable program (static hazard, kRcCross operand, undecodable
    // line, ...): the interpreter stays authoritative, including its
    // documented faults.
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

  // One pass: sync blocks ordered, the rest free-running and validated
  // post hoc. The column traces were bound by start_kernel's reload, which
  // also built this kernel's plan.
  try {
    const Cycle n = run_scheduled_traced(kernel_rt_[cur_kernel_].plan);
    const bool conflict =
        r0 && r1 &&
        ((col0_.spm_free_write_mask() &
          (col1_.spm_read_mask() | col1_.spm_write_mask())) |
         (col1_.spm_free_write_mask() &
          (col0_.spm_read_mask() | col0_.spm_write_mask())) |
         (col0_.spm_free_read_mask() & col1_.spm_write_mask()) |
         (col1_.spm_free_read_mask() & col0_.spm_write_mask())) != 0;
    if (!conflict) {
      advance(n);
      ++replay_.traced_launches;
      return;
    }
    ++replay_.traced_rollbacks;
  } catch (const tc::ReplayBudgetExceeded&) {
    // A cross-column poll no mask could predict: handled exactly like a
    // detected conflict.
    ++replay_.traced_rollbacks;
  } catch (...) {
    // Replay fault: the interpreter rerun raises the documented error with
    // its exact partial state.
  }
  // Roll back to the checkpoint and rerun the launch on the interpreter.
  if (r0) col0_.restore_state(ck0);
  if (r1) col1_.restore_state(ck1);
  meter_ = meter_ck;
  for (unsigned row = 0; row < arch::kSpmRows; ++row) {
    if ((undo_->saved_mask >> row) & 1u) {
      spm_.trace_restore_row(row, undo_->rows[row], undo_->versions[row]);
    }
  }
  spm_.trace_restore_write_gen(undo_->write_gen);
  run_interpreted();
}

} // namespace vwr2a::cgra
