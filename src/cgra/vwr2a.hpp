#pragma once
// The VWR2A top level (paper Fig. 1): two columns, the shared SPM, the
// configuration memory, the DMA master, and the synchronizer that launches
// kernels, keeps multi-column PCs in step, and raises the completion
// interrupt.
//
// The block keeps its own cycle counter ("local time"). Host-side costs
// (CPU polling, bus writes to the slave port) are charged by the SoC layer;
// the slave-port register-write latency seen *inside* the block is modeled
// here so that standalone (non-SoC) measurements still include the kernel
// programming overhead the paper mentions in Sec 5.1.1.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "bus/sys_port.hpp"
#include "cgra/column.hpp"
#include "cgra/trace.hpp"
#include "cgra/tracecache.hpp"
#include "common/types.hpp"
#include "dma/dma.hpp"
#include "energy/meter.hpp"
#include "isa/program.hpp"
#include "mem/config_mem.hpp"
#include "mem/spm.hpp"

namespace vwr2a::cgra {

/// Cycle cost of one host register write into the VWR2A slave port.
inline constexpr unsigned kSlavePortWriteCycles = 2;

/// Cycle cost of the synchronizer's kernel-launch sequence.
inline constexpr unsigned kLaunchCycles = 4;

/// Cycle cost of raising the completion interrupt line.
inline constexpr unsigned kIrqCycles = 2;

/// Replay-engine counters of one accelerator, monotone since construction.
/// The cycle counters are column-cycles by how they ran: decoupled = free
/// stretches; lockstep = the line-by-line steps of sync blocks;
/// interpreted = the reference interpreter (interpret mode, tracers,
/// non-traceable programs, and the reruns after a rollback).
/// A kernel stuck on the slow tiers shows up here long before a profiler.
struct ReplayStats {
  std::uint64_t traced_launches = 0;   ///< launches replayed from traces
  /// Replays undone by a post-hoc SPM conflict or an expired replay budget
  /// (each reruns on the interpreter; replay faults are not counted).
  std::uint64_t traced_rollbacks = 0;
  std::uint64_t replay_decoupled_cycles = 0;    ///< free stretches
  std::uint64_t replay_lockstep_cycles = 0;     ///< sync-block steps
  std::uint64_t replay_interpreted_cycles = 0;  ///< interpreter
  std::uint64_t replay_sync_points = 0;  ///< sync blocks entered

  bool operator==(const ReplayStats&) const = default;
};

/// The VWR2A accelerator block.
class Vwr2a {
 public:
  /// Builds the block with its master port attached to the system bus.
  explicit Vwr2a(bus::SysPort& sys);

  // --- resources ------------------------------------------------------------
  energy::EnergyMeter& meter() { return meter_; }
  const energy::EnergyMeter& meter() const { return meter_; }
  mem::Spm& spm() { return spm_; }
  const mem::Spm& spm() const { return spm_; }
  mem::ConfigMem& config_mem() { return config_; }
  dma::Dma& dma() { return dma_; }
  Column& column(unsigned c);
  const Column& column(unsigned c) const;

  /// Local cycle counter (advances during DMA, configuration, execution).
  Cycle cycles() const { return cycles_; }

  /// Kernel launches completed via run_kernel() since construction.
  std::uint64_t launches() const { return launches_; }

  // --- host interface (slave port) -------------------------------------------
  /// Registers a kernel image in the configuration memory; returns its id.
  unsigned register_kernel(isa::KernelImage image) {
    return config_.add_kernel(std::move(image));
  }

  /// Registers a shared immutable image (e.g. from an isa::ImageCache) so
  /// many devices alias one assembled copy.
  unsigned register_kernel(std::shared_ptr<const isa::KernelImage> image) {
    return config_.add_kernel(std::move(image));
  }

  /// Host write of one kernel parameter into a column's SRF (slave port).
  void host_write_srf(unsigned col, unsigned idx, Word v);

  /// Host read of one result from a column's SRF (slave port).
  Word host_read_srf(unsigned col, unsigned idx);

  /// Programs and executes one DMA descriptor; the block is busy for the
  /// returned number of cycles (the host driver model is synchronous).
  Cycle dma_transfer(const dma::Descriptor& d);

  /// Loads (if not already resident) and runs a kernel to completion.
  /// Returns the cycles consumed, including configuration load, launch
  /// overhead, and the completion interrupt.
  Cycle run_kernel(unsigned kernel_id);

  /// Steps the occupied columns of a *started* kernel by one cycle. Exposed
  /// for tests that want to observe intermediate state; run_kernel is the
  /// normal path.
  void start_kernel(unsigned kernel_id);
  bool busy() const;
  void step();

  /// Attaches a per-cycle execution tracer (nullptr detaches). A tracer
  /// forces the interpreter (it observes per-cycle state).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // --- trace-cached execution (see cgra/tracecache.hpp) ----------------------

  /// Selects how run_kernel executes: the per-cycle interpreter (default)
  /// or compiled-trace replay. `variant` namespaces the trace-cache keys
  /// (soc::ArchConfig::name() when driven by a Platform).
  void set_exec_mode(ExecMode mode, std::string variant = "") {
    exec_mode_ = mode;
    trace_variant_ = std::move(variant);
  }
  ExecMode exec_mode() const { return exec_mode_; }

  /// Points this block at a shared trace cache (e.g. the DevicePool's
  /// isa::ImageCache::traces()), so a fleet compiles each program once.
  /// nullptr reverts to a private per-block cache.
  void set_trace_cache(TraceCache* cache) { trace_cache_ = cache; }

  /// The trace cache in use (shared if set, else the private one).
  TraceCache& trace_cache() {
    if (trace_cache_ != nullptr) return *trace_cache_;
    if (owned_traces_ == nullptr) owned_traces_ = std::make_unique<TraceCache>();
    return *owned_traces_;
  }

  /// Replay-engine counters: which execution tier carried the work.
  const ReplayStats& replay_stats() const { return replay_; }

 private:
  void advance(Cycle n);
  /// run_kernel body for ExecMode::kTraceCache: checkpoints the columns,
  /// the meter and (copy-on-write) the SPM, then replays the launch in one
  /// run_scheduled_traced pass. A post-hoc cross-column conflict, an
  /// expired replay budget or a replay fault rolls back and reruns the
  /// launch on the interpreter, which also raises any documented error.
  void run_kernel_traced();
  /// The one replay schedule. The behind column advances (ties go to
  /// column 0, the interpreter's intra-cycle order). Free blocks run as
  /// free stretches (Column::run_free: whole superblocks, fused loops
  /// included, up to the next sync block); sync blocks advance one line
  /// per local cycle, which reproduces the interpreter's cross-column
  /// access order for every sync/sync pair. Returns the launch's cycles
  /// (the later column's local time).
  Cycle run_scheduled_traced(const tc::SyncPlan& plan);
  /// Runs the started kernel interpreted until both columns exit.
  void run_interpreted() {
    while (busy()) step();
  }
  Tracer* tracer_ = nullptr;

  energy::EnergyMeter meter_;
  mem::Spm spm_;
  mem::ConfigMem config_;
  dma::Dma dma_;
  std::array<std::optional<unsigned>, arch::kNumColumns> loaded_{};
  Column col0_;
  Column col1_;
  Cycle cycles_ = 0;
  std::uint64_t launches_ = 0;

  /// Per-kernel predecoded programs and compiled traces, memoized so kernel
  /// switches (the per-launch common case in multi-kernel applications)
  /// alias instead of re-decoding / re-hashing on every reload.
  struct KernelRuntime {
    std::array<std::shared_ptr<const Column::DecodedProgram>,
               arch::kNumColumns> dec{};
    std::array<std::shared_ptr<const CompiledTrace>, arch::kNumColumns> trace{};
    /// Compiled sync schedule for this kernel's trace pair, built once from
    /// the memoized traces (it is a pure function of them).
    tc::SyncPlan plan;
    bool plan_ready = false;
  };
  std::vector<KernelRuntime> kernel_rt_;
  unsigned cur_kernel_ = 0;  ///< kernel id of the last start_kernel()

  ExecMode exec_mode_ = ExecMode::kInterpret;
  std::string trace_variant_;
  TraceCache* trace_cache_ = nullptr;
  std::unique_ptr<TraceCache> owned_traces_;
  std::unique_ptr<tc::SpmUndo> undo_;  ///< lazily allocated (trace mode only)
  ReplayStats replay_;
};

} // namespace vwr2a::cgra
