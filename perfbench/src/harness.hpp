#pragma once
// Shared measurement plumbing of the repo benchmark: run options, the
// outcome every workload fills, host clocks and resource readings, order
// statistics, output digests, and generic readers of the program's own
// telemetry (obs::Registry counters, runtime::FleetStats). Everything here
// observes the simulator from outside through its public headers.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/pool.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Run the fleets on the reference interpreter instead of trace-cache
  /// replay (for cross-checking the recorded simulated totals).
  bool interpret = false;
  /// Open-loop aggregate rate override in windows/s (0 = the workload's
  /// fixed rate). For capacity probes; the benchmark never sets it.
  double rate = 0.0;
  /// Fault injection for the benchmark's own tests: "corrupt" flips one
  /// delivered output word before it is checked; "stall" pauses one
  /// open-loop generator thread mid-run.
  std::string inject;
};

/// The seed whose simulated totals are pinned in recorded.hpp.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// What one workload run reports.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;  ///< metric name -> value
  std::vector<std::string> notes;        ///< human-readable lines

  /// Counts one failed operation and says why (first few reasons only).
  void fail(const std::string& why);
};

/// Host-monotonic nanoseconds on the same clock as obs::now_ns(), so the
/// program's JobResult::Timing stamps compare directly.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Process CPU seconds (user + system, every thread).
double cpu_seconds();

/// Peak resident set of the process so far, in MiB.
double peak_rss_mb();

/// Nearest-rank quantile (p in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double p);

/// FNV-1a 64 over output words: the digest every check compares.
std::uint64_t digest(const std::vector<std::int32_t>& words);

/// digest() of a delivered output; with `corrupt` set, of the output with
/// its first word flipped (the self-test's injected wrong result).
std::uint64_t output_digest(const std::vector<std::int32_t>& words, bool corrupt);

/// The mixed-variant fleet of the stream and gateway workloads: baseline,
/// 2-VWR, 4-VWR and 16-bit SIMD devices in turn.
std::vector<vwr2a::soc::ArchConfig> mixed_fleet(unsigned devices,
                                                vwr2a::cgra::ExecMode mode);

/// Effective host parallelism: `threads` spinning threads against one.
double effective_parallelism(unsigned threads);

/// Every obs::Registry counter by name, read through Registry::entries()
/// so a renamed or deleted counter reads as absent instead of breaking the
/// build.
std::map<std::string, std::uint64_t> counters();

/// b[name] - a[name], 0 when absent.
std::uint64_t counter_delta(const std::map<std::string, std::uint64_t>& a,
                            const std::map<std::string, std::uint64_t>& b,
                            const std::string& name);

/// Simulated fleet totals at one point (FleetStats scalars and per-device
/// clocks only).
struct FleetMark {
  std::vector<vwr2a::Cycle> device_cycles;
  double pj = 0.0;
  std::uint64_t stagings = 0;
};
FleetMark mark(const vwr2a::runtime::FleetStats& s);

/// Simulated work between two marks.
struct SimDelta {
  vwr2a::Cycle total_cycles = 0;  ///< summed over devices
  vwr2a::Cycle makespan = 0;      ///< max per-device advance
  double pj = 0.0;
  std::uint64_t stagings = 0;
  double occupancy() const;  ///< mean device busy share of the makespan
  std::size_t devices = 0;
};
SimDelta sim_delta(const FleetMark& a, const FleetMark& b);

/// Milliseconds at the 80 MHz model clock.
double sim_ms(vwr2a::Cycle c);

/// One completed operation: where it fell in the measured time (seconds
/// from the phase start) and its latency in ms.
struct OpSample {
  double at_s = 0;
  double latency_ms = 0;
};

/// latency_p50_ms and latency_p99_ms from 250 ms slices of the measured
/// time: the 10th percentile of slice p50s and p99s. Other tenants of the
/// host only ever slow a slice down, so the quiet tenth of a run tracks the
/// program's own latency more steadily than the whole run's does.
void report_slices(const std::vector<OpSample>& ops, double wall_s, Outcome& out);

/// Host-time split of one operation's latency, all in ns. `late` and
/// `handoff` come from the benchmark's clocks, the middle three from the
/// program's JobResult::Timing / protocol-v6 span fields, `residual` is
/// what none of them covers.
struct PathSample {
  double latency = 0, late = 0, handoff = 0, queue = 0, run = 0, deliver = 0;
  double residual() const {
    return latency - late - handoff - queue - run - deliver;
  }
};

/// Per-layer figures every workload's traced phase derives the same way
/// from its path samples: runtime.* percentiles and the path.* split of
/// the median band (the windows whose latency lies between the 45th and
/// 55th percentiles; their mean components add up to their mean latency).
void report_path(const std::vector<PathSample>& samples, double run_ns_sum,
                 double wall_s, Outcome& out);

/// Registry-derived cgra.* / runtime.batched_share figures over a phase.
void report_counters(const std::map<std::string, std::uint64_t>& a,
                     const std::map<std::string, std::uint64_t>& b,
                     std::uint64_t ops, Outcome& out);

/// trace.overhead_pct from process CPU per operation of the untraced and
/// traced phases.
void report_overhead(double cpu_plain, std::uint64_t ops_plain,
                     double cpu_traced, std::uint64_t ops_traced,
                     Outcome& out);

/// Standalone Device::run timings per job family (kernels.<family>.run_us).
void report_standalone_kernels(std::uint64_t seed, Outcome& out);

// --- workloads ----------------------------------------------------------------

Outcome run_kernels(const Options& o);
Outcome run_stream(const Options& o);
Outcome run_gateway(const Options& o, bool recorder);

} // namespace perfbench
